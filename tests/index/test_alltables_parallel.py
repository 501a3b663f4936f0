"""Determinism and failure suite for the fanned-out AllTables build.

For any worker count and both schedules (in-process, and a real process
pool -- forced on any machine by the ``pooled`` fixture), both storage
backends, and both hash widths, ``build_alltables(...,
IndexConfig(workers=N))`` must produce **byte-identical** ``AllTables``
relations (same values, same physical order) and identical build
reports. A failed build -- an exception inside the pipeline or a dead
worker process -- must surface as a clear error, never a hang, and must
leave neither the worker pool nor the database poisoned: the retry on
the same ``Database`` / ``Blend`` succeeds.
"""

import multiprocessing
import os
import random

import pytest
from oracles.alltables_scalar import alltables_rows

from repro import Blend
from repro.engine import Database
from repro.errors import IndexingError
from repro.index import IndexConfig, build_alltables
from repro.index.alltables import _Factorizer, index_table
from repro.lake import DataLake, Table
from repro.lake.generators import CorpusConfig, generate_corpus
from repro.lake.table import normalize_cell


class _UnstringableCell:
    """A picklable cell whose ``__str__`` raises -- drives an ordinary
    exception out of the normalize kernel."""

    def __str__(self):
        raise TypeError("unstringable cell")


class _WorkerKillingCell:
    """A picklable cell whose ``__str__`` kills the process normalising
    it -- a hard worker death (OOM-kill / segfault stand-in). Guarded so
    it only ever exits a pool worker: if the build unexpectedly ran
    in-process, the test fails instead of taking the test run down."""

    def __str__(self):
        if multiprocessing.parent_process() is None:
            raise AssertionError("worker-killing cell normalised in the main process")
        os._exit(17)


def _random_lake(rng: random.Random, num_tables: int = 12) -> DataLake:
    """Adversarial random lakes: shared skewed vocabulary, numeric and
    mixed columns, NULL/empty/whitespace cells, bool/int collisions
    (``True == 1``), 0/1-valued cells (the fast factoriser's memo
    exclusion set), floats that normalise to ints, NaN, and tiny or
    single-column tables."""
    vocabulary = [f"tok{i}" for i in range(30)] + ["Mixed Case", " pad ", "1", "0"]
    lake = DataLake("parallel_prop")
    for t in range(num_tables):
        width = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(0, 18)):
            row = []
            for _ in range(width):
                roll = rng.random()
                if roll < 0.08:
                    row.append(None)
                elif roll < 0.16:
                    row.append(rng.randint(0, 3))
                elif roll < 0.24:
                    row.append(rng.choice([True, False]))
                elif roll < 0.34:
                    row.append(
                        rng.choice([0.0, 1.0, 2.5, 20.0, float("nan"), -7.125])
                    )
                elif roll < 0.40:
                    row.append(rng.choice(["", "  ", "42", "3.5"]))
                else:
                    row.append(rng.choice(vocabulary))
            rows.append(tuple(row))
        lake.add(Table(f"t{t}", [f"c{i}" for i in range(width)], rows))
    return lake


def _alltables_rows(lake, config, backend="column"):
    db = Database(backend=backend)
    report = build_alltables(lake, db, config)
    return db.execute("SELECT * FROM AllTables").rows, report


class TestByteIdenticalAcrossWorkerCounts:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_lakes_all_worker_counts(self, seed):
        lake = _random_lake(random.Random(seed))
        reference_rows, reference_report = _alltables_rows(lake, IndexConfig())
        for workers in (1, 2, 4):
            rows, report = _alltables_rows(lake, IndexConfig(workers=workers))
            assert rows == reference_rows, f"workers={workers} diverged"
            assert report == reference_report

    def test_real_pool_matches_in_process(self, pooled):
        """A real process pool (any machine, via ``pooled``): results
        must match the in-process build bit for bit."""
        lake = _random_lake(random.Random(91))
        reference_rows, reference_report = _alltables_rows(lake, IndexConfig())
        for workers in (2, 3):
            rows, report = _alltables_rows(lake, IndexConfig(workers=workers))
            assert rows == reference_rows
            assert report == reference_report

    def test_worker_count_clamped_to_available_cpus(self, monkeypatch):
        """One CPU means in-process whatever ``workers`` asks for: no
        pool may be spawned."""
        monkeypatch.setattr("repro.index.alltables._available_cpus", lambda: 1)
        monkeypatch.setattr(
            "repro.index.alltables._shared_pool",
            lambda workers: pytest.fail("spawned a pool on a one-CPU machine"),
        )
        lake = _random_lake(random.Random(91))
        reference_rows, _ = _alltables_rows(lake, IndexConfig())
        assert _alltables_rows(lake, IndexConfig(workers=4))[0] == reference_rows

    @pytest.mark.parametrize("backend", ["row", "column"])
    def test_both_backends_generated_corpus(self, backend, pooled):
        lake = generate_corpus(
            CorpusConfig(name="par", num_tables=25, min_rows=4, max_rows=30, seed=13)
        )
        reference_rows, _ = _alltables_rows(lake, IndexConfig(), backend)
        rows, _ = _alltables_rows(lake, IndexConfig(workers=2), backend)
        assert rows == reference_rows

    def test_128_bit_hashes_row_backend(self, pooled):
        lake = _random_lake(random.Random(5))
        reference_rows, _ = _alltables_rows(lake, IndexConfig(hash_size=128), "row")
        assert any(row[4] >= 2**63 for row in reference_rows)  # real 128-bit keys
        for workers in (1, 2):
            rows, _ = _alltables_rows(
                lake, IndexConfig(hash_size=128, workers=workers), "row"
            )
            assert rows == reference_rows

    def test_128_bit_rejected_on_column_store(self):
        lake = _random_lake(random.Random(5))
        db = Database(backend="column")
        with pytest.raises(IndexingError, match="int64 SuperKey"):
            build_alltables(lake, db, IndexConfig(hash_size=128, workers=2))

    def test_shuffle_rows_parity(self, pooled):
        lake = _random_lake(random.Random(31))
        reference_rows, _ = _alltables_rows(
            lake, IndexConfig(shuffle_rows=True, shuffle_seed=17)
        )
        for workers in (1, 2, 4):
            rows, _ = _alltables_rows(
                lake,
                IndexConfig(shuffle_rows=True, shuffle_seed=17, workers=workers),
            )
            assert rows == reference_rows

    def test_scalar_oracle_agreement(self, pooled):
        lake = _random_lake(random.Random(47))
        parallel_rows, _ = _alltables_rows(lake, IndexConfig(workers=2))
        assert parallel_rows == alltables_rows(lake)[0]

    def test_empty_and_all_null_lakes(self, pooled):
        empty = DataLake("empty")
        rows, report = _alltables_rows(empty, IndexConfig(workers=2))
        assert rows == [] and report.num_index_rows == 0
        nulls = DataLake("nulls", [Table("n", ["a", "b"], [(None, None)] * 5)])
        reference_rows, reference_report = _alltables_rows(nulls, IndexConfig())
        rows, report = _alltables_rows(nulls, IndexConfig(workers=2))
        assert rows == reference_rows == []
        assert report == reference_report
        assert report.num_null_cells == 10


class TestFactorizer:
    """The pipeline's one factoriser against ``normalize_cell``, on the
    exact value classes where Python equality lies (``True == 1``,
    ``1 == 1.0``, NaN)."""

    def test_codes_match_token_for_token(self):
        rows = [
            (True, 1, "1", 1.0),
            (False, 0, "0", 0.0),
            (None, "", "  ", "x"),
            (2.0, 2, "2", float("nan")),
            (True, 1, "1", 1.0),  # repeats: memo-hit path
        ]
        factorizer = _Factorizer()
        codes = factorizer.factorize(rows, 20)
        tokens = [None if c < 0 else factorizer.tokens[c] for c in codes]
        assert tokens == [normalize_cell(v) for row in rows for v in row]
        assert tokens[:4] == ["true", "1", "1", "1"]
        assert tokens[4:8] == ["false", "0", "0", "0"]

    def test_zero_one_values_never_memoised(self):
        factorizer = _Factorizer()
        factorizer.factorize([(1, True, 0.0, "z")], 4)
        assert all(
            not (key == 0 or key == 1) for key in factorizer.memo if key is not None
        )


def _bad_lake(bad_cell) -> DataLake:
    """Two tables, so a ``workers=2`` build really fans out instead of
    running in-process; the second holds the failing cell."""
    return DataLake(
        "bad",
        [
            Table("ok", ["a"], [("fine",)] * 3),
            Table("t", ["a"], [(bad_cell,)] * 3),
        ],
    )


_GOOD_TABLE = Table("t", ["a"], [("mended",)] * 3)


class TestFailureModes:
    @pytest.mark.parametrize(
        "bad_cell,workers,error,message",
        [
            (_UnstringableCell(), None, TypeError, "unstringable"),
            (_UnstringableCell(), 2, TypeError, "unstringable"),
            (_WorkerKillingCell(), 2, IndexingError, "worker process died"),
        ],
        ids=["exception-in-process", "exception-in-worker", "dead-worker"],
    )
    def test_failed_build_is_clear_and_retryable(
        self, bad_cell, workers, error, message, pooled
    ):
        """An ordinary exception (a cell whose ``__str__`` raises inside
        the normalize kernel) propagates with its type intact, also out
        of a worker; a hard worker death raises a clear IndexingError
        promptly, never a hang. Either way the half-built relation is
        dropped and a dead pool discarded: the retry on the SAME
        Database / Blend succeeds instead of dying on "database already
        contains 'AllTables'"."""
        config = IndexConfig(workers=workers)
        lake = _bad_lake(bad_cell)
        db = Database(backend="column")
        with pytest.raises(error, match=message):
            build_alltables(lake, db, config)
        assert not db.has_table("AllTables")

        blend = Blend(lake, backend="column", index_config=config)
        with pytest.raises(error, match=message):
            blend.build_index()
        assert not blend.db.has_table("AllTables")

        lake.replace(1, _GOOD_TABLE)
        expected = alltables_rows(lake)[0]
        build_alltables(lake, db, config)
        assert db.execute("SELECT * FROM AllTables").rows == expected
        blend.build_index()
        assert blend.db.execute("SELECT * FROM AllTables").rows == expected
        assert blend.discover(["mended"], "keyword").output.table_ids() == [1]

    def test_unhashable_cells_index_like_the_scalar_oracle(self, pooled):
        """Unhashable cells (lists) cannot take the fused value->code
        memo; the pipeline routes them through the token kernel and must
        agree with the oracle, which tokenises them via ``str()``."""
        lake = DataLake(
            "unhashable",
            [Table("t", ["a", "b"], [(["x", 1], "plain"), (["x", 1], None)] * 3)],
        )
        expected = alltables_rows(lake)[0]
        assert expected, "scalar oracle indexed the unhashable cells"
        for config in (IndexConfig(), IndexConfig(workers=2)):
            db = Database(backend="column")
            build_alltables(lake, db, config)
            assert db.execute("SELECT * FROM AllTables").rows == expected

    def test_invalid_worker_counts_rejected(self):
        lake = _random_lake(random.Random(2))
        for bad in (0, -3):
            db = Database()
            with pytest.raises(IndexingError, match="workers must be >= 1"):
                build_alltables(lake, db, IndexConfig(workers=bad))
            assert not db.has_table("AllTables")


class TestMaintenanceAfterParallelBuild:
    def test_index_table_appends_identically(self, pooled):
        lake = _random_lake(random.Random(11))
        extra = Table("t_extra", ["a", "b"], [("p", 1), (None, 2.5), ("q", None)])
        results = {}
        for label, config in (
            ("serial", IndexConfig()),
            ("parallel", IndexConfig(workers=2)),
        ):
            db = Database(backend="column")
            build_alltables(lake, db, config)
            added = index_table(len(lake), extra, db, config)
            assert added == 4  # six cells, two NULLs
            results[label] = db.execute("SELECT * FROM AllTables").rows
        assert results["parallel"] == results["serial"]
