"""The AllTables build pipeline vs the scalar reference oracle
(``tests/oracles/alltables_scalar.py``).

The acceptance bar: *byte-identical* ``AllTables`` rows (same values,
same physical order), identical build reports and identical seeker
rankings, under both storage backends, both shuffle modes, both hash
widths, and both schedules (in-process and a real worker pool).
"""

import random

import pytest
from oracles.alltables_scalar import alltables_rows, build_alltables_scalar, index_table_scalar

from repro.core.seekers import SeekerContext, Seekers
from repro.engine import Database
from repro.index import IndexConfig, build_alltables
from repro.index.alltables import index_table
from repro.lake import DataLake, Table
from repro.lake.generators import CorpusConfig, generate_corpus


def _edge_lake() -> DataLake:
    """Hand-built tables exercising every normalisation edge: NULLs,
    empty/whitespace strings, bools (True == 1 hazards), numeric strings,
    floats that normalise to ints, NaN/inf, all-null rows, repeated
    values, and a 1-column table."""
    lake = DataLake("edges")
    lake.add(
        Table(
            "mixed",
            ["name", "value", "flag"],
            [
                ("Alice", 10, True),
                ("bob ", 20.0, False),
                ("", None, None),
                (None, None, None),
                ("alice", "30", True),
                ("carol", float("nan"), False),
                ("dave", float("inf"), True),
                ("1", 1, True),  # token collision with bool/int forms
            ],
        )
    )
    lake.add(Table("single", ["only"], [("x",), (None,), ("x",), ("Y",)]))
    lake.add(
        Table(
            "numbers",
            ["k", "n", "m"],
            [(f"k{i}", i, i * 1.5) for i in range(25)],
        )
    )
    return lake


def _generated_lake() -> DataLake:
    return generate_corpus(
        CorpusConfig(name="vec_parity", num_tables=40, min_rows=10, max_rows=60, seed=77)
    )


def _random_lake() -> DataLake:
    """Adversarial random tables: shared skewed vocabulary, NULL/empty
    cells, bool/int collisions, floats that normalise to ints, NaN."""
    rng = random.Random(29)
    vocabulary = [f"tok{i}" for i in range(30)] + ["Mixed Case", " pad ", "1", "0"]
    cells = vocabulary + [None, "", 0, 1, 2, True, False, 0.0, 1.0, 2.5, float("nan"), "3.5"]
    lake = DataLake("parity_random")
    for t in range(10):
        width = rng.randint(1, 5)
        rows = [
            tuple(rng.choice(cells) for _ in range(width)) for _ in range(rng.randint(0, 18))
        ]
        lake.add(Table(f"t{t}", [f"c{i}" for i in range(width)], rows))
    return lake


@pytest.fixture(scope="module", params=["edge", "generated", "random"])
def parity_lake(request):
    return {"edge": _edge_lake, "generated": _generated_lake, "random": _random_lake}[
        request.param
    ]()


class TestBitIdenticalBuild:
    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("backend,hash_size", [("row", 63), ("row", 128), ("column", 63)])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_rows_identical(self, parity_lake, backend, hash_size, shuffle, workers, pooled):
        config = IndexConfig(
            hash_size=hash_size, shuffle_rows=shuffle, shuffle_seed=11, workers=workers
        )
        db = Database(backend=backend)
        report = build_alltables(parity_lake, db, config)
        # Physical insertion order, no ORDER BY: byte-identical means
        # identical storage order too.
        rows = db.execute("SELECT * FROM AllTables").rows
        oracle_rows, oracle_report = alltables_rows(parity_lake, config, backend)
        assert rows == oracle_rows
        assert report == oracle_report

    def test_report_counts(self, parity_lake):
        db = Database(backend="column")
        report = build_alltables(parity_lake, db)
        assert report.num_index_rows == db.num_rows("AllTables")
        assert report.num_tables == len(parity_lake)


class TestIncrementalParity:
    def test_index_table_matches_oracle(self):
        new_table = Table(
            "t_new", ["a", "b"], [("p", 1), (None, 2), ("q", None), (None, None)]
        )
        lake = _edge_lake()
        db, oracle_db = Database(backend="column"), Database(backend="column")
        build_alltables(lake, db)
        build_alltables_scalar(lake, oracle_db)
        assert index_table(len(lake), new_table, db) == 4
        assert index_table_scalar(len(lake), new_table, oracle_db) == 4
        sql = "SELECT * FROM AllTables"
        assert db.execute(sql).rows == oracle_db.execute(sql).rows

    def test_128_bit_rejected_on_column_store_up_front(self):
        from repro.errors import IndexingError

        lake = _edge_lake()
        db = Database(backend="column")
        with pytest.raises(IndexingError, match="int64 SuperKey"):
            build_alltables(lake, db, IndexConfig(hash_size=128))
        assert not db.has_table("AllTables")

    def test_128_bit_builds_real_wide_keys_on_row_store(self):
        db = Database(backend="row")
        build_alltables(_edge_lake(), db, IndexConfig(hash_size=128))
        rows = db.execute("SELECT * FROM AllTables").rows
        assert any(row[4] >= 2**63 for row in rows)  # real 128-bit keys

    def test_index_empty_table_is_noop(self):
        lake = _edge_lake()
        db = Database(backend="column")
        build_alltables(lake, db)
        before = db.num_rows("AllTables")
        assert index_table(99, Table("empty", ["c"], []), db) == 0
        assert db.num_rows("AllTables") == before


class TestSeekerRankingsIdentical:
    """The end-to-end bar: an oracle-built and a pipeline-built index
    must give every seeker the same answer."""

    @pytest.fixture(scope="class")
    def contexts(self):
        lake = _generated_lake()
        out = []
        for build in (build_alltables_scalar, build_alltables):
            db = Database(backend="column")
            build(lake, db)
            out.append(SeekerContext(db=db, lake=lake))
        return out

    def _query_values(self, lake):
        table = lake.by_id(0)
        column = table.columns[0]
        return [v for v in table.column_values(column) if v is not None][:8]

    def test_sc_and_kw(self, contexts):
        values = self._query_values(contexts[0].lake)
        for seeker in (Seekers.SC(values, k=5), Seekers.KW(values, k=5)):
            ranked = [seeker.execute(ctx).table_ids() for ctx in contexts]
            assert ranked[0] == ranked[1]

    def test_mc(self, contexts):
        table = contexts[0].lake.by_id(0)
        rows = [r for r in table.rows if all(v is not None for v in r[:2])][:6]
        seeker = Seekers.MC([r[:2] for r in rows], k=5)
        ranked = [seeker.execute(ctx).table_ids() for ctx in contexts]
        assert ranked[0] == ranked[1]

    def test_correlation(self, contexts):
        lake = contexts[0].lake
        pair = None
        for table in lake:
            flags = table.numeric_columns()
            if any(flags) and not all(flags):
                key_col = table.columns[flags.index(False)]
                num_col = table.columns[flags.index(True)]
                pair = (table.column_values(key_col), table.column_values(num_col))
                break
        if pair is None:
            pytest.skip("generated lake has no (text, numeric) column pair")
        seeker = Seekers.Correlation(pair[0], pair[1], k=5, min_support=2)
        ranked = [seeker.execute(ctx).table_ids() for ctx in contexts]
        assert ranked[0] == ranked[1]
