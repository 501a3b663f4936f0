"""The AllTables build pipeline vs the scalar reference oracle
(``tests/oracles/alltables_scalar.py``).

The acceptance bar: *byte-identical* ``AllTables`` rows (same values,
same physical order), identical build reports and identical seeker
rankings, under both storage backends, both shuffle modes and both hash
widths, for one flush and for several. A failed build must surface as a
clear error and leave the database clean: the retry on the same
``Database`` / ``Blend`` succeeds.
"""

import dataclasses
import random

import pytest
from oracles.alltables_scalar import alltables_rows, build_alltables_scalar, index_table_scalar

from repro import Blend
from repro.core.seekers import SeekerContext, Seekers
from repro.engine import Database
from repro.errors import IndexingError
from repro.index import IndexConfig, alltables, build_alltables
from repro.index.alltables import _FLUSH_ROWS, index_table
from repro.lake import DataLake, Table
from repro.lake.generators import CorpusConfig, generate_corpus
from repro.lake.table import normalize_cell


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


def _weighted_random_lake(seed: int) -> DataLake:
    """Adversarial random lakes, weighted rolls: shared skewed
    vocabulary, numeric and mixed columns, NULL/empty/whitespace cells,
    bool/int collisions (``True == 1``), 0/1-valued cells (the
    factoriser's memo exclusion set), floats that normalise to ints,
    NaN, and tiny or single-column tables."""
    rng = random.Random(seed)
    vocabulary = [f"tok{i}" for i in range(30)] + ["Mixed Case", " pad ", "1", "0"]
    lake = DataLake("parity_weighted")
    for t in range(12):
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


_PARITY_LAKES = {
    "edge": _edge_lake,
    "generated": _generated_lake,
    "random": _random_lake,
    "random-5": lambda: _weighted_random_lake(5),
    "random-31": lambda: _weighted_random_lake(31),
    "random-47": lambda: _weighted_random_lake(47),
    "generated-13": lambda: generate_corpus(
        CorpusConfig(name="par", num_tables=25, min_rows=4, max_rows=30, seed=13)
    ),
}


@pytest.fixture(scope="module", params=list(_PARITY_LAKES))
def parity_lake(request):
    return _PARITY_LAKES[request.param]()


def _count_flushes(monkeypatch) -> list:
    """Record every ``_encode_part`` call (one per flushed part)."""
    flushes = []
    encode_part = alltables._encode_part

    def counting(buffer):
        flushes.append(len(buffer))
        return encode_part(buffer)

    monkeypatch.setattr(alltables, "_encode_part", counting)
    return flushes


def _build_matching_oracle(lake, config=IndexConfig(), backend="column"):
    """Build *lake* and assert rows and report equal the oracle's;
    returns ``(rows, report)``. Physical insertion order, no ORDER BY:
    byte-identical means identical storage order too."""
    db = Database(backend=backend)
    report = build_alltables(lake, db, config)
    rows = db.execute("SELECT * FROM AllTables").rows
    oracle_rows, oracle_report = alltables_rows(lake, config, backend)
    assert rows == oracle_rows
    assert report == oracle_report
    return rows, report


class TestBitIdenticalBuild:
    @pytest.mark.parametrize("backend,hash_size", [("row", 63), ("row", 128), ("column", 63)])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_rows_identical(self, parity_lake, backend, hash_size, shuffle):
        config = IndexConfig(hash_size=hash_size, shuffle_rows=shuffle, shuffle_seed=11)
        rows, _ = _build_matching_oracle(parity_lake, config, backend)
        if hash_size == 128:
            assert any(row[4] >= 2**63 for row in rows)  # real 128-bit keys

    def test_report_counts(self, parity_lake):
        db = Database(backend="column")
        report = build_alltables(parity_lake, db)
        assert report.num_index_rows == db.num_rows("AllTables")
        assert report.num_tables == len(parity_lake)

    def test_one_part_per_table_merges_identically(self, parity_lake, monkeypatch):
        """The N-part dictionary merge on every parity lake: with a
        one-cell flush threshold each non-empty table is its own part
        with its own token dictionary."""
        monkeypatch.setattr("repro.index.alltables._FLUSH_ROWS", 1)
        flushes = _count_flushes(monkeypatch)
        _build_matching_oracle(parity_lake)
        assert len(flushes) >= 2 and set(flushes) == {1}

    @pytest.mark.slow
    def test_lake_past_the_flush_threshold_matches_oracle(self, monkeypatch):
        """More cells than ``_FLUSH_ROWS``: the build really flushes
        more than once and merges the parts' dictionaries."""
        lake = generate_corpus(
            CorpusConfig(name="flush", num_tables=90, min_rows=600, max_rows=900, seed=3)
        )
        assert lake.stats().num_cells > _FLUSH_ROWS
        flushes = _count_flushes(monkeypatch)
        _build_matching_oracle(lake)
        assert len(flushes) >= 2

    def test_empty_and_all_null_lakes(self):
        rows, report = _build_matching_oracle(DataLake("empty"))
        assert rows == [] and report.num_index_rows == 0
        nulls = DataLake("nulls", [Table("n", ["a", "b"], [(None, None)] * 5)])
        rows, report = _build_matching_oracle(nulls)
        assert rows == []
        assert report.num_null_cells == 10


class TestIndexConfig:
    def test_field_set_is_exactly_the_six(self):
        # The index relation is not a setting: table_name is a class attribute.
        assert IndexConfig().table_name == "AllTables"
        with pytest.raises(TypeError):
            IndexConfig(table_name="AllTables")
        assert [field.name for field in dataclasses.fields(IndexConfig)] == [
            "hash_size",
            "xash_chars",
            "shuffle_rows",
            "shuffle_seed",
            "semantic",
            "semantic_dimensions",
        ]

    @pytest.mark.parametrize(
        "retired", [{"workers": 2}, {"build_value_index": True}, {"build_table_index": False}]
    )
    def test_retired_keywords_rejected(self, retired):
        with pytest.raises(TypeError):
            IndexConfig(**retired)


class TestBuildTokens:
    """Every ``AllTables`` CellValue is ``normalize_cell`` of the lake
    cell at its (TableId, RowId, ColumnId), on the exact value classes
    where Python equality lies (``True == 1``, ``1 == 1.0``, NaN) and on
    blanks, which index nothing."""

    ROWS = [
        (True, 1, "1", 1.0),
        (False, 0, "0", 0.0),
        (None, "", "  ", "x"),
        (2.0, 2, "2", float("nan")),
        (True, 1, "1", 1.0),  # repeats: memo-hit path
    ] * 8  # past the tokeniser's small-batch scalar shortcut

    @pytest.mark.parametrize("backend", ["row", "column"])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_cell_value_is_normalize_cell(self, backend, shuffle):
        table = Table("hazards", ["a", "b", "c", "d"], self.ROWS)
        lake = DataLake("hazards", [table])
        db = Database(backend=backend)
        build_alltables(lake, db, IndexConfig(shuffle_rows=shuffle, shuffle_seed=3))
        rows = db.execute("SELECT CellValue, TableId, ColumnId, RowId FROM AllTables").rows
        perm = alltables.shuffle_permutation(3, 0, table.num_rows) if shuffle else None
        got = {(row_id, column_id): value for value, _, column_id, row_id in rows}
        expected = {}
        for row_id in range(table.num_rows):
            source = table.rows[perm[row_id] if perm else row_id]
            for column_id, cell in enumerate(source):
                token = normalize_cell(cell)
                if token is not None:
                    expected[(row_id, column_id)] = token
        assert got == expected
        assert len(rows) == len(expected)
        assert {value for value, *_ in rows} == {"true", "false", "1", "0", "x", "2"}


class _UnstringableCell:
    """A cell whose ``__str__`` raises -- drives an ordinary exception
    out of the normalize kernel."""

    def __str__(self):
        raise TypeError("unstringable cell")


class TestFailureModes:
    def test_failed_build_is_clear_and_retryable(self):
        """An ordinary exception (a cell whose ``__str__`` raises inside
        the normalize kernel) propagates with its type intact, the
        half-built relation is dropped, and the retry on the SAME
        Database / Blend succeeds instead of dying on "database already
        contains 'AllTables'"."""
        lake = DataLake(
            "bad",
            [
                Table("ok", ["a"], [("fine",)] * 3),
                Table("t", ["a"], [(_UnstringableCell(),)] * 3),
            ],
        )
        db = Database(backend="column")
        with pytest.raises(TypeError, match="unstringable"):
            build_alltables(lake, db)
        assert not db.has_table("AllTables")

        blend = Blend(lake, backend="column")
        with pytest.raises(TypeError, match="unstringable"):
            blend.build_index()
        assert not blend.db.has_table("AllTables")

        lake.replace(1, Table("t", ["a"], [("mended",)] * 3))
        expected = alltables_rows(lake)[0]
        build_alltables(lake, db)
        assert db.execute("SELECT * FROM AllTables").rows == expected
        blend.build_index()
        assert blend.db.execute("SELECT * FROM AllTables").rows == expected
        assert blend.discover(["mended"], "keyword").output.table_ids() == [1]

    def test_unhashable_cells_index_like_the_scalar_oracle(self):
        """Unhashable cells (lists) cannot take the fused value->code
        memo; the pipeline routes them through the token kernel and must
        agree with the oracle, which tokenises them via ``str()``."""
        lake = DataLake(
            "unhashable",
            [Table("t", ["a", "b"], [(["x", 1], "plain"), (["x", 1], None)] * 3)],
        )
        expected = alltables_rows(lake)[0]
        assert expected, "scalar oracle indexed the unhashable cells"
        db = Database(backend="column")
        build_alltables(lake, db)
        assert db.execute("SELECT * FROM AllTables").rows == expected


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
