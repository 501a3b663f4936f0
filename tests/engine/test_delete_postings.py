"""Differential test of the two ``delete_rows`` access paths.

A delete on a column with a declared index resolves its positions from
the postings (on the column store without sealing, so hits may land in
the unsealed backlog); a delete on an unindexed column scans. The same
table is built with and without ``create_index`` in every storage state
a lifecycle stream can leave it in, the same probe list is deleted from
both, and everything a reader can observe must agree: the returned
counts, ``delta_stats``, every read API, the sealed snapshot arrays and
the storage after ``compact``.
"""

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.storage import column_store
from repro.engine.storage.column_store import ColumnTable, DictCodes, numeric_probe_array

SCHEMA = [("txt", "text"), ("i", "integer"), ("f", "float"), ("b", "boolean")]
COLUMNS = [name for name, _ in SCHEMA]

NAN = float("nan")

ROWS = [
    ("x", 1, 1.5, True),
    ("y", 2, 2.0, False),
    (None, None, None, None),
    ("x", 2, NAN, True),
    ("1", 3, 2.0**53, False),
    ("y", -1, 1.0, True),
]
MORE = [
    ("x", 2, 1.5, None),
    ("z", 3, 2.0, True),
    ("1", None, NAN, False),
    ("y", 1, -0.0, True),
]

# Probe lists per column: matching values in every Python / NumPy
# spelling, values of the wrong type, NaN, NULL, absent values and
# duplicates.
PROBES = {
    "txt": [
        ["x"],
        [np.str_("y")],
        ["1"],
        [1],
        [1.0, True],
        ["absent"],
        [None],
        [NAN],
        ["x", "x", np.str_("x"), "z"],
        [],
    ],
    "i": [
        [2],
        [2.0],
        [2.5],
        [True],
        [np.int64(3)],
        [np.float64(-1.0)],
        ["2"],
        [NAN],
        [None],
        [999, 2**70, -(2**70)],
        [2, 2, 2.0, np.int64(2), 1],
    ],
    "f": [
        [1.5],
        [2],
        [np.float64(1.5)],
        [True],
        [0],
        [2**53, 2**53 + 1],
        [2**53 + 1],
        [NAN],
        ["1.5"],
        [None],
        [1.5, 1.5, np.float64(2.0), 2],
    ],
    "b": [
        [True],
        [np.bool_(False)],
        [1],
        [1.0],
        [np.int64(0)],
        [2],
        [-1],
        [0.5],
        ["x"],
        [NAN],
        [None],
        [False, 0, True, 1],
    ],
}


def _chunk(rows):
    """Typed ``(data, null)`` columns for ``insert_columns``."""
    columns = []
    for position, (_, sql_type) in enumerate(SCHEMA):
        values = [row[position] for row in rows]
        null = np.array([v is None for v in values], dtype=bool)
        if sql_type == "text":
            columns.append((np.array(values, dtype=object), null))
        else:
            dtype = {"integer": np.int64, "float": np.float64, "boolean": bool}[sql_type]
            data = np.array([0 if v is None else v for v in values], dtype=dtype)
            columns.append((data, null))
    return columns


def _read(db):
    db.execute("SELECT * FROM t")  # seals on the column store


def _base(db):
    db.insert("t", ROWS)
    _read(db)


def _base_delta(db):
    _base(db)
    db.insert_columns("t", _chunk(MORE))
    _read(db)


def _backlog(db):
    _base(db)
    db.insert_columns("t", _chunk(MORE))


def _backlog_only(db):
    db.insert_columns("t", _chunk(ROWS))
    db.insert_columns("t", _chunk(MORE))


def _tombstoned(db):
    _base_delta(db)
    db.delete_rows("t", "txt", ["y"])
    db.delete_rows("t", "i", [3])


def _tombstoned_backlog(db):
    _backlog(db)
    db.delete_rows("t", "i", [3])
    db.delete_rows("t", "b", [False])


def _row_inserts(db):
    _base_delta(db)
    db.table("t").warm()  # postings materialised ...
    db.insert("t", MORE)  # ... then dropped; rebuilt by the delete


def _compacted(db):
    _tombstoned(db)
    db.compact("t")
    db.insert_columns("t", _chunk(MORE))


STATES = {
    "base": _base,
    "base_delta": _base_delta,
    "backlog": _backlog,
    "backlog_only": _backlog_only,
    "tombstoned": _tombstoned,
    "tombstoned_backlog": _tombstoned_backlog,
    "row_inserts": _row_inserts,
    "compacted": _compacted,
}


def _db(backend, state, indexed):
    db = Database(backend=backend)
    db.create_table("t", SCHEMA)
    if indexed:
        for name in COLUMNS:
            db.create_index("t", name)
    STATES[state](db)
    return db


def _arrays(columns, mask):
    out = []
    for column in columns:
        for array in (column.codes, column.dictionary, column.data, column.null):
            if array is None:
                out.append(None)
            elif array.dtype == object:
                out.append(repr(array.tolist()))
            else:
                out.append((array.dtype.str, array.tobytes()))
    out.append(None if mask is None else mask.tobytes())
    return out


def _observed(db):
    """Everything a reader can see of ``t``, in comparable form (``repr``
    so NaN compares equal to NaN)."""
    table = db.table("t")
    seen = {
        "num_rows": db.num_rows("t"),
        "delta_stats": table.delta_stats(),
        "select": repr(db.execute("SELECT * FROM t").rows),
        "grouped": repr(
            db.execute("SELECT txt, COUNT(*), SUM(i) FROM t GROUP BY txt ORDER BY txt").rows
        ),
    }
    if isinstance(table, ColumnTable):
        count = table.num_rows
        picks = np.array(sorted({0, count // 2, count - 1}) if count else [], dtype=np.int64)
        for name in COLUMNS:
            for positions in (None, picks):
                data, null = table.column_values(name, positions)
                seen[f"values {name} {positions}"] = (repr(data.tolist()), null.tobytes())
            seen[f"isin {name}"] = table.isin_mask(name, PROBES[name][0]).tobytes()
        codes, dictionary = table.text_codes("txt")
        seen["codes"] = (codes.tobytes(), repr(dictionary.tolist()))
        seen["snapshot"] = _arrays(*table.snapshot_columns())
    else:
        seen["snapshot"] = repr(table.snapshot_rows())
    return seen


def _compacted_storage(db):
    db.compact("t")
    table = db.table("t")
    if isinstance(table, ColumnTable):
        return _arrays(*table.snapshot_columns())
    return repr(table.snapshot_rows())


@pytest.mark.parametrize("backend", ["row", "column"])
@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("column", COLUMNS)
def test_postings_delete_matches_scan_delete(backend, state, column):
    for probes in PROBES[column]:
        scanned = _db(backend, state, indexed=False)
        indexed = _db(backend, state, indexed=True)
        assert scanned.delete_rows("t", column, probes) == indexed.delete_rows(
            "t", column, probes
        ), probes
        # Deleting again finds every hit already dead.
        assert scanned.delete_rows("t", column, probes) == 0, probes
        assert indexed.delete_rows("t", column, probes) == 0, probes
        assert _observed(scanned) == _observed(indexed), probes
        assert _compacted_storage(scanned) == _compacted_storage(indexed), probes


@pytest.mark.parametrize("state", sorted(STATES))
def test_postings_delete_neither_seals_nor_scans(state, monkeypatch):
    """On the column store a delete through an index touches only the
    postings: no storage scan and no merge of the unsealed backlog."""
    scanned = _db("column", state, indexed=False)
    indexed = _db("column", state, indexed=True)

    def forbidden(*args, **kwargs):
        raise AssertionError("delete_rows on an indexed column sealed or scanned")

    monkeypatch.setattr(column_store, "_merge_batches", forbidden)
    monkeypatch.setattr(ColumnTable, "_storage_isin_all", forbidden)
    counts = [indexed.delete_rows("t", column, PROBES[column][0]) for column in COLUMNS]
    monkeypatch.undo()
    assert counts == [scanned.delete_rows("t", column, PROBES[column][0]) for column in COLUMNS]
    assert _observed(indexed) == _observed(scanned)


@pytest.mark.parametrize("state", sorted(STATES))
def test_index_lookup_matches_scan_mask(state):
    """Look-ups through the postings name the live rows the scan mask
    names, grouped by the sorted distinct matched values, each value's
    positions ascending, with each hit's code into those values; the row
    store returns the same rows in the same order."""
    table = _db("column", state, indexed=True).table("t")
    rows = _db("row", state, indexed=True).table("t")
    for column in COLUMNS:
        for probes in PROBES[column]:
            where = (column, probes)
            positions, codes, matched = table.index_lookup(column, probes)
            expected = np.nonzero(table.isin_mask(column, probes))[0]
            assert sorted(positions.tolist()) == expected.tolist(), where
            assert codes.dtype == np.int32 and len(codes) == len(positions), where
            values = matched.tolist()
            assert values == sorted(set(values)), where  # sorted, distinct
            if column == "txt":
                assert all(type(value) is str for value in values), where
            data, null = table.column_values(column, positions)
            assert not null.any(), where
            assert data.tolist() == [values[code] for code in codes.tolist()], where
            assert (np.diff(codes) >= 0).all(), where  # grouped by value
            same = np.diff(codes) == 0
            assert (np.diff(positions)[same] > 0).all(), where  # ascending within one
            got = [repr(row) for row in rows.fetch(rows.index_lookup(column, probes))]
            width = range(len(COLUMNS))
            want = zip(*(table.column_values(COLUMNS[i], positions)[0].tolist() for i in width))
            nulls = zip(*(table.column_values(COLUMNS[i], positions)[1].tolist() for i in width))
            assert got == [
                repr(tuple(None if n else v for v, n in zip(row, row_nulls)))
                for row, row_nulls in zip(want, nulls)
            ], where


def test_float_probe_array_drops_values_no_float_equals():
    """NaN and ints that round to a neighbouring float never equal a
    float cell; they must not reach the sorted probe array (NaN would
    also break its order)."""
    probes = numeric_probe_array({3.0, NAN, 1.0, 2**53 + 1, 2**53}, np.dtype(np.float64))
    assert probes.tolist() == [1.0, 3.0, float(2**53)]


# Index-driven statements without ORDER BY: SQL fixes no order, but both
# executors read the index scan's value-grouped order, so their rows agree.
UNORDERED = [
    ("SELECT * FROM t WHERE txt IN (:q)", {"q": ["y", "x", "absent", np.str_("1"), "x"]}),
    ("SELECT txt, i FROM t WHERE i IN (:q) LIMIT 3", {"q": [3, 2, -1, 2.0]}),
    ("SELECT b, f FROM t WHERE b IN (:q) LIMIT 2", {"q": [True, False]}),
    ("SELECT txt, f FROM t WHERE txt IN (:q) AND i NOT IN (:n)", {"q": ["x", "y", "1", "z"], "n": [2]}),
    ("SELECT txt, b FROM t WHERE txt IN (:q) AND i IN (:n)", {"q": ["x", "y", "1", "z"], "n": [1, 3]}),
    (
        "SELECT txt, COUNT(DISTINCT i), COUNT(*) FROM t WHERE txt IN (:q) GROUP BY txt",
        {"q": ["z", "x", "1", "y"]},
    ),
    ("SELECT COUNT(DISTINCT txt) FROM t WHERE txt IN (:q)", {"q": ["z", "x", "1", "nope"]}),
    (
        "SELECT a.txt, b.txt, b.f FROM t a JOIN t b ON a.i = b.i WHERE a.txt IN (:q)",
        {"q": ["x", "1", "y"]},
    ),
    (
        "SELECT a.i, b.i, b.b FROM t a JOIN t b ON a.txt = b.txt WHERE a.i IN (:q)",
        {"q": [2, 3, 1]},
    ),
]


@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("sql, params", UNORDERED)
def test_index_scans_give_both_backends_the_same_rows(state, sql, params):
    row = _db("row", state, indexed=True)
    column = _db("column", state, indexed=True)
    got = column.execute(sql, params)
    assert got.stats.index_scans >= 1
    assert repr(got.rows) == repr(row.execute(sql, params).rows)


@pytest.mark.parametrize("state", sorted(STATES))
def test_coded_index_scan_decodes_to_the_gathered_strings(state):
    """A coded index scan hands over ``DictCodes`` over the matched
    values: decoded, they are the strings a gather reads, as plain
    ``str``, for probes with duplicates, NULL, absent values and
    ``np.str_``."""
    column = _db("column", state, indexed=True)
    row = _db("row", state, indexed=True)
    sql = "SELECT txt FROM t WHERE txt IN (:q)"
    for probes in (["x", "x", None, "absent", np.str_("y"), "1"], [np.str_("z")], [None], []):
        coded = column.execute_columnar(sql, {"q": probes}, decode_text=False).arrays[0]
        assert isinstance(coded[0], DictCodes), probes
        assert not coded[1].any(), probes
        decoded = coded[0].decode().tolist()
        gathered = column.execute_columnar(sql, {"q": probes}).arrays[0][0].tolist()
        assert decoded == gathered == [value for value, in row.execute(sql, {"q": probes}).rows]
        assert all(type(value) is str for value in decoded), probes
