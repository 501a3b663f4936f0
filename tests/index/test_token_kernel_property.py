"""End-to-end property pin for the tokenisation kernel (PR 7).

Randomised lakes -- with real BOOLEAN columns, bool/int duality
collisions, NULLs, numeric strings, and huge integral floats -- are
indexed by the scalar oracle and by the build pipeline on every valid
backend x hash-width combination. The bar: **byte-identical**
``AllTables`` relations and identical seeker results, regardless of what
built the index or which backend stores it. This is the contract the
README's "Ingest contract" section promises: one canonical tokenisation.
"""

import random

import pytest
from oracles.alltables_scalar import build_alltables_scalar

from repro.core.seekers import SeekerContext, Seekers
from repro.engine import Database
from repro.index import IndexConfig, build_alltables
from repro.lake import DataLake, Table

# column backend + 128-bit hashes is rejected by the builder (128-bit
# super keys exceed the int64 SuperKey column) -- same valid matrix as
# the snapshot compatibility suite.
BACKEND_HASH = [("row", 63), ("row", 128), ("column", 63)]


def _random_lake(seed: int, num_tables: int = 8) -> DataLake:
    """Lakes biased toward the kernel's hard cases: a guaranteed
    all-bool BOOLEAN column per table, 0/1-valued cells (the memo
    exclusion set), floats that normalise to ints, integral floats past
    2**53, NaN, numeric strings, and unicode casing traps."""
    rng = random.Random(seed)
    vocabulary = [f"tok{i}" for i in range(20)] + ["Mixed Case", " pad ", "İ", "ß"]
    lake = DataLake(f"kernel_prop_{seed}")
    for t in range(num_tables):
        width = rng.randint(2, 5)
        rows = []
        for _ in range(rng.randint(2, 16)):
            row = [rng.choice([True, False, None])]  # typed BOOLEAN column
            for _ in range(width - 1):
                roll = rng.random()
                if roll < 0.08:
                    row.append(None)
                elif roll < 0.18:
                    row.append(rng.choice([0, 1, rng.randint(0, 5), 2**60]))
                elif roll < 0.28:
                    row.append(rng.choice([True, False]))
                elif roll < 0.40:
                    row.append(
                        rng.choice(
                            [0.0, 1.0, 2.5, 20.0, float(2**53 + 2), float("nan")]
                        )
                    )
                elif roll < 0.48:
                    row.append(rng.choice(["", "  ", "42", "3.0", "3.5"]))
                else:
                    row.append(rng.choice(vocabulary))
            rows.append(tuple(row))
        lake.add(Table(f"t{t}", [f"c{i}" for i in range(width)], rows))
    return lake


def _build(lake, backend, config, build=build_alltables):
    db = Database(backend=backend)
    build(lake, db, config)
    return db


def _query_seekers(lake):
    """One seeker of each family, probing values drawn from the lake --
    including the BOOLEAN column, so boolean tokens flow through the
    online phase too."""
    table = lake.by_id(lake.table_ids()[0])
    strings = [v for v in table.column_values(table.columns[-1]) if v is not None]
    bools = [v for v in table.column_values(table.columns[0]) if v is not None]
    seekers = {
        "SC": Seekers.SC((strings + bools + [True, False])[:8], k=10),
        "KW": Seekers.KW((strings or ["tok0"])[:8], k=10),
    }
    wide = [r[:2] for r in table.rows if all(v is not None for v in r[:2])]
    if len(wide) >= 2:
        seekers["MC"] = Seekers.MC(wide[:6], k=10)
    return seekers


def _results(db, lake, hash_size):
    context = SeekerContext(db=db, lake=lake, hash_size=hash_size)
    return {
        kind: [(hit.table_id, hit.score) for hit in seeker.execute(context)]
        for kind, seeker in _query_seekers(lake).items()
    }


class TestPipelineParityProperty:
    @pytest.mark.parametrize("seed", [3, 17, 88])
    @pytest.mark.parametrize(
        "backend,hash_size", BACKEND_HASH, ids=lambda v: str(v)
    )
    def test_alltables_and_seekers_identical_to_oracle(
        self, seed, backend, hash_size
    ):
        lake = _random_lake(seed)
        reference_db = _build(
            lake, backend, IndexConfig(hash_size=hash_size), build_alltables_scalar
        )
        reference_rows = reference_db.execute("SELECT * FROM AllTables").rows
        assert reference_rows, "property lake produced an empty index"
        reference_results = _results(reference_db, lake, hash_size)
        db = _build(lake, backend, IndexConfig(hash_size=hash_size))
        rows = db.execute("SELECT * FROM AllTables").rows
        assert rows == reference_rows, "pipeline diverged from the scalar oracle"
        assert _results(db, lake, hash_size) == reference_results

    @pytest.mark.parametrize("seed", [3, 17, 88])
    def test_boolean_tokens_identical_across_backends(self, seed):
        """The tentpole regression pin, end to end: the BOOLEAN column's
        tokens ('true'/'false') and every seeker answer must be the same
        whether the lake is indexed into the row store or the column
        store (which surfaces booleans as a typed logical view)."""
        lake = _random_lake(seed)
        per_backend = {}
        for backend in ("row", "column"):
            db = _build(lake, backend, IndexConfig())
            per_backend[backend] = (
                db.execute("SELECT * FROM AllTables").rows,
                _results(db, lake, 63),
            )
        assert per_backend["row"] == per_backend["column"]
        tokens = {row[0] for row in per_backend["row"][0]}
        assert "true" in tokens or "false" in tokens  # booleans really indexed
        assert not tokens & {"True", "False", "0.0", "1.0"}

    def test_boolean_seeker_probe_hits_both_backends(self):
        """Probing with Python bools must find the tables that contain
        them, identically on both backends."""
        lake = DataLake(
            "bool_probe",
            [
                Table("flags", ["f"], [(True,), (False,), (None,)] * 4),
                Table("words", ["w"], [("x",), ("y",)] * 4),
            ],
        )
        hits = {}
        for backend in ("row", "column"):
            db = _build(lake, backend, IndexConfig())
            context = SeekerContext(db=db, lake=lake, hash_size=63)
            hits[backend] = [
                (h.table_id, h.score)
                for h in Seekers.SC([True, False], k=5).execute(context)
            ]
        assert hits["row"] == hits["column"]
        assert hits["row"], "boolean probe found no tables"
        assert hits["row"][0][0] == 0  # the flags table wins
