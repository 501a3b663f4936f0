"""Snapshot subsystem tests: round-trip fidelity and failure modes.

The headline invariant: ``Blend.load(Blend.save(...))`` yields a system
functionally identical to the in-memory build it was saved from -- same
seeker results, exact ``LakeStatistics``, byte-identical sealed storage
arrays and (lazily rematerialised) index postings -- on both storage
backends and both hash widths; and a loaded deployment keeps its full
lifecycle (mutations after load preserve rebuild parity, with the
on-disk snapshot untouched -- they land in the delta segment).

The guard rails: corrupted, truncated, or version-mismatched snapshots
raise ``SnapshotError`` naming the offending file; so do a backend
mismatch at load time, a manifest without a lake payload, and a payload
pickle that names a global. A bad snapshot must never load into garbage
results, nor run code.
"""

import io
import json
import pickle
import random
import zlib
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from oracles.stats_scan import lake_statistics

from repro import Blend, Database, Plan, Table
from repro.core.seekers import SeekerContext, Seekers
from repro.engine.storage.column_store import ColumnTable
from repro.errors import SnapshotError
from repro.index import IndexConfig, build_alltables
from repro.lake import DataLake
from repro.lake.generators import CorpusConfig, generate_corpus
from repro.snapshot import FORMAT_VERSION, _Writer, read_manifest

BACKEND_HASH = [("row", 63), ("row", 128), ("column", 63)]


def _lake(seed: int, num_tables: int = 12):
    lake = generate_corpus(
        CorpusConfig(
            name=f"snap{seed}", num_tables=num_tables, min_rows=5, max_rows=20, seed=seed
        )
    )
    return lake


def _random_table(rng: random.Random, name: str) -> Table:
    rows = []
    for _ in range(rng.randint(3, 10)):
        rows.append(
            (
                f"k{rng.randint(0, 25)}",
                rng.choice([rng.randint(0, 40), rng.random() * 5, 0, 1, None]),
                rng.choice(["shared", True, False, None, f"tok{rng.randint(0, 9)}"]),
            )
        )
    return Table(name, ["key", "num", "extra"], rows)


def _query_seekers(lake):
    table = lake.by_id(lake.table_ids()[0])
    values = [v for v in table.column_values(table.columns[0]) if v is not None]
    seekers = {
        "SC": Seekers.SC(values[:8], k=10),
        "KW": Seekers.KW(values[:8], k=10),
    }
    wide = [r[:2] for r in table.rows if all(v is not None for v in r[:2])]
    if table.num_columns >= 2 and len(wide) >= 2:
        seekers["MC"] = Seekers.MC(wide[:6], k=10)
    flags = table.numeric_columns()
    if any(flags) and not all(flags):
        seekers["C"] = Seekers.Correlation(
            table.column_values(table.columns[flags.index(False)]),
            table.column_values(table.columns[flags.index(True)]),
            k=10,
            min_support=2,
        )
    return seekers


def _results(context, seekers):
    return {
        kind: [(hit.table_id, hit.score) for hit in seeker.execute(context)]
        for kind, seeker in seekers.items()
    }


def _column_storage_state(table: ColumnTable) -> list[tuple]:
    state = []
    for column in table._seal():
        state.append(
            (
                None if column.codes is None else (column.codes.dtype.str, column.codes.tolist()),
                None if column.dictionary is None else list(column.dictionary),
                None if column.data is None else (column.data.dtype.str, column.data.tolist()),
                None if column.null is None else np.asarray(column.null).tolist(),
            )
        )
    return state


def _index_state(db: Database, table_name: str, columns) -> dict:
    table = db.table(table_name)
    state = {}
    for column in columns:
        table.index_lookup(column, [])  # forces lazy materialisation
        postings = table._indexes[column.lower()]
        state[column] = {value: list(positions) for value, positions in postings.items()}
    return state


def _storage_identical(db_a: Database, db_b: Database, table_name: str) -> None:
    if isinstance(db_a.table(table_name), ColumnTable):
        assert _column_storage_state(db_a.table(table_name)) == _column_storage_state(
            db_b.table(table_name)
        )
    else:
        assert db_a.table(table_name)._rows == db_b.table(table_name)._rows
    assert _index_state(db_a, table_name, ["CellValue", "TableId"]) == _index_state(
        db_b, table_name, ["CellValue", "TableId"]
    )


# --------------------------------------------------------------------------
# Round-trip fidelity
# --------------------------------------------------------------------------


@pytest.mark.parametrize("backend,hash_size", BACKEND_HASH)
def test_round_trip_identical(backend, hash_size, tmp_path):
    """save -> load reproduces seeker results, stats, and storage bytes."""
    config = IndexConfig(hash_size=hash_size)
    blend = Blend(_lake(3), backend=backend, index_config=config)
    blend.build_index()
    blend.train_optimizer(samples_per_type=3, seed=1)

    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)

    seekers = _query_seekers(blend.lake)
    assert _results(blend.context(), seekers) == _results(loaded.context(), seekers)
    assert loaded.stats == lake_statistics(blend.lake)
    assert loaded.lake.generation == blend.lake.generation
    assert loaded.lake.table_ids() == blend.lake.table_ids()
    assert loaded.index_config == config
    _storage_identical(blend.db, loaded.db, "AllTables")
    # the trained cost model travelled with the snapshot
    assert loaded.optimizer.cost_model.snapshot_state() == (
        blend.optimizer.cost_model.snapshot_state()
    )
    # optimizer behaviour is identical on a representative plan
    plan_before = blend.plan_for(Plan().add("kw", seekers["KW"]))
    plan_after = loaded.plan_for(Plan().add("kw", seekers["KW"]))
    assert plan_before.order == plan_after.order


@pytest.mark.parametrize("backend,hash_size", BACKEND_HASH)
@pytest.mark.parametrize("seed", [17, 29])
def test_round_trip_then_mutate_matches_fresh_build(backend, hash_size, seed, tmp_path):
    """Randomized property: build -> save -> load -> random lifecycle ops
    -> parity with a from-scratch build of the final lake (the loaded
    system is a first-class deployment, not a read-only replica)."""
    rng = random.Random(seed * 31 + hash_size)
    config = IndexConfig(hash_size=hash_size)
    blend = Blend(_lake(seed), backend=backend, index_config=config)
    blend.build_index()

    path = blend.save(tmp_path / "snap")
    manifest_bytes = (Path(path) / "manifest.json").read_bytes()
    loaded = Blend.load(path)

    counter = 0
    for _ in range(8):
        live = loaded.lake.table_ids()
        op = rng.choice(["add", "remove", "replace"])
        if op == "add" or len(live) <= 4:
            counter += 1
            loaded.add_table(_random_table(rng, f"snapmut{counter}"))
        elif op == "remove":
            loaded.remove_table(rng.choice(live))
        else:
            counter += 1
            loaded.replace_table(rng.choice(live), _random_table(rng, f"snaprep{counter}"))

    fresh_db = Database(backend=backend)
    build_alltables(loaded.lake, fresh_db, config)
    fresh_context = SeekerContext(db=fresh_db, lake=loaded.lake, hash_size=hash_size)
    seekers = _query_seekers(loaded.lake)
    assert _results(loaded.context(), seekers) == _results(fresh_context, seekers)

    sql = "SELECT * FROM AllTables"
    assert sorted(loaded.db.execute(sql).rows) == sorted(fresh_db.execute(sql).rows)
    loaded.compact_index()
    assert loaded.db.execute(sql).rows == fresh_db.execute(sql).rows
    _storage_identical(loaded.db, fresh_db, "AllTables")
    assert loaded.stats == lake_statistics(loaded.lake)

    # Base + delta: all that mutation never wrote a byte to the snapshot.
    assert (Path(path) / "manifest.json").read_bytes() == manifest_bytes
    reloaded = Blend.load(path)
    original = Blend(_lake(seed), backend=backend, index_config=config)
    original.build_index()
    assert sorted(reloaded.db.execute(sql).rows) == sorted(original.db.execute(sql).rows)


def test_snapshot_preserves_lifecycle_state(tmp_path):
    """A mid-lifecycle deployment (holes, tombstones not yet compacted)
    snapshots and restores exactly -- including the tombstone mask."""
    lake = DataLake("life")
    for i in range(8):
        lake.add(Table(f"t{i}", ["a"], [(f"v{i}_{j}",) for j in range(6)]))
    blend = Blend(lake, backend="column")
    blend.build_index()
    storage = blend.db.table("AllTables")
    blend.remove_table(2)
    blend.remove_table(5)
    assert storage._deleted is not None

    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)
    assert loaded.lake.table_ids() == blend.lake.table_ids()
    # generation, per-slot stamps and slot shapes come back exactly
    assert loaded.lake.snapshot_meta() == blend.lake.snapshot_meta()
    loaded_storage = loaded.db.table("AllTables")
    assert loaded_storage._num_deleted == storage._num_deleted
    assert np.array_equal(loaded_storage._deleted, storage._deleted)
    sql = "SELECT * FROM AllTables"
    assert loaded.db.execute(sql).rows == blend.db.execute(sql).rows
    # ids keep never-reusing after load
    new_id = loaded.add_table(Table("fresh", ["a"], [("y",)]))
    assert new_id == 8


def _rewrite_payload(path: Path, rel: str, array: np.ndarray) -> None:
    """Replace one array payload AND its manifest size/CRC record, so the
    tampering passes the integrity gate and only a semantic check can
    catch it."""
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    payload = buffer.getvalue()
    (path / rel).write_bytes(payload)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["files"][rel] = {"bytes": len(payload), "crc32": zlib.crc32(payload)}
    (path / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("backend", ["row", "column"])
@pytest.mark.parametrize("tamper", ["short", "popcount", "dtype"])
def test_tombstone_mask_must_match_storage(backend, tamper, tmp_path):
    """A persisted tombstone mask that does not cover exactly the stored
    rows with exactly ``num_deleted`` flags set is refused by table name
    -- a shorter mask would otherwise drop tail rows from scans."""
    lake = DataLake("masks")
    for i in range(8):
        lake.add(Table(f"t{i}", ["a"], [(f"v{i}_{j}",) for j in range(6)]))
    blend = Blend(lake, backend=backend)
    blend.build_index()
    blend.remove_table(2)
    path = Path(blend.save(tmp_path / "snap"))
    meta = next(
        table
        for table in read_manifest(path)["tables"]
        if table["name"] == "AllTables"
    )
    mask = np.load(path / meta["deleted"])
    assert mask.sum() == meta["num_deleted"] == 6 and not mask[-1]
    if tamper == "short":
        mask = mask[:-1]  # same popcount, one stored row uncovered
    elif tamper == "popcount":
        mask = mask.copy()
        mask[-1] = True
    else:
        mask = mask.astype(np.int8)
    _rewrite_payload(path, meta["deleted"], mask)
    with pytest.raises(SnapshotError, match="tombstone mask") as excinfo:
        Blend.load(path)
    assert "AllTables" in str(excinfo.value)


def test_semantic_extension_round_trips(tmp_path):
    lake = _lake(7)
    blend = Blend(lake, backend="column", index_config=IndexConfig(semantic_dimensions=16))
    blend.build_index()
    blend.enable_semantic()
    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)
    probe = ["alpha", "beta"]
    assert loaded.discover(probe, "semantic", k=5).output.table_ids() == (
        blend.discover(probe, "semantic", k=5).output.table_ids()
    )
    assert loaded._semantic.snapshot_meta() == blend._semantic.snapshot_meta()


def test_semantic_config_flows_through_snapshot(tmp_path):
    """``IndexConfig(semantic=True)`` makes the vector extension part of
    the build contract: ``build_index`` constructs it, the manifest
    records it, and a load restores it without any ``enable_semantic``
    call -- identical to the explicitly-enabled deployment."""
    lake = _lake(19)
    config = IndexConfig(semantic=True, semantic_dimensions=16)
    blend = Blend(lake, backend="column", index_config=config)
    blend.build_index()
    assert blend._semantic is not None
    assert blend.db.has_table("AllVectors")

    explicit = Blend(
        _lake(19), backend="column", index_config=IndexConfig(semantic_dimensions=16)
    )
    explicit.build_index()
    explicit.enable_semantic()
    # enable_semantic back-fills the config, so both spellings converge.
    assert explicit.index_config.semantic is True
    assert explicit.index_config.semantic_dimensions == 16

    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)
    assert loaded.index_config == config
    probe = ["alpha", "beta"]
    assert (
        loaded.discover(probe, "semantic", k=5).output.table_ids()
        == blend.discover(probe, "semantic", k=5).output.table_ids()
        == explicit.discover(probe, "semantic", k=5).output.table_ids()
    )


@pytest.mark.parametrize("seed", [23, 41])
def test_semantic_delta_replay_matches_fresh_build(seed, tmp_path):
    """AllVectors is part of the base+delta lifecycle contract: mutations
    after load maintain the vector extension, an incremental save records
    them, and replaying the delta reproduces semantic results identical
    to a from-scratch build of the final lake."""
    rng = random.Random(seed)
    config = IndexConfig(semantic=True, semantic_dimensions=16)
    blend = Blend(_lake(seed), backend="column", index_config=config)
    blend.build_index()
    path = blend.save(tmp_path / "snap")

    loaded = Blend.load(path)
    counter = 0
    for _ in range(6):
        live = loaded.lake.table_ids()
        op = rng.choice(["add", "remove", "replace"])
        if op == "add" or len(live) <= 4:
            counter += 1
            loaded.add_table(_random_table(rng, f"semmut{counter}"))
        elif op == "remove":
            loaded.remove_table(rng.choice(live))
        else:
            counter += 1
            loaded.replace_table(rng.choice(live), _random_table(rng, f"semrep{counter}"))
    loaded.save(path)  # incremental: delta.json beside the base

    replayed = Blend.load(path)
    fresh = Blend(replayed.lake, backend="column", index_config=config)
    fresh.build_index()

    probe = ["shared", "tok3", "k7"]
    for deployment in (loaded, replayed):
        assert (
            deployment.discover(probe, modalities=("semantic",), k=6).table_ids()
            == fresh.discover(probe, modalities=("semantic",), k=6).table_ids()
        )
    # The persisted relation itself replayed to the same sparse rows.
    sql = "SELECT * FROM AllVectors"
    assert sorted(replayed.db.execute(sql).rows) == sorted(fresh.db.execute(sql).rows)
    # Compaction is semantic-neutral.
    before = replayed.discover(probe, modalities=("semantic",), k=6).table_ids()
    replayed.compact_index()
    assert (
        replayed.discover(probe, modalities=("semantic",), k=6).table_ids()
        == before
    )


def test_allvectors_payload_corruption_names_file(tmp_path):
    """The AllVectors relation rides the same size+CRC gate as every
    other snapshot payload: a same-size bit flip in a vector payload is
    refused by file name, never loaded into silently-wrong similarity."""
    config = IndexConfig(semantic=True, semantic_dimensions=16)
    blend = Blend(_lake(31), backend="column", index_config=config)
    blend.build_index()
    path = Path(blend.save(tmp_path / "snap"))

    manifest = json.loads((path / "manifest.json").read_text())
    vectors_meta = next(
        meta for meta in manifest["tables"] if meta["name"] == "AllVectors"
    )
    rel = next(
        column_meta[key]
        for column_meta in vectors_meta["payload"]
        for key in ("data", "codes")
        if key in column_meta
    )
    target = path / rel
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="checksum mismatch") as excinfo:
        Blend.load(path)
    assert rel in str(excinfo.value)


def test_shuffled_config_round_trips(tmp_path):
    config = IndexConfig(shuffle_rows=True, shuffle_seed=9)
    blend = Blend(_lake(11), backend="column", index_config=config)
    blend.build_index()
    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)
    assert loaded.index_config == config
    sql = "SELECT * FROM AllTables"
    assert loaded.db.execute(sql).rows == blend.db.execute(sql).rows
    # maintenance on the loaded shuffled deployment still matches rebuild
    loaded.add_table(Table("shufadd", ["a"], [(f"s{i}",) for i in range(7)]))
    fresh = Database(backend="column")
    build_alltables(loaded.lake, fresh, config)
    assert sorted(loaded.db.execute(sql).rows) == sorted(fresh.execute(sql).rows)


# --------------------------------------------------------------------------
# Failure modes: every bad snapshot names its offending file
# --------------------------------------------------------------------------


@pytest.fixture()
def saved(tmp_path):
    blend = Blend(_lake(13), backend="column")
    blend.build_index()
    path = Path(blend.save(tmp_path / "snap"))
    return blend, path


def _payload_named(path: Path, suffix: str) -> str:
    manifest = json.loads((path / "manifest.json").read_text())
    return next(rel for rel in manifest["files"] if rel.endswith(suffix))


def test_missing_manifest_refused(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(SnapshotError, match="manifest.json"):
        Blend.load(tmp_path / "empty")


def test_truncated_payload_names_file(saved):
    _, path = saved
    rel = _payload_named(path, ".codes.npy")
    target = path / rel
    target.write_bytes(target.read_bytes()[:-7])
    with pytest.raises(SnapshotError, match="truncated") as excinfo:
        Blend.load(path)
    assert rel in str(excinfo.value)


def test_missing_payload_names_file(saved):
    _, path = saved
    rel = _payload_named(path, ".null.npy")
    (path / rel).unlink()
    with pytest.raises(SnapshotError, match="missing") as excinfo:
        Blend.load(path)
    assert rel in str(excinfo.value)


def test_legacy_stats_payload_is_checked_but_ignored(saved):
    """Snapshots written before statistics were derived from AllTables
    carry a ``stats/*`` frequency table. They still load -- the entry is
    ignored and statistics derive from the loaded AllTables -- and the
    payloads stay under the size / CRC gate like any listed file."""
    blend, path = saved
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["stats"] is None
    assert not any(rel.startswith("stats/") for rel in manifest["files"])
    legacy = _Writer(path)
    legacy.save_text("stats/tokens", ["bogus"])
    legacy.save_array("stats/counts.npy", np.array([999], dtype=np.int64))
    manifest["files"].update(legacy.files)
    manifest["stats"] = {
        "num_tables": 1,
        "num_cells": 999,
        "num_columns": 1,
        "num_rows": 1,
        "tokens": "stats/tokens",
        "counts": "stats/counts.npy",
    }
    (path / "manifest.json").write_text(json.dumps(manifest))
    assert Blend.load(path).stats == blend.stats == lake_statistics(blend.lake)
    target = path / "stats/counts.npy"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="checksum mismatch") as excinfo:
        Blend.load(path)
    assert "counts.npy" in str(excinfo.value)


def test_checksum_mismatch_names_file(saved):
    """A same-size bit flip -- invisible to the size check -- fails the
    CRC verification instead of loading into garbage."""
    _, path = saved
    rel = _payload_named(path, ".data.npy")
    target = path / rel
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="checksum mismatch") as excinfo:
        Blend.load(path)
    assert rel in str(excinfo.value)


def test_delisted_payload_refused(saved):
    """Removing a payload's manifest entry must not smuggle it past the
    size/CRC gate: unlisted files are refused, not loaded unverified."""
    _, path = saved
    rel = _payload_named(path, ".codes.npy")
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest["files"][rel]
    (path / "manifest.json").write_text(json.dumps(manifest))
    target = path / rel
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0xFF  # same-size corruption the delisting would have hidden
    target.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="not listed") as excinfo:
        Blend.load(path)
    assert rel in str(excinfo.value)


def test_version_bump_refused(saved):
    _, path = saved
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="format version") as excinfo:
        Blend.load(path)
    assert "manifest.json" in str(excinfo.value)


def test_manifest_garbage_refused(saved):
    _, path = saved
    (path / "manifest.json").write_text("{not json")
    with pytest.raises(SnapshotError, match="manifest"):
        Blend.load(path)


def test_backend_mismatch_refused(saved):
    _, path = saved
    with pytest.raises(SnapshotError, match="backend mismatch"):
        Blend.load(path, backend="row")


def test_inconsistent_manifest_hash_width_refused(saved):
    """A (tampered) manifest claiming 128-bit keys in a column-backend
    snapshot is structurally impossible and refused outright."""
    _, path = saved
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["index_config"]["hash_size"] = 128
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="cannot exist"):
        Blend.load(path)


def test_metadata_only_manifest_refused(saved):
    """A manifest whose lake entry records no payload (the metadata-only
    shape earlier builds could write) is refused by name: every snapshot
    carries its own lake."""
    _, path = saved
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["lake"]["payload"] = None
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="no lake payload") as excinfo:
        Blend.load(path)
    assert "manifest.json" in str(excinfo.value)


@pytest.mark.parametrize("stamps", ["missing", "short", "long"])
def test_slot_generations_must_cover_every_slot(saved, stamps):
    """The per-slot generation stamps the delta layer diffs against are
    part of the v2 manifest; missing or misaligned ones are refused, not
    silently replaced by zeros."""
    _, path = saved
    manifest = json.loads((path / "manifest.json").read_text())
    recorded = manifest["lake"].pop("slot_generations")
    if stamps != "missing":
        manifest["lake"]["slot_generations"] = (
            recorded[:-1] if stamps == "short" else recorded + [0]
        )
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="slot_generations") as excinfo:
        Blend.load(path)
    assert "manifest.json" in str(excinfo.value)


class _Plant:
    """Unpickling this calls ``open(marker, "w")``: the code a tampered
    payload would run if the loader resolved globals."""

    def __init__(self, marker: Path) -> None:
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


def plant_global_pickle(root: Path, manifest_name: str, rel: str, marker: Path) -> None:
    """Overwrite payload *rel* under *root* with a pickle that creates
    *marker* when loaded, and record its size and CRC in *manifest_name*
    -- what anyone who can write the snapshot directory can do."""
    raw = pickle.dumps(_Plant(marker), protocol=4)
    (root / rel).write_bytes(raw)
    manifest = json.loads((root / manifest_name).read_text())
    manifest["files"][rel] = {"bytes": len(raw), "crc32": zlib.crc32(raw)}
    (root / manifest_name).write_text(json.dumps(manifest))


@pytest.mark.parametrize("payload", ["lake.pkl", "rows.pkl", "delta"])
def test_payload_pickle_naming_a_global_is_refused(payload, tmp_path):
    """Every pickled payload (the lake, a row-store table, a delta table)
    is read without resolving globals: a planted ``__reduce__`` payload
    with a valid size and CRC fails the load and never runs."""
    backend = "row" if payload == "rows.pkl" else "column"
    blend = Blend(_lake(13, num_tables=4), backend=backend)
    blend.build_index()
    path = Path(blend.save(tmp_path / "snap"))
    manifest_name, rel = "manifest.json", payload
    if payload == "delta":
        loaded = Blend.load(path)
        loaded.add_table(Table("late", ["a"], [("v",)]))
        loaded.save(path)
        manifest_name, rel = "delta.json", _delta_payload(path)
    elif payload == "rows.pkl":
        rel = _payload_named(path, "rows.pkl")
    marker = tmp_path / "marker"
    plant_global_pickle(path, manifest_name, rel, marker)
    with pytest.raises(SnapshotError, match="refused") as excinfo:
        Blend.load(path)
    assert rel in str(excinfo.value)
    assert not marker.exists()
    pickle.loads((path / rel).read_bytes()).close()  # the planted payload is live
    assert marker.exists()


def test_save_refuses_a_cell_no_load_could_read(tmp_path):
    """Payload pickles hold plain cells only; a lake cell of another type
    fails the save by name instead of writing a snapshot no load accepts."""
    lake = DataLake("exotic")
    lake.add(Table("t", ["a"], [(Decimal("2.5"),), ("x",)]))
    blend = Blend(lake, backend="column")
    blend.build_index()
    with pytest.raises(SnapshotError, match="Decimal"):
        blend.save(tmp_path / "snap")
    assert not (tmp_path / "snap").exists()  # left as found: a retry may reuse the path


def test_manifest_with_retired_config_keys_loads(saved):
    """Snapshots written before the build pipelines were collapsed carry
    retired keys in their manifest's ``index_config`` (``vectorized`` /
    ``pin_workers``; ``workers`` and the two index switches, as every
    snapshot up to PR 17 wrote them; ``table_name``, always
    ``"AllTables"``, until the relation stopped being a setting); they
    still load, the keys ignored."""
    blend, path = saved
    manifest = json.loads((path / "manifest.json").read_text())
    assert "table_name" not in manifest["index_config"]
    manifest["index_config"].update(
        {
            "table_name": "AllTables",
            "vectorized": True,
            "pin_workers": False,
            "workers": None,
            "build_value_index": True,
            "build_table_index": True,
        }
    )
    (path / "manifest.json").write_text(json.dumps(manifest))
    loaded = Blend.load(path)
    assert loaded.index_config == blend.index_config
    sql = "SELECT * FROM AllTables"
    assert loaded.db.execute(sql).rows == blend.db.execute(sql).rows
    for column in ("CellValue", "TableId"):
        assert loaded.db.table("AllTables").has_index(column)
        assert blend.db.table("AllTables").has_index(column)
    seekers = _query_seekers(blend.lake)
    assert _results(loaded.context(), seekers) == _results(blend.context(), seekers)


def test_manifest_naming_another_relation_refused(saved):
    """A manifest whose index relation is not ``AllTables`` describes a
    database no seeker could read: the load refuses it by name."""
    _, path = saved
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["index_config"]["table_name"] = "OtherTables"
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="manifest.json.*'OtherTables'"):
        Blend.load(path)


@pytest.mark.parametrize("target", ["absent", "nested", "empty", "overwrite"])
def test_failed_save_leaves_the_target_as_found(tmp_path, monkeypatch, target):
    """A full save that raises after its first payload removes exactly what
    it created (the target and its missing parents, the files in an empty
    target, an overwrite's staging directory), so a retry succeeds."""
    import repro.snapshot as snapshot

    blend = Blend(_lake(29), backend="column")
    blend.build_index()
    path = tmp_path / "outer" / "snap" if target == "nested" else tmp_path / "snap"
    if target == "empty":
        path.mkdir()
    if target == "overwrite":
        blend.save(path)

    def listing():
        return sorted((str(p.relative_to(tmp_path)), p.stat().st_size) for p in tmp_path.rglob("*"))

    def failing(writer, prefix, storage):
        assert (writer.root / "lake.pkl").exists()  # the lake payload landed first
        raise OSError("disk full")

    before = listing()
    monkeypatch.setattr(snapshot, "_save_column_table", failing)
    with pytest.raises(OSError, match="disk full"):
        blend.save(path, overwrite=True, incremental="never")
    assert listing() == before
    monkeypatch.undo()
    loaded = Blend.load(blend.save(path, overwrite=True, incremental="never"))
    seekers = _query_seekers(blend.lake)
    assert _results(loaded.context(), seekers) == _results(blend.context(), seekers)


# --------------------------------------------------------------------------
# Delta-layer corruption: crash recovery never loses the base
# --------------------------------------------------------------------------


@pytest.fixture()
def saved_delta(saved):
    """A base snapshot with one incremental save on top of it."""
    blend, path = saved
    loaded = Blend.load(path)
    loaded.add_table(Table("fresh_delta", ["a"], [(f"d{i}",) for i in range(5)]))
    loaded.remove_table(loaded.lake.table_ids()[0])
    loaded.save(path)
    return loaded, path


def _delta_payload(path: Path) -> str:
    delta = json.loads((path / "delta.json").read_text())
    return next(rel for rel in delta["files"] if rel.endswith(".pkl"))


def test_truncated_delta_payload_names_file_and_base_survives(saved_delta):
    _, path = saved_delta
    rel = _delta_payload(path)
    target = path / rel
    target.write_bytes(target.read_bytes()[:-5])
    with pytest.raises(SnapshotError, match="truncated") as excinfo:
        Blend.load(path)
    assert rel in str(excinfo.value)
    base = Blend.load(path, delta=False)  # crash recovery: base intact
    assert "fresh_delta" not in base.lake


def test_bitflipped_delta_payload_names_file_and_base_survives(saved_delta):
    _, path = saved_delta
    rel = _delta_payload(path)
    target = path / rel
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="checksum mismatch") as excinfo:
        Blend.load(path)
    assert rel in str(excinfo.value)
    Blend.load(path, delta=False)


def test_missing_delta_payload_names_file_and_base_survives(saved_delta):
    _, path = saved_delta
    rel = _delta_payload(path)
    (path / rel).unlink()
    with pytest.raises(SnapshotError, match="missing") as excinfo:
        Blend.load(path)
    assert rel in str(excinfo.value)
    Blend.load(path, delta=False)


def test_half_written_delta_manifest_refused_and_base_survives(saved_delta):
    """A torn delta.json (the crash the write-to-temp + rename protocol
    prevents, simulated anyway) is refused by name, never half-replayed."""
    _, path = saved_delta
    target = path / "delta.json"
    target.write_text(target.read_text()[: len(target.read_text()) // 2])
    with pytest.raises(SnapshotError, match="delta.json"):
        Blend.load(path)
    Blend.load(path, delta=False)


def test_delta_version_bump_refused(saved_delta):
    _, path = saved_delta
    delta = json.loads((path / "delta.json").read_text())
    delta["format_version"] += 1
    (path / "delta.json").write_text(json.dumps(delta))
    with pytest.raises(SnapshotError, match="delta format version") as excinfo:
        Blend.load(path)
    assert "delta.json" in str(excinfo.value)
    Blend.load(path, delta=False)


def test_delta_base_id_mismatch_refused(saved_delta):
    """A delta.json copied beside a different base must never replay --
    its ops were diffed against another snapshot's slots."""
    _, path = saved_delta
    delta = json.loads((path / "delta.json").read_text())
    delta["base_id"] = "0" * 16
    (path / "delta.json").write_text(json.dumps(delta))
    with pytest.raises(SnapshotError, match="written against base snapshot"):
        Blend.load(path)
    Blend.load(path, delta=False)


def test_malformed_delta_op_refused(saved_delta):
    _, path = saved_delta
    delta = json.loads((path / "delta.json").read_text())
    delta["ops"].append({"op": "explode", "table_id": 3})
    (path / "delta.json").write_text(json.dumps(delta))
    with pytest.raises(SnapshotError, match="malformed op"):
        Blend.load(path)
    Blend.load(path, delta=False)


@pytest.mark.parametrize("generation", ["x", None, True, -1])
def test_bad_delta_generation_refused_before_replay(saved_delta, generation, monkeypatch):
    """The delta's lake generation must be an integer no lower than the
    base's; anything else is refused by name before a single op runs."""
    _, path = saved_delta
    delta = json.loads((path / "delta.json").read_text())
    delta["generation"] = generation
    (path / "delta.json").write_text(json.dumps(delta))
    replayed = []
    monkeypatch.setattr(
        Blend, "remove_table", lambda self, table_id: replayed.append(table_id)
    )
    with pytest.raises(SnapshotError, match="generation") as excinfo:
        Blend.load(path)
    assert "delta.json" in str(excinfo.value)
    assert replayed == []
    monkeypatch.undo()
    Blend.load(path, delta=False)


def test_dangling_delta_op_refused(saved_delta):
    """Structurally valid ops that don't fit the base (removing a slot
    that is already a hole) fail the load as a delta error, not as an
    internal lake crash."""
    _, path = saved_delta
    delta = json.loads((path / "delta.json").read_text())
    removed = next(op["table_id"] for op in delta["ops"] if op["op"] == "remove")
    delta["ops"].append({"op": "remove", "table_id": removed})
    (path / "delta.json").write_text(json.dumps(delta))
    with pytest.raises(SnapshotError, match="cannot replay"):
        Blend.load(path)
    Blend.load(path, delta=False)


def test_save_refuses_non_empty_directory(saved, tmp_path):
    """A full save into a populated directory that is NOT this
    deployment's base refuses rather than risk a torn overwrite (the
    base itself gets an incremental save instead -- see the delta
    tests)."""
    blend, path = saved
    other = tmp_path / "occupied"
    other.mkdir()
    (other / "precious.txt").write_text("do not clobber")
    with pytest.raises(SnapshotError, match="non-empty"):
        blend.save(other)
    assert (other / "precious.txt").read_text() == "do not clobber"


def test_save_requires_built_index(tmp_path):
    blend = Blend(_lake(2), backend="column")
    with pytest.raises(SnapshotError, match="build_index"):
        blend.save(tmp_path / "nope")


def test_read_manifest_reports_files(saved):
    """read_manifest is the cheap inspection path: version-checked
    structure with per-file size + CRC records."""
    _, path = saved
    manifest = read_manifest(path)
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["backend"] == "column"
    for record in manifest["files"].values():
        assert set(record) == {"bytes", "crc32"}
    rel, record = next(iter(manifest["files"].items()))
    assert record["crc32"] == zlib.crc32((path / rel).read_bytes())
