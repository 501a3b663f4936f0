#!/usr/bin/env python
"""Cross-version snapshot compatibility driver (the CI matrix job).

A snapshot written by one Python version must load -- and serve
identical results -- on another: CI builds + saves on py3.10, uploads
the directory as a workflow artifact, downloads it on py3.12 and
verifies (and the reverse). The lake is regenerated deterministically
from the seed on BOTH sides, so verification compares the loaded
deployment against a fresh in-memory build of the *same* corpus on the
*loading* interpreter: any drift in the on-disk format, pickle payloads,
numpy serialisation, or hashing across versions surfaces as a hard
failure here.

Usage::

    PYTHONPATH=src python benchmarks/snapshot_compat.py --save DIR
    PYTHONPATH=src python benchmarks/snapshot_compat.py --load DIR

Both commands cover both storage backends (``DIR/column``, ``DIR/row``).
The saved directories are **base+delta**: the saver loads its own base
back, applies a deterministic mutation batch, and persists it with an
incremental ``save_delta`` -- so the artifact round-trips the streaming
ingest layer (``delta.json`` + payloads) across interpreters, not just
the base manifest. ``--load`` additionally exercises the post-load
lifecycle (mutate, then rebuild parity), bare-base recovery
(``delta=False``), and the failure paths (a truncated payload -- base or
delta -- must raise ``SnapshotError``). Exit code 0 = verified.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Blend, Database, Seekers, Table  # noqa: E402
from repro.errors import SnapshotError  # noqa: E402
from repro.index import IndexConfig, build_alltables  # noqa: E402
from repro.lake.generators import CorpusConfig, generate_corpus  # noqa: E402

DEFAULT_SEED = 71
DEFAULT_SCALE = 0.25
BACKENDS = ("column", "row")
# The artifact ships the vector extension: AllVectors payloads and the
# manifest's semantic parameters must survive the interpreter hop too.
INDEX_CONFIG = IndexConfig(semantic=True, semantic_dimensions=16)
SEMANTIC_PROBE = ["compat", "probe", "token"]


def _semantic_results(blend: Blend) -> list[int]:
    """The semantic ranking (an exact scan over the stored vectors)."""
    return blend.discover(SEMANTIC_PROBE, modalities=("semantic",), k=8).table_ids()


def _seeker_results(blend: Blend) -> dict:
    """One ranked result list per seeker template (SC, KW and, when the
    first table is wide enough, MC) over the first live table's values."""
    table = blend.lake.by_id(blend.lake.table_ids()[0])
    values = [v for v in table.column_values(table.columns[0]) if v is not None]
    seekers = {
        "SC": Seekers.SC(values[:8], k=10),
        "KW": Seekers.KW(values[:8], k=10),
    }
    wide = [r[:2] for r in table.rows if all(v is not None for v in r[:2])]
    if table.num_columns >= 2 and len(wide) >= 2:
        seekers["MC"] = Seekers.MC(wide[:6], k=10)
    context = blend.context()
    return {
        kind: [(hit.table_id, hit.score) for hit in seeker.execute(context)]
        for kind, seeker in seekers.items()
    }


def _assert_lifecycle_rebuild_parity(loaded: Blend, backend: str) -> None:
    """Mutate a loaded deployment (add + remove) and assert its index
    equals a from-scratch build of the final lake. Mutations land in the
    delta layer and never write to the base, which stays a read-only
    mmap of the snapshot files until a compaction replaces it."""
    sql = "SELECT * FROM AllTables"
    loaded.add_table(
        Table("snap_check_add", ["a", "b"], [(f"v{i}", i) for i in range(6)])
    )
    loaded.remove_table(loaded.lake.table_ids()[0])
    fresh = Database(backend=backend)
    build_alltables(loaded.lake, fresh, loaded.index_config)
    if sorted(loaded.db.execute(sql).rows) != sorted(fresh.execute(sql).rows):
        raise AssertionError(f"[{backend}] post-load lifecycle diverges from rebuild")


def _lake(seed: int, scale: float):
    config = CorpusConfig(
        name="compat",
        num_tables=max(2, int(200 * scale)),
        min_rows=max(2, int(100 * scale)),
        max_rows=max(4, int(400 * scale)),
        seed=seed,
    )
    lake = generate_corpus(config)
    for table in lake:
        table.numeric_columns()
    return lake


def _mutate_for_delta(blend: Blend) -> None:
    """The deterministic mutation batch both sides apply: the saver
    persists it as the artifact's delta layer, the loader replays it
    through the in-memory reference."""
    blend.add_table(
        Table(
            "compat_delta",
            ["key", "val"],
            [(f"dk{i}", f"dv{i % 3}") for i in range(9)],
        )
    )
    live = blend.lake.table_ids()
    blend.remove_table(live[0])
    blend.replace_table(
        live[1],
        Table("compat_swap", ["key", "val"], [(f"rk{i}", f"rv{i}") for i in range(5)]),
    )


def save(root: Path, seed: int, scale: float) -> int:
    root.mkdir(parents=True, exist_ok=True)
    for backend in BACKENDS:
        blend = Blend(_lake(seed, scale), backend=backend, index_config=INDEX_CONFIG)
        blend.build_index()
        blend.train_optimizer(samples_per_type=3, seed=seed)
        path = blend.save(root / backend)
        # Ship a delta layer on top of the base: load the base back,
        # mutate, persist incrementally.
        loaded = Blend.load(path)
        _mutate_for_delta(loaded)
        loaded.save_delta()
        print(f"[save] {backend}: {path} +delta ({sys.version_info.major}."
              f"{sys.version_info.minor}, {platform.machine()})")
    (root / "meta.json").write_text(
        json.dumps(
            {
                "seed": seed,
                "scale": scale,
                "python": platform.python_version(),
            }
        )
    )
    return 0


def load(root: Path) -> int:
    meta = json.loads((root / "meta.json").read_text())
    seed, scale = meta["seed"], meta["scale"]
    print(
        f"[load] verifying snapshot saved on py{meta['python']} "
        f"under py{platform.python_version()}"
    )
    sql = "SELECT * FROM AllTables"
    for backend in BACKENDS:
        lake = _lake(seed, scale)
        base_reference = Blend(lake, backend=backend, index_config=INDEX_CONFIG)
        base_reference.build_index()
        base_results = _seeker_results(base_reference)

        # Bare base first: delta=False must reproduce the pre-mutation
        # build without reading a byte of the delta layer.
        bare = Blend.load(root / backend, backend=backend, delta=False)
        if _seeker_results(bare) != base_results:
            raise AssertionError(f"[{backend}] cross-version base results diverge")
        if _semantic_results(bare) != _semantic_results(base_reference):
            raise AssertionError(f"[{backend}] cross-version semantic base diverges")
        if bare.db.execute(sql).rows != base_reference.db.execute(sql).rows:
            raise AssertionError(f"[{backend}] cross-version base rows diverge")

        # Full load replays the artifact's delta layer; the reference
        # applies the same mutation batch through the in-memory lifecycle.
        reference = base_reference
        _mutate_for_delta(reference)
        loaded = Blend.load(root / backend, backend=backend)
        if _seeker_results(loaded) != _seeker_results(reference):
            raise AssertionError(f"[{backend}] cross-version seeker results diverge")
        if sorted(loaded.db.execute(sql).rows) != sorted(reference.db.execute(sql).rows):
            raise AssertionError(f"[{backend}] cross-version AllTables rows diverge")
        if loaded.stats != reference.stats:
            raise AssertionError(f"[{backend}] cross-version statistics diverge")
        # The delta replay maintained the vector extension too.
        if _semantic_results(loaded) != _semantic_results(reference):
            raise AssertionError(f"[{backend}] cross-version semantic results diverge")
        vec_sql = "SELECT * FROM AllVectors"
        if sorted(loaded.db.execute(vec_sql).rows) != sorted(
            reference.db.execute(vec_sql).rows
        ):
            raise AssertionError(f"[{backend}] cross-version AllVectors rows diverge")
        if not loaded.optimizer.cost_model.is_trained():
            raise AssertionError(f"[{backend}] trained cost model lost in transit")
        loaded.compact_index()
        reference.compact_index()
        if loaded.db.execute(sql).rows != reference.db.execute(sql).rows:
            raise AssertionError(f"[{backend}] compacted base+delta rows diverge")

        # The loaded deployment is first-class: mutate, then rebuild parity.
        _assert_lifecycle_rebuild_parity(loaded, backend)
        print(f"[load] {backend}: OK ({len(reference.db.execute(sql).rows)} index rows)")

    # Corruption must fail loudly, on this interpreter too -- in the base
    # payloads and in the delta layer alike.
    manifest = json.loads((root / BACKENDS[0] / "manifest.json").read_text())
    victim = root / BACKENDS[0] / next(
        rel for rel in manifest["files"] if rel.endswith(".npy")
    )
    payload = victim.read_bytes()
    victim.write_bytes(payload[: len(payload) - 5])
    try:
        Blend.load(root / BACKENDS[0])
    except SnapshotError as exc:
        print(f"[load] truncation refused as expected: {str(exc)[:88]}")
    else:
        raise AssertionError("truncated snapshot loaded without error")
    finally:
        victim.write_bytes(payload)

    # ... including in the vector extension's own payloads.
    vectors_meta = next(
        meta for meta in manifest["tables"] if meta["name"] == "AllVectors"
    )
    rel = next(
        column_meta[key]
        for column_meta in vectors_meta["payload"]
        for key in ("data", "codes")
        if key in column_meta
    )
    victim = root / BACKENDS[0] / rel
    payload = victim.read_bytes()
    victim.write_bytes(payload[: len(payload) - 5])
    try:
        Blend.load(root / BACKENDS[0])
    except SnapshotError as exc:
        print(f"[load] AllVectors truncation refused as expected: {str(exc)[:70]}")
    else:
        raise AssertionError("truncated AllVectors payload loaded without error")
    finally:
        victim.write_bytes(payload)

    delta_manifest = json.loads((root / BACKENDS[0] / "delta.json").read_text())
    victim = root / BACKENDS[0] / next(iter(delta_manifest["files"]))
    payload = victim.read_bytes()
    victim.write_bytes(payload[: len(payload) - 5])
    try:
        Blend.load(root / BACKENDS[0])
    except SnapshotError as exc:
        print(f"[load] delta truncation refused as expected: {str(exc)[:80]}")
    else:
        raise AssertionError("truncated delta loaded without error")
    finally:
        victim.write_bytes(payload)
    Blend.load(root / BACKENDS[0], delta=False)  # base survives a dead delta
    print("[load] cross-version snapshot compatibility verified (base + delta)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--save", type=Path, metavar="DIR")
    group.add_argument("--load", type=Path, metavar="DIR")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    args = parser.parse_args(argv)
    if args.save is not None:
        return save(args.save, args.seed, args.scale)
    return load(args.load)


if __name__ == "__main__":
    raise SystemExit(main())
