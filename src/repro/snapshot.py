"""Persistent index snapshots: versioned save/load with mmap warm start.

BLEND's offline phase is expensive by design -- one comprehensive
``AllTables`` build over the whole lake -- and the online phase is meant
to serve from it indefinitely (paper §V). This module makes that split
operational: :meth:`repro.Blend.save` persists the *entire built system*
into a directory, and :meth:`repro.Blend.load` restores it in
milliseconds, so serving processes warm-start from disk instead of
re-running the build (N workers can mmap one shared snapshot).

On-disk layout (all paths relative to the snapshot directory)::

    manifest.json             format version, backend, index config, lake
                              metadata (stable ids incl. removal holes),
                              cost-model weights, semantic parameters,
                              per-file sizes+CRCs
    tables/t<k>/c<i>.*.npy    column backend: one raw ``.npy`` per sealed
                              array (int32 text codes, int64/float64
                              data, bool null masks) plus each text
                              dictionary as an offsets+UTF-8-blob pair
    tables/t<k>/rows.pkl      row backend: the stored tuples as one
                              pickle stream (exact round-trip for every
                              cell, arbitrary-precision ints included)
    tables/t<k>/deleted.npy   tombstone mask, present only mid-lifecycle
    stats/*                   older snapshots only: a per-token frequency
                              table, size- and CRC-checked but ignored
                              (statistics derive from ``AllTables``)
    lake.pkl                  the lake's cell payload (class-free
                              ``(name, columns, rows)`` tuples per slot)

Numeric payloads load via ``np.load(mmap_mode="r")``: warm start is
I/O-bound, not compute-bound, and the arrays are each table's base:
read-only views over the snapshot files until an explicit compaction --
a loaded deployment's mutations land in the storage layer's delta
segments, never in the base arrays, so N serving workers keep sharing
one snapshot through an arbitrary lifecycle.

**Incremental persistence** builds on that split: a deployment loaded
from a snapshot records its base identity (:class:`SnapshotBase`), and
:func:`save_blend_delta` persists only the lake slots that changed since
-- a ``delta.json`` manifest (written atomically; the previous delta
stays valid on a crash) plus one class-free table payload per changed
slot under ``delta/``, all CRC-recorded like base payloads. Loading a
base+delta directory replays the recorded ops through the ordinary
lifecycle (removals first, then adds ascending by id), which converges
to the mutated lake exactly; ``load(..., delta=False)`` ignores the
delta layer, so a corrupt delta never takes the base down with it. A
compactor (:mod:`repro.serving.compaction`) folds base+delta into a
fresh full snapshot -- the next base generation.

Every snapshot is self-contained: it carries its lake's cells, and a
load is validated only against what the snapshot itself records.

Versioning policy: ``FORMAT_VERSION`` bumps on any layout change (v2:
``snapshot_id`` + per-slot lake generations, required by the delta
layer); a loader only accepts its own version (no silent migrations --
rebuild or re-save). Every load checks every payload's size and CRC-32
before reading a byte of it, and unpickles with no globals at all (the
pickled payloads are plain tuples and lists of ``str`` / ``int`` /
``float`` / ``bool`` / ``None``), so a tampered directory cannot run
code. Truncation, corruption, a global in a pickle or a version/backend
mismatch raise :class:`~repro.errors.SnapshotError` naming the offending
file -- a bad snapshot must never load into garbage results.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import shutil
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .engine.database import Database
from .engine.storage.catalog import ColumnDef, TableSchema
from .engine.storage.column_store import ColumnTable, _ColumnData
from .engine.storage.row_store import RowTable
from .engine.types import SqlType
from .errors import LakeError, SnapshotError
from .index.alltables import ALLTABLES, IndexConfig
from .lake.datalake import DataLake
from .lake.table import Table

FORMAT_NAME = "blend-snapshot"
FORMAT_VERSION = 2

SHARD_FORMAT_NAME = "blend-shards"
SHARD_FORMAT_VERSION = 1

DELTA_FORMAT_NAME = "blend-delta"
DELTA_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_SHARD_MANIFEST = "shards.json"
_DELTA_MANIFEST = "delta.json"
_DELTA_DIR = "delta"
_CRC_CHUNK = 1 << 20


@dataclass(frozen=True)
class SnapshotBase:
    """Identity of the base snapshot a deployment was loaded from -- what
    the incremental save path diffs the live lake against."""

    path: str
    snapshot_id: str
    generation: int
    live_slots: tuple[bool, ...]


def _snapshot_id(files: dict) -> str:
    """Deterministic identity of a snapshot's payload set (the sizes and
    CRCs of every file) -- what ties a delta segment to its base."""
    digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------
# Payload I/O: every file goes through these two, so size + CRC accounting
# and SnapshotError attribution stay in one place.
# --------------------------------------------------------------------------


class _Writer:
    """Writes payload files under the snapshot root, recording each
    file's byte size and CRC-32 for the manifest."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.files: dict[str, dict[str, int]] = {}

    def _record(self, rel: str, payload: bytes) -> None:
        target = self.root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(payload)
        self.files[rel] = {"bytes": len(payload), "crc32": zlib.crc32(payload)}

    def save_array(self, rel: str, array: np.ndarray) -> str:
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
        self._record(rel, buffer.getvalue())
        return rel

    def save_text(self, rel_base: str, values) -> str:
        """An object array (or list) of ``str`` as two raw ``.npy``
        payloads: per-string UTF-8 byte lengths plus one byte blob --
        both plain dtypes, unlike the object array itself."""
        encoded = [value.encode("utf-8") for value in values]
        lengths = np.fromiter(
            (len(piece) for piece in encoded), dtype=np.int64, count=len(encoded)
        )
        blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        self.save_array(rel_base + ".lens.npy", lengths)
        self.save_array(rel_base + ".blob.npy", blob)
        return rel_base

    def save_pickle(self, rel: str, obj) -> str:
        buffer = io.BytesIO()
        _PlainPickler(buffer, protocol=4).dump(obj)
        self._record(rel, buffer.getvalue())
        return rel


class _PlainPickler(pickle.Pickler):
    """Writes only what :class:`_PlainUnpickler` reads back. The C
    pickler encodes ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes`` and plain tuples, lists, dicts and sets itself and hands
    every other object to this hook, which refuses it: a snapshot that
    could not load is never written."""

    def reducer_override(self, obj):
        raise SnapshotError(
            f"cannot snapshot a {type(obj).__name__} value: snapshot payloads "
            "hold str, int, float, bool and None cells only"
        )


class _PlainUnpickler(pickle.Unpickler):
    """Reads a payload pickle without resolving a single global, so no
    class is built and no callable runs, whatever the file holds."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"global {module}.{name} refused")


class _Reader:
    """Loads payload files, enforcing the manifest's size and CRC-32
    records before any bytes are interpreted."""

    def __init__(self, root: Path, files: dict) -> None:
        self.root = root
        self.files = files

    def check_all(self) -> None:
        """Fail fast on the first missing, truncated, or corrupted
        payload -- before any array is handed to a consumer."""
        for rel in self.files:
            self._check(rel)

    def _require_listed(self, rel: str) -> None:
        """Refuse payload paths the manifest does not account for: an
        unlisted file would bypass the size/CRC gate entirely (a
        tampered manifest must not smuggle unverified bytes in)."""
        if rel not in self.files:
            raise SnapshotError(
                f"snapshot payload {rel!r} is not listed in {_MANIFEST}"
            )

    def _check(self, rel: str) -> Path:
        self._require_listed(rel)
        expected = self.files[rel]
        target = self.root / rel
        if not target.is_file():
            raise SnapshotError(f"snapshot payload missing: {target}")
        size = target.stat().st_size
        if size != expected["bytes"]:
            raise SnapshotError(
                f"snapshot payload truncated: {target} holds {size} bytes, "
                f"manifest records {expected['bytes']}"
            )
        crc = 0
        with open(target, "rb") as handle:
            while chunk := handle.read(_CRC_CHUNK):
                crc = zlib.crc32(chunk, crc)
        if crc != expected["crc32"]:
            raise SnapshotError(
                f"snapshot payload checksum mismatch: {target} "
                f"(crc32 {crc:#010x} != recorded {expected['crc32']:#010x})"
            )
        return target

    def load_array(self, rel: str, mmap: bool = True) -> np.ndarray:
        self._require_listed(rel)
        target = self.root / rel
        try:
            return np.load(target, mmap_mode="r" if mmap else None, allow_pickle=False)
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(f"cannot read snapshot payload {target}: {exc}") from exc

    def load_text(self, rel_base: str) -> np.ndarray:
        lengths = self.load_array(rel_base + ".lens.npy", mmap=False)
        blob = self.load_array(rel_base + ".blob.npy", mmap=False)
        raw = blob.tobytes()
        bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        if int(bounds[-1]) != len(raw):
            raise SnapshotError(
                f"snapshot payload {self.root / (rel_base + '.blob.npy')} holds "
                f"{len(raw)} text bytes, offsets account for {int(bounds[-1])}"
            )
        edges = bounds.tolist()
        try:
            if raw.isascii():
                # Fast path (the common case for normalised lake tokens):
                # one C-level decode, then byte offsets double as
                # character offsets.
                text = raw.decode("ascii")
                pieces = [text[a:b] for a, b in zip(edges, edges[1:])]
            else:
                pieces = [
                    raw[a:b].decode("utf-8") for a, b in zip(edges, edges[1:])
                ]
        except UnicodeDecodeError as exc:
            raise SnapshotError(
                f"cannot read snapshot payload {self.root / (rel_base + '.blob.npy')}: {exc}"
            ) from exc
        out = np.empty(len(pieces), dtype=object)
        out[:] = pieces
        return out

    def load_pickle(self, rel: str):
        self._require_listed(rel)
        target = self.root / rel
        try:
            return _PlainUnpickler(io.BytesIO(target.read_bytes())).load()
        except Exception as exc:
            raise SnapshotError(f"cannot read snapshot payload {target}: {exc}") from exc


# --------------------------------------------------------------------------
# Saving
# --------------------------------------------------------------------------


def save_blend(blend, path: Union[str, Path], overwrite: bool = False) -> Path:
    """Persist a built :class:`~repro.Blend` deployment into *path*.

    The manifest is written last, so an interrupted save leaves a
    directory no loader will accept (missing manifest) rather than a
    plausible-looking torso, and a save that raises removes what it
    wrote, leaving the target as it found it. A non-empty target is
    refused unless ``overwrite=True``, which stages the new snapshot in a sibling
    temporary directory and swaps it in by rename -- at no point does
    the target hold a torn mix of old and new payloads, and readers
    that already mmap'd the old files keep them alive until unmapped.
    The written directory becomes *blend*'s base, so later saves into it
    are incremental.
    """
    if not getattr(blend, "_indexed", False):
        raise SnapshotError("nothing to save: call build_index() first")
    root = Path(path)
    if root.exists() and not root.is_dir():
        raise SnapshotError(f"snapshot path {root} exists and is not a directory")
    populated = root.is_dir() and any(root.iterdir())
    if populated and not overwrite:
        raise SnapshotError(
            f"refusing to overwrite non-empty directory {root}; "
            "point save() at a fresh path (or pass overwrite=True for an "
            "atomic replace)"
        )
    if populated:
        staging = root.parent / f".{root.name}.staging-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        target_root = staging
    else:
        target_root = root
    # The outermost directory this call creates, if any.
    lineage = [*reversed(target_root.parents), target_root]
    created = next((p for p in lineage if not p.exists()), None)
    target_root.mkdir(parents=True, exist_ok=True)
    try:
        manifest = _write_snapshot(blend, target_root)
    except BaseException:
        # Leave the target as it was found (absent or empty): payloads
        # with no manifest would make the next save refuse it as non-empty.
        for entry in [created] if created else list(target_root.iterdir()):
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink()
        raise
    if populated:
        # Swap the staged snapshot in: retire the old directory by
        # rename (atomic), move the staging directory into place, then
        # drop the old payloads. A failure between the renames restores
        # the original directory.
        retired = root.parent / f".{root.name}.retired-{os.getpid()}"
        if retired.exists():
            shutil.rmtree(retired)
        os.rename(root, retired)
        try:
            os.rename(target_root, root)
        except Exception:
            os.rename(retired, root)
            shutil.rmtree(target_root, ignore_errors=True)
            raise
        shutil.rmtree(retired)
    blend._snapshot_base = _base_of(root, manifest)
    return root


def _write_snapshot(blend, target_root: Path) -> dict:
    """Write every payload of *blend*, then its manifest, into the
    existing directory *target_root*; returns the manifest."""
    writer = _Writer(target_root)
    db: Database = blend.db

    semantic = blend._semantic
    # The lake goes first: a cell _PlainPickler refuses fails the save
    # before any payload lands in the target.
    lake_meta = blend.lake.snapshot_meta()
    lake_meta["payload"] = writer.save_pickle("lake.pkl", blend.lake.snapshot_payload())
    tables_meta = []
    for position, name in enumerate(db.table_names()):
        storage = db.table(name)
        prefix = f"tables/t{position}"
        if isinstance(storage, ColumnTable):
            tables_meta.append(_save_column_table(writer, prefix, storage))
        else:
            tables_meta.append(_save_row_table(writer, prefix, storage))

    cost_model = blend.optimizer.cost_model
    config = blend.index_config
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "snapshot_id": _snapshot_id(writer.files),
        "backend": db.backend,
        "index_config": asdict(config),
        "lake": lake_meta,
        # Statistics derive from AllTables on load; older snapshots'
        # ``stats`` entry and payloads are checked but ignored.
        "stats": None,
        "cost_model": cost_model.snapshot_state() if cost_model.is_trained() else None,
        "semantic": semantic.snapshot_meta() if semantic is not None else None,
        "tables": tables_meta,
        "files": writer.files,
    }
    (target_root / _MANIFEST).write_text(
        json.dumps(manifest, indent=1, sort_keys=False) + "\n", encoding="utf-8"
    )
    return manifest


def _base_of(root: Path, manifest: dict) -> SnapshotBase:
    """The base identity a deployment saved to or loaded from *root*
    records: what the next incremental save diffs against."""
    lake_meta = manifest["lake"]
    return SnapshotBase(
        path=str(root.resolve()),
        snapshot_id=manifest.get("snapshot_id", ""),
        generation=int(lake_meta["generation"]),
        live_slots=tuple(slot is not None for slot in lake_meta["slots"]),
    )


def _table_meta(storage, kind: str) -> dict:
    return {
        "name": storage.schema.name,
        "kind": kind,
        "columns": [
            [column.name, column.sql_type.name] for column in storage.schema.columns
        ],
        "num_rows": storage.num_rows,
        "index_columns": sorted(storage._index_columns)
        if kind == "column"
        else sorted(storage._indexes),
        "cluster_keys": list(storage.cluster_keys),
        "compactions": storage.compactions,
    }


def _save_column_table(writer: _Writer, prefix: str, storage: ColumnTable) -> dict:
    meta = _table_meta(storage, "column")
    sealed, deleted = storage.snapshot_columns()
    columns_meta = []
    for i, column in enumerate(sealed):
        base = f"{prefix}/c{i}"
        column_meta: dict = {"type": column.sql_type.name}
        if column.codes is not None:
            column_meta["codes"] = writer.save_array(f"{base}.codes.npy", column.codes)
            column_meta["dictionary"] = writer.save_text(
                f"{base}.dict", column.dictionary
            )
        if column.data is not None:
            column_meta["data"] = writer.save_array(f"{base}.data.npy", column.data)
        if column.null is not None:
            column_meta["null"] = writer.save_array(f"{base}.null.npy", column.null)
        columns_meta.append(column_meta)
    meta["payload"] = columns_meta
    meta["num_deleted"] = storage._num_deleted
    meta["deleted"] = (
        writer.save_array(f"{prefix}/deleted.npy", deleted)
        if deleted is not None
        else None
    )
    return meta


def _save_row_table(writer: _Writer, prefix: str, storage: RowTable) -> dict:
    meta = _table_meta(storage, "row")
    rows, deleted = storage.snapshot_rows()
    meta["payload"] = writer.save_pickle(f"{prefix}/rows.pkl", rows)
    meta["num_deleted"] = storage._num_deleted
    meta["deleted"] = (
        writer.save_array(f"{prefix}/deleted.npy", np.asarray(deleted, dtype=bool))
        if deleted is not None
        else None
    )
    return meta


# --------------------------------------------------------------------------
# Incremental (base + delta) persistence
# --------------------------------------------------------------------------


def save_blend_delta(blend, path: Union[str, Path]) -> Path:
    """Persist only the mutations since *blend*'s base snapshot -- O(delta)
    where a full :func:`save_blend` is O(lake).

    The delta is the diff between the live lake and the recorded base:
    per-slot generation stamps mark the slots added or replaced since the
    base, liveness marks the removals. Each changed slot's table is
    written as one class-free pickle under ``delta/`` and ``delta.json``
    records the op list with sizes + CRCs, written atomically
    (write-to-temp + rename) so a crash leaves the previous delta -- or
    the bare base -- loadable. Every save rewrites the full
    diff-from-base (bounded by compaction, which starts a fresh base
    generation), so saves are idempotent and self-contained.
    """
    if not getattr(blend, "_indexed", False):
        raise SnapshotError("nothing to save: call build_index() first")
    base: Optional[SnapshotBase] = getattr(blend, "_snapshot_base", None)
    root = Path(path)
    if base is None or Path(base.path) != root.resolve():
        raise SnapshotError(
            f"cannot write a delta into {root}: this deployment was not "
            "loaded from that snapshot (an incremental save targets the "
            "base it was loaded from)"
        )
    manifest = read_manifest(root)
    if manifest.get("snapshot_id") != base.snapshot_id:
        raise SnapshotError(
            f"base snapshot {root} changed since this deployment loaded it "
            f"(snapshot id {manifest.get('snapshot_id')!r} != recorded "
            f"{base.snapshot_id!r}); refusing an incremental save"
        )
    lake = blend.lake
    writer = _Writer(root)
    ops: list[dict] = []
    base_slots = base.live_slots
    for table_id in range(max(lake.num_slots, len(base_slots))):
        base_live = table_id < len(base_slots) and base_slots[table_id]
        live = lake.has_id(table_id)
        if base_live and not live:
            ops.append({"op": "remove", "table_id": table_id})
            continue
        if not live:
            continue
        stamp = lake.slot_stamp(table_id)
        if base_live and stamp <= base.generation:
            continue  # untouched since the base snapshot
        table = lake.by_id(table_id)
        rel = f"{_DELTA_DIR}/t{table_id}.g{stamp}.pkl"
        writer.save_pickle(rel, (table.name, list(table.columns), table.rows))
        ops.append(
            {
                "op": "replace" if base_live else "add",
                "table_id": table_id,
                "payload": rel,
            }
        )
    delta_manifest = {
        "format": DELTA_FORMAT_NAME,
        "format_version": DELTA_FORMAT_VERSION,
        "base_id": base.snapshot_id,
        "base_generation": base.generation,
        "generation": lake.generation,
        "ops": ops,
        "files": writer.files,
    }
    target = root / _DELTA_MANIFEST
    staging = root / (_DELTA_MANIFEST + ".tmp")
    staging.write_text(
        json.dumps(delta_manifest, indent=1, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    os.replace(staging, target)
    # Only now drop payloads the new manifest no longer references
    # (slots that changed again, or were removed, since an earlier
    # delta save) -- a crash before this point leaves them as orphans
    # the next successful save collects.
    keep = set(writer.files)
    delta_dir = root / _DELTA_DIR
    if delta_dir.is_dir():
        for payload in delta_dir.glob("*.pkl"):
            if f"{_DELTA_DIR}/{payload.name}" not in keep:
                payload.unlink()
    return root


def read_delta_manifest(path: Union[str, Path]) -> Optional[dict]:
    """Parse and version-check a snapshot directory's delta manifest;
    ``None`` when the directory holds no delta layer."""
    root = Path(path)
    target = root / _DELTA_MANIFEST
    if not target.is_file():
        return None
    try:
        manifest = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot parse delta manifest {target}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != DELTA_FORMAT_NAME:
        raise SnapshotError(f"{target} is not a {DELTA_FORMAT_NAME} manifest")
    version = manifest.get("format_version")
    if version != DELTA_FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported delta format version {version!r} in {target}: "
            f"this build reads version {DELTA_FORMAT_VERSION} only"
        )
    for key in ("base_id", "generation", "ops", "files"):
        if key not in manifest:
            raise SnapshotError(f"delta manifest {target} lacks the {key!r} section")
    return manifest


def _apply_delta(blend, root: Path, manifest: dict, delta: dict) -> None:
    """Replay a delta manifest's ops through *blend*'s ordinary lifecycle.

    All removals (and the removal half of replacements) are applied
    first, then adds in ascending id order -- any live op history
    converges to the same lake this way, and a dying table's name can
    never collide with an arriving one.
    """
    delta_path = root / _DELTA_MANIFEST
    base_id = manifest.get("snapshot_id")
    if delta.get("base_id") != base_id:
        raise SnapshotError(
            f"delta manifest {delta_path} was written against base snapshot "
            f"{delta.get('base_id')!r}; this base is {base_id!r}"
        )
    generation = delta.get("generation")
    base_generation = int(manifest["lake"]["generation"])
    if type(generation) is not int or generation < base_generation:
        raise SnapshotError(
            f"delta manifest {delta_path} records generation {generation!r}; "
            f"expected an integer no lower than the base generation {base_generation}"
        )
    files = delta.get("files", {})
    reader = _Reader(root, files)
    reader.check_all()
    removes: list[int] = []
    adds: list[tuple[int, str]] = []
    for op in delta.get("ops", ()):
        kind = op.get("op") if isinstance(op, dict) else None
        table_id = op.get("table_id") if isinstance(op, dict) else None
        if kind not in ("add", "remove", "replace") or not isinstance(table_id, int):
            raise SnapshotError(f"malformed op {op!r} in delta manifest {delta_path}")
        if kind in ("remove", "replace"):
            removes.append(table_id)
        if kind in ("add", "replace"):
            rel = op.get("payload")
            if not isinstance(rel, str):
                raise SnapshotError(
                    f"op for table id {table_id} in delta manifest {delta_path} "
                    "lacks a payload"
                )
            adds.append((table_id, rel))
    try:
        for table_id in sorted(removes):
            blend.remove_table(table_id)
        for table_id, rel in sorted(adds):
            payload = reader.load_pickle(rel)
            if not (isinstance(payload, (list, tuple)) and len(payload) == 3):
                raise SnapshotError(
                    f"delta payload {root / rel} does not hold a "
                    "(name, columns, rows) table"
                )
            name, columns, rows = payload
            table = Table(name, list(columns), rows)
            blend.add_table(table, table_id=table_id)
    except SnapshotError:
        raise
    except Exception as exc:
        # A structurally-valid manifest whose ops don't fit the base
        # (dangling ids, occupied slots, bad cells) must fail the load.
        raise SnapshotError(
            f"cannot replay delta manifest {delta_path}: {exc}"
        ) from exc
    blend.lake._generation = generation


# --------------------------------------------------------------------------
# Sharded snapshots (scatter-gather serving)
# --------------------------------------------------------------------------


def save_sharded(blend, path: Union[str, Path], num_shards: int) -> Path:
    """Persist *blend* as K per-shard snapshots plus a routing manifest.

    The lake is partitioned with :meth:`DataLake.shard_plan` (contiguous,
    cell-balanced); each shard becomes a standalone :func:`save_blend`
    snapshot under ``<path>/shard<i>/`` whose lake places every table at
    its **global** id slot, so per-shard ``AllTables`` rows carry globally-stable
    ``TableId``s and per-shard seeker partials merge without translation.
    ``shards.json`` records the table-id -> shard routing and the next
    free global id, which is everything a
    :class:`~repro.serving.sharded.ShardCoordinator` needs to start.

    Per-table indexing is deterministic (including per-table seeded
    shuffle permutations), so each shard's rebuilt index is byte-identical
    to the corresponding slice of the single-process index.
    """
    if not getattr(blend, "_indexed", False):
        raise SnapshotError("nothing to save: call build_index() first")
    shards = blend.lake.shard_plan(num_shards)
    if not shards:
        raise SnapshotError("cannot shard-save an empty lake")
    root = Path(path)
    if root.exists():
        if not root.is_dir():
            raise SnapshotError(f"snapshot path {root} exists and is not a directory")
        if any(root.iterdir()):
            raise SnapshotError(
                f"refusing to overwrite non-empty directory {root}; "
                "point save_sharded() at a fresh path"
            )
    root.mkdir(parents=True, exist_ok=True)

    semantic = blend._semantic
    semantic_meta = semantic.snapshot_meta() if semantic is not None else None
    shard_names: list[str] = []
    table_shard: dict[str, int] = {}
    for i, shard in enumerate(shards):
        shard_lake = DataLake.from_shard(shard, name=f"{blend.lake.name}/shard{i}")
        sub = type(blend)(
            shard_lake, backend=blend.db.backend, index_config=blend.index_config
        )
        sub.build_index()  # IndexConfig(semantic=True) builds the shard's vectors
        name = f"shard{i}"
        save_blend(sub, root / name)
        shard_names.append(name)
        for table_id in shard.table_ids:
            table_shard[str(int(table_id))] = i

    manifest = {
        "format": SHARD_FORMAT_NAME,
        "format_version": SHARD_FORMAT_VERSION,
        "backend": blend.db.backend,
        "hash_size": blend.index_config.hash_size,
        "lake_name": blend.lake.name,
        "num_shards": len(shard_names),
        "shards": shard_names,
        "table_shard": table_shard,
        "next_table_id": blend.lake.num_slots,
        "semantic": semantic_meta,
    }
    (root / _SHARD_MANIFEST).write_text(
        json.dumps(manifest, indent=1, sort_keys=False) + "\n", encoding="utf-8"
    )
    return root


def read_shard_manifest(path: Union[str, Path]) -> dict:
    """Parse, version-check and validate a :func:`save_sharded` routing manifest."""
    root = Path(path)
    target = root / _SHARD_MANIFEST
    if not target.is_file():
        raise SnapshotError(f"not a sharded snapshot (missing {target})")
    try:
        manifest = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot parse shard manifest {target}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != SHARD_FORMAT_NAME:
        raise SnapshotError(f"{target} is not a {SHARD_FORMAT_NAME} manifest")
    version = manifest.get("format_version")
    if version != SHARD_FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported shard manifest version {version!r} in {target}: "
            f"this build reads version {SHARD_FORMAT_VERSION} only"
        )
    for key in ("backend", "shards", "table_shard", "next_table_id"):
        if key not in manifest:
            raise SnapshotError(f"shard manifest {target} lacks the {key!r} section")
    if len(manifest["shards"]) != manifest.get("num_shards", len(manifest["shards"])):
        raise SnapshotError(
            f"shard manifest {target} lists {len(manifest['shards'])} shard "
            f"directories but records num_shards={manifest.get('num_shards')}"
        )
    num_shards, routing = len(manifest["shards"]), manifest["table_shard"]
    if not isinstance(routing, dict):
        raise SnapshotError(f"shard manifest {target}: table_shard is not an object")
    for table_id, shard in routing.items():
        if not (table_id.isascii() and table_id.isdigit()):
            raise SnapshotError(f"shard manifest {target} routes table id {table_id!r}")
        if type(shard) is not int or not 0 <= shard < num_shards:
            raise SnapshotError(
                f"shard manifest {target} routes table {table_id} to shard "
                f"{shard!r} of {num_shards}"
            )
    next_id = manifest["next_table_id"]
    top = max(map(int, routing), default=-1)
    if type(next_id) is not int or next_id <= top:
        raise SnapshotError(
            f"shard manifest {target} records next_table_id={next_id!r}; "
            f"it must be an integer above every routed table id ({top})"
        )
    return manifest


# --------------------------------------------------------------------------
# Loading
# --------------------------------------------------------------------------


def read_manifest(path: Union[str, Path]) -> dict:
    """Parse and version-check a snapshot manifest (shared by the loader
    and external tooling that wants to inspect a snapshot cheaply)."""
    root = Path(path)
    target = root / _MANIFEST
    if not target.is_file():
        raise SnapshotError(f"not a snapshot (missing {target})")
    try:
        manifest = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot parse snapshot manifest {target}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise SnapshotError(f"{target} is not a {FORMAT_NAME} manifest")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format version {version!r} in {target}: "
            f"this build reads version {FORMAT_VERSION} only "
            "(re-save the snapshot with the current code)"
        )
    for key in ("backend", "index_config", "lake", "tables", "files"):
        if key not in manifest:
            raise SnapshotError(f"snapshot manifest {target} lacks the {key!r} section")
    return manifest


def load_blend(
    blend_cls,
    path: Union[str, Path],
    backend: Optional[str] = None,
    delta: bool = True,
):
    """Restore a :class:`~repro.Blend` deployment from a snapshot.

    *backend* asserts the snapshot matches the deployment the caller
    expects. Every payload's size and CRC-32 are checked before any is
    read; numeric payloads then load as read-only file-backed views that
    serve as each table's base until compaction. ``delta`` replays the
    directory's incremental layer (``delta.json``) on top of the base; pass
    ``delta=False`` to recover the bare base snapshot when the delta is
    damaged — the delta manifest is then never even read.
    """
    root = Path(path)
    manifest = read_manifest(root)
    manifest_path = root / _MANIFEST
    delta_manifest = read_delta_manifest(root) if delta else None

    if backend is not None and backend != manifest["backend"]:
        raise SnapshotError(
            f"backend mismatch: snapshot {manifest_path} was saved from the "
            f"{manifest['backend']!r} backend, caller expects {backend!r}"
        )
    # Older manifests also name the index relation; it must be AllTables.
    relation = manifest["index_config"].get("table_name", ALLTABLES)
    if relation != ALLTABLES:
        raise SnapshotError(
            f"snapshot manifest {manifest_path} names index relation "
            f"{relation!r}; this build serves {ALLTABLES!r} only"
        )
    settable = {field.name for field in fields(IndexConfig)}
    config = IndexConfig(
        **{key: value for key, value in manifest["index_config"].items() if key in settable}
    )
    if config.hash_size > 63 and manifest["backend"] == "column":
        raise SnapshotError(
            f"inconsistent snapshot manifest {manifest_path}: "
            f"hash_size={config.hash_size} super keys cannot exist in a "
            "column-backend SuperKey column"
        )

    reader = _Reader(root, manifest["files"])
    reader.check_all()
    lake = _load_lake(reader, manifest["lake"], manifest_path)

    db = Database(backend=manifest["backend"])
    for meta in manifest["tables"]:
        if meta["kind"] == "column":
            db.attach_table(_load_column_table(reader, meta))
        else:
            db.attach_table(_load_row_table(reader, meta))

    blend = blend_cls(lake, backend=manifest["backend"], index_config=config)
    blend.db = db
    blend._indexed = True
    if manifest.get("cost_model"):
        from .core.optimizer.cost_model import CostModel
        from .core.optimizer.planner import Optimizer

        blend.optimizer = Optimizer(CostModel.from_snapshot(manifest["cost_model"]))
    if manifest.get("semantic") is not None:
        from .core.semantic import SemanticIndex

        # Older manifests also carry HNSW graph parameters; they are ignored.
        blend._semantic = SemanticIndex.load(db, dimensions=manifest["semantic"]["dimensions"])
    # Record the base identity BEFORE any delta replay: live_slots and
    # generation describe the on-disk base, which is what the next
    # incremental save diffs against.
    blend._snapshot_base = _base_of(root, manifest)
    if delta_manifest is not None:
        _apply_delta(blend, root, manifest, delta_manifest)
    return blend


def _load_lake(reader: _Reader, lake_meta: dict, manifest_path: Path) -> DataLake:
    """The lake a snapshot carries, checked against the manifest's
    record of its slots and their generation stamps."""
    rel = lake_meta.get("payload")
    if rel is None:
        raise SnapshotError(
            f"snapshot manifest {manifest_path} records no lake payload; "
            "this build loads self-contained snapshots only (re-save it)"
        )
    payload = reader.load_pickle(rel)
    stamps, slots = lake_meta.get("slot_generations"), lake_meta["slots"]
    if not (
        isinstance(payload, list)
        and isinstance(stamps, list)
        and len(payload) == len(stamps) == len(slots)
    ):
        raise SnapshotError(
            f"snapshot manifest {manifest_path} records {len(slots)} lake slots; "
            "its slot_generations or the lake payload do not match them"
        )
    try:
        return DataLake.from_snapshot(
            payload, lake_meta["name"], lake_meta["generation"], stamps
        )
    except (LakeError, TypeError, ValueError) as exc:
        raise SnapshotError(f"cannot rebuild the lake of {manifest_path}: {exc}") from exc


def _restore_schema(meta: dict) -> TableSchema:
    try:
        columns = [
            ColumnDef(name, SqlType[type_name]) for name, type_name in meta["columns"]
        ]
    except KeyError as exc:
        raise SnapshotError(
            f"snapshot manifest names unknown SQL type {exc} for table "
            f"{meta.get('name')!r}"
        ) from None
    return TableSchema(meta["name"], columns)


def _load_column_table(reader: _Reader, meta: dict) -> ColumnTable:
    schema = _restore_schema(meta)
    if len(meta["payload"]) != len(schema.columns):
        raise SnapshotError(
            f"snapshot manifest lists {len(meta['payload'])} column payloads "
            f"for table {meta['name']!r} of width {len(schema.columns)}"
        )
    sealed: list[_ColumnData] = []
    lengths = set()
    for column_def, column_meta in zip(schema.columns, meta["payload"]):
        column = _ColumnData(column_def.sql_type)
        if "codes" in column_meta:
            column.codes = reader.load_array(column_meta["codes"])
            column.dictionary = reader.load_text(column_meta["dictionary"])
            lengths.add(len(column.codes))
        if "data" in column_meta:
            column.data = reader.load_array(column_meta["data"])
            lengths.add(len(column.data))
        if "null" in column_meta:
            column.null = reader.load_array(column_meta["null"])
        sealed.append(column)
    if len(lengths) > 1:
        raise SnapshotError(
            f"snapshot arrays for table {meta['name']!r} have ragged lengths "
            f"{sorted(lengths)}"
        )
    storage_rows = lengths.pop() if lengths else 0
    if storage_rows - (meta.get("num_deleted") or 0) != meta["num_rows"]:
        raise SnapshotError(
            f"snapshot arrays for table {meta['name']!r} hold {storage_rows} "
            f"rows; manifest records {meta['num_rows']} live + "
            f"{meta.get('num_deleted') or 0} deleted"
        )
    return ColumnTable.from_snapshot(
        schema,
        sealed,
        num_rows=meta["num_rows"],
        deleted=_load_tombstones(reader, meta, storage_rows),
        num_deleted=meta.get("num_deleted") or 0,
        index_columns=meta.get("index_columns", ()),
        cluster_keys=meta.get("cluster_keys", ()),
        compactions=meta.get("compactions", 0),
    )


def _load_tombstones(reader: _Reader, meta: dict, storage_rows: int) -> Optional[np.ndarray]:
    """A table's private tombstone mask, checked against its storage:
    one flag per stored row, exactly ``num_deleted`` of them set."""
    num_deleted = meta.get("num_deleted") or 0
    if not meta.get("deleted"):
        if num_deleted:
            raise SnapshotError(
                f"table {meta['name']!r} records {num_deleted} deleted rows "
                "but no tombstone mask"
            )
        return None
    mask = reader.load_array(meta["deleted"], mmap=False)
    if (
        mask.dtype != bool
        or mask.shape != (storage_rows,)
        or int(mask.sum()) != num_deleted
    ):
        raise SnapshotError(
            f"tombstone mask {meta['deleted']!r} of table {meta['name']!r} "
            f"(shape {mask.shape}, dtype {mask.dtype}) does not flag exactly "
            f"{num_deleted} of the table's {storage_rows} stored rows"
        )
    return mask


def _load_row_table(reader: _Reader, meta: dict) -> RowTable:
    schema = _restore_schema(meta)
    rows = reader.load_pickle(meta["payload"])
    if not isinstance(rows, list):
        raise SnapshotError(
            f"snapshot payload {meta['payload']!r} for table {meta['name']!r} "
            "does not hold a row list"
        )
    deleted = _load_tombstones(reader, meta, len(rows))
    table = RowTable.from_snapshot(
        schema,
        rows,
        deleted=None if deleted is None else deleted.tolist(),
        index_columns=meta.get("index_columns", ()),
        cluster_keys=meta.get("cluster_keys", ()),
        compactions=meta.get("compactions", 0),
    )
    if table.num_rows != meta["num_rows"]:
        raise SnapshotError(
            f"snapshot payload for table {meta['name']!r} holds "
            f"{table.num_rows} live rows; manifest records {meta['num_rows']}"
        )
    return table
