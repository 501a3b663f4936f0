"""The ``Blend`` facade: offline indexing + online optimized execution.

Typical use::

    from repro import Blend, Plan, Seekers, Combiners

    blend = Blend(lake, backend="column")
    blend.build_index()

    plan = Plan()
    plan.add("pos", Seekers.MC(examples, k=10))
    plan.add("neg", Seekers.MC(negative_examples, k=10))
    plan.add("out", Combiners.Difference(k=10), ["pos", "neg"])
    result = blend.run(plan)
    print(result.output.table_ids())

Queries enter through three methods: ``run`` (a ``Plan``), ``discover``
(one or several named modalities over one query, fused) and
``union_search`` (the §VII-A Counter plan plus self-exclusion).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..engine.database import Database
from ..errors import BlendError, ReadOnlyDeploymentError
from ..index.alltables import (
    ALLTABLES,
    IndexBuildReport,
    IndexConfig,
    _check_maintenance,
    build_alltables,
    deindex_table,
    index_table,
    reindex_table,
)
from ..index.stats import LakeStatistics
from ..lake.datalake import DataLake
from ..lake.table import Cell, Table
from .combiners import Combiners
from .executor import PlanExecutor, PlanRunResult
from .optimizer.cost_model import TrainingReport, train_cost_model
from .optimizer.planner import ExecutionPlan, Optimizer
from .plan import Plan
from .results import ResultList, SeekerPartials
from .seekers import Seeker, SeekerContext, Seekers


# Per-column seeker depth of the union-search plan: above k, so tables
# relevant only in combination survive the per-seeker cut (paper §VII-A).
PER_COLUMN_K = 100


class Blend:
    """A BLEND deployment over one data lake."""

    def __init__(
        self,
        lake: DataLake,
        backend: str = "column",
        index_config: IndexConfig = IndexConfig(),
    ) -> None:
        self.lake = lake
        self.db = Database(backend=backend)
        self.index_config = index_config
        self._indexed = False
        # ``(data epoch, lake generation, statistics)`` of the last
        # derivation. Both keys: adding an empty or all-NULL table writes
        # no AllTables row yet changes the table counts.
        self._stats: Optional[tuple[int, int, LakeStatistics]] = None
        # Set once a DeploymentManager serves this deployment: from then
        # on it is read-only (see _check_writable).
        self._served = False
        # Identity of the on-disk snapshot this deployment was loaded
        # from (or last fully saved to) -- what incremental saves diff
        # against. ``None`` for deployments that never touched disk.
        self._snapshot_base = None
        self.optimizer = Optimizer()
        self._semantic = None  # the SemanticIndex, once enable_semantic() ran

    # -- offline phase ---------------------------------------------------------

    def build_index(self) -> IndexBuildReport:
        """Offline phase: build ``AllTables`` and derive lake statistics.

        Statistics are derived here eagerly (one GROUP BY over the fresh
        ``AllTables``, see :attr:`stats`), so the first optimized query
        after a build pays nothing for them.

        With ``IndexConfig(semantic=True)`` the offline phase also embeds
        every column of ``AllTables`` into ``AllVectors`` + its vector matrix (the semantic
        extension), so build, load, and shard paths configure semantic
        search uniformly from the one config object.
        """
        report = build_alltables(self.lake, self.db, self.index_config)
        self._indexed = True
        if self.index_config.semantic:
            self.enable_semantic()
        self.stats  # derive eagerly, after the build's last write
        return report

    @property
    def stats(self) -> LakeStatistics:
        """Lake statistics for the cost model, derived from ``AllTables``
        (:meth:`LakeStatistics.from_lake`: one GROUP BY plus lake
        metadata) and cached until the next write -- a lifecycle op,
        compaction or load makes the next read derive them again."""
        if not self._indexed:
            raise BlendError("call build_index() before reading lake statistics")
        key = (self.db.data_epoch, self.lake.generation)
        # One tuple store: concurrent readers may both derive, and each
        # stores an equal value.
        cached = self._stats
        if cached is None or cached[:2] != key:
            derived = LakeStatistics.from_lake(self.lake, self.db)
            cached = self._stats = (*key, derived)
        return cached[2]

    # -- snapshots: persist the built system (offline/online split) ------------------

    def save(self, path, overwrite: bool = False, incremental: str = "auto"):
        """Persist the entire built deployment -- sealed storage arrays,
        ``AllTables``/``AllVectors`` postings and token dictionaries,
        declared indexes, cost-model weights, lake metadata (stable ids
        and holes) and the lake cells themselves -- into a self-contained,
        versioned snapshot directory that :meth:`load` restores
        near-instantly (payloads are raw ``.npy`` files opened with
        ``mmap_mode="r"``). Returns the path written.

        When *path* is the snapshot this deployment was loaded from (or
        last fully saved to), only the mutations since that base are
        written -- O(delta) instead of O(lake); ``incremental="never"``
        forces a full rewrite. A full save refuses a non-empty *path*
        unless ``overwrite=True``, which replaces it atomically
        (write-to-temp + rename).

        See :mod:`repro.snapshot` for the on-disk layout, versioning
        policy, and integrity checking.
        """
        from pathlib import Path

        from ..snapshot import save_blend, save_blend_delta

        if incremental not in ("auto", "never"):
            raise BlendError(f"incremental must be 'auto' or 'never', got {incremental!r}")
        base = self._snapshot_base
        if (
            incremental == "auto"
            and base is not None
            and Path(base.path) == Path(path).resolve()
        ):
            return save_blend_delta(self, path)
        return save_blend(self, path, overwrite=overwrite)

    def save_delta(self, path=None):
        """Persist only the mutations since this deployment's base
        snapshot (``delta.json`` + per-table payloads beside the base
        manifest) -- O(delta) where :meth:`save` from scratch is O(lake).
        *path* defaults to the base snapshot directory. Returns the path
        written."""
        from ..snapshot import save_blend_delta

        if path is None:
            if self._snapshot_base is None:
                raise BlendError(
                    "this deployment has no base snapshot; save() it fully first"
                )
            path = self._snapshot_base.path
        return save_blend_delta(self, path)

    def delta_stats(self) -> dict:
        """Aggregate base-vs-delta occupancy across the maintained
        storage tables: how much of the deployment's state lives in
        delta segments and tombstones rather than the immutable base --
        the compaction trigger's input (see
        :mod:`repro.serving.compaction`)."""
        base_rows = delta_rows = deleted_rows = 0
        for name in self.db.table_names():
            stats = self.db.table(name).delta_stats()
            base_rows += stats["base_rows"]
            delta_rows += stats["delta_rows"]
            deleted_rows += stats["deleted_rows"]
        churn = delta_rows + deleted_rows
        return {
            "base_rows": base_rows,
            "delta_rows": delta_rows,
            "deleted_rows": deleted_rows,
            "delta_fraction": churn / max(1, base_rows + delta_rows),
        }

    @classmethod
    def load(cls, path, backend: Optional[str] = None, delta: bool = True) -> "Blend":
        """Warm-start a deployment from a :meth:`save` snapshot.

        The loaded system is functionally identical to the fresh build
        it was saved from: same seeker results, same statistics, same
        optimizer behaviour, byte-identical sealed storage. Lifecycle
        ops keep working -- the memory-mapped arrays are each table's
        base and mutations land in its delta segment, so N serving
        processes can share one snapshot on disk. The lake comes from the
        snapshot itself; *backend* asserts the snapshot matches the
        expected deployment. Every payload's size and CRC-32 are checked
        first, and corrupted, truncated, tampered or version-mismatched
        snapshots raise :class:`~repro.errors.SnapshotError` naming the
        offending file.

        ``delta=True`` (the default) replays the directory's incremental
        layer -- mutations persisted by :meth:`save_delta` -- on top of
        the base; ``delta=False`` recovers the bare base snapshot, never
        reading the (possibly damaged) delta files at all.
        """
        from ..snapshot import load_blend

        return load_blend(cls, path, backend=backend, delta=delta)

    def train_optimizer(
        self, samples_per_type: int = 40, seed: int = 0
    ) -> TrainingReport:
        """Train the learned cost model on this deployment (paper: once
        per lake installation)."""
        model, report = train_cost_model(
            self.context(), self.stats, self.lake, samples_per_type, seed
        )
        self.optimizer = Optimizer(model)
        return report

    # -- maintenance: the table lifecycle (paper §V) ---------------------------------

    def _check_writable(self) -> None:
        """Reject any write to a served deployment: readers share it
        without a lock, so it must never change under them."""
        if self._served:
            raise ReadOnlyDeploymentError(
                "this Blend is served by a DeploymentManager and is read-only; "
                "apply the change to a writer deployment, persist it with "
                "save_delta(), Blend.load() the snapshot and swap() it in"
            )

    def _check_maintainable(self) -> None:
        """Reject served or unmaintainable deployments BEFORE mutating
        the lake: the lifecycle methods must never leave the lake changed
        with the index maintenance refused (a fresh-generation context
        would then silently serve the desynced index)."""
        self._check_writable()
        if self._indexed:
            _check_maintenance(self.db, self.index_config)

    def add_table(self, table: Table, table_id: Optional[int] = None) -> int:
        """Maintenance path: add one table to the lake AND the index
        incrementally (no rebuild). Returns the new table id.

        The unified single-relation layout makes this an append (paper
        §V); lake statistics need no update -- the next read of
        :attr:`stats` derives them from the grown ``AllTables``.

        *table_id* places the table at an explicit id instead of the next
        free slot -- the sharded-serving path, where the coordinator
        allocates globally-unique ids and each shard's lake holds only
        its own slice of the id space (see
        :meth:`~repro.lake.datalake.DataLake.add_at`).
        """
        self._check_maintainable()
        if table_id is None:
            table_id = self.lake.add(table)
        else:
            table_id = self.lake.add_at(table_id, table)
        if self._indexed:
            index_table(table_id, table, self.db, self.index_config)
        if self._semantic is not None:
            self._semantic.add_table(table_id, self.db)
        return table_id

    def remove_table(self, table_id: int) -> Table:
        """Maintenance path: remove one table from the lake AND the index
        (its ``AllTables`` rows -- and ``AllVectors`` rows when the
        semantic extension is enabled -- are deleted without touching any
        other table's super keys). The table id becomes a permanent hole.
        Returns the removed table.

        Contexts created before the removal raise
        :class:`~repro.errors.StaleContextError` instead of silently
        serving the dead id; ``Blend.run`` always executes on a fresh
        context.
        """
        self._check_maintainable()
        removed = self.lake.remove(table_id)
        if self._indexed:
            deindex_table(table_id, self.db, self.index_config)
        if self._semantic is not None:
            self._semantic.remove_table(table_id, self.db)
        return removed

    def replace_table(self, table_id: int, table: Table) -> Table:
        """Maintenance path: replace the table at *table_id* in place
        (same id) -- its old index rows are deleted and the new table is
        appended under the same id, so every seeker immediately serves
        the new contents. Returns the previous table."""
        self._check_maintainable()
        previous = self.lake.replace(table_id, table)
        if self._indexed:
            reindex_table(table_id, table, self.db, self.index_config)
        if self._semantic is not None:
            self._semantic.replace_table(table_id, self.db)
        return previous

    def compact_index(self) -> None:
        """Force physical compaction of the maintained relations: delete
        tombstones dropped, text dictionaries re-encoded, rows restored
        to the offline build's clustering order -- after which storage is
        byte-identical to a from-scratch ``build_index()`` on the current
        lake (the rebuild-parity invariant). Mutations never compact on
        their own: this call, ``Database.compact`` and the snapshot
        compactor are the only ways storage is rewritten."""
        self._check_writable()
        if not self._indexed:
            raise BlendError("call build_index() before compacting")
        self.db.compact(ALLTABLES)
        if self.db.has_table("AllVectors"):
            self.db.compact("AllVectors")

    def enable_semantic(self) -> "Blend":
        """Build the semantic extension (paper §X future work): embed
        every column from the built ``AllTables`` (no lake cell is read)
        into ``index_config.semantic_dimensions`` dimensions, persist the
        vectors in-DB as ``AllVectors`` (replacing an earlier copy), and
        serve SS seekers by an exact scan over them. Returns self.

        Equivalent to building with ``IndexConfig(semantic=True)``; the
        config is updated to match so snapshots and shard saves carry the
        semantic setting uniformly."""
        from dataclasses import replace

        from .semantic import SemanticIndex

        if not self._indexed:
            raise BlendError("call build_index() before enable_semantic()")
        self._semantic = SemanticIndex(self.db, self.index_config.semantic_dimensions)
        self.index_config = replace(self.index_config, semantic=True)
        self._semantic.persist(self.db)
        return self

    def context(self) -> SeekerContext:
        if not self._indexed:
            raise BlendError("call build_index() before executing plans")
        return SeekerContext(
            db=self.db,
            lake=self.lake,
            hash_size=self.index_config.hash_size,
            xash_chars=self.index_config.xash_chars,
            semantic=self._semantic,
            generation=self.lake.generation,
        )

    def execute_batch(self, seekers: Sequence["Seeker"]) -> list[ResultList]:
        """Execute several independent seekers against one context,
        coalescing same-modality queries into shared index passes (one
        serving-tier batch). Results are positionally aligned
        and identical to per-seeker ``execute`` -- see
        :mod:`repro.core.batch`."""
        from .batch import execute_batch

        return execute_batch(seekers, self.context())

    def execute_batch_partials(
        self, seekers: Sequence["Seeker"]
    ) -> list["SeekerPartials"]:
        """The partials form of :meth:`execute_batch`: one mergeable
        :class:`~repro.core.results.SeekerPartials` per seeker instead of
        the final ranking -- what a shard worker ships to the
        scatter-gather coordinator (:mod:`repro.serving.sharded`)."""
        from .batch import execute_batch_partials

        return execute_batch_partials(seekers, self.context())

    def warm(self) -> None:
        """Force every lazily-built read structure (sealed columns,
        postings, dictionary reverse maps) so concurrent readers never
        race on first-touch materialization. Serving deployments call
        this once before a snapshot starts taking traffic."""
        self.db.warm()

    # -- unified discovery facade ---------------------------------------------------

    def discover(
        self,
        query,
        modalities: str | Sequence[str] = ("join",),
        k: int = 10,
        *,
        about: Optional[Iterable[Cell]] = None,
    ) -> "DiscoveryResult":
        """One entry point for every discovery modality, returning a typed
        :class:`~repro.core.hybrid.DiscoveryResult`.

        *modalities* selects among ``"keyword"`` (KW), ``"join"`` (SC),
        ``"multi_column"`` (MC), ``"semantic"`` (SS), ``"correlation"``
        (C; *query* binds a ``(keys, targets)`` pair) and ``"hybrid"``
        (HY -- exact+semantic reciprocal-rank fusion with equal lane
        weights; *about* names the semantic topic). With several
        modalities, each runs as one node of a single plan and the
        per-modality rankings fuse into ``result.output`` by the same
        reciprocal-rank rule, every modality weighted 1.
        """
        from .hybrid import DiscoveryResult, HybridSeeker
        from .results import fuse_rankings
        from .semantic import SemanticSeeker

        if isinstance(modalities, str):
            modalities = (modalities,)
        selected = tuple(dict.fromkeys(modalities))
        if not selected:
            raise BlendError("discover() needs at least one modality")

        def _operator(modality: str) -> Seeker:
            if modality == "keyword":
                return Seekers.KW(query, k=k)
            if modality == "join":
                return Seekers.SC(query, k=k)
            if modality == "multi_column":
                return Seekers.MC(query, k=k)
            if modality == "semantic":
                values = query if about is None else about
                return SemanticSeeker(values, k=k)
            if modality == "correlation":
                try:
                    keys, targets = query
                except (TypeError, ValueError):
                    raise BlendError(
                        "the correlation modality binds a (keys, targets) pair"
                    ) from None
                return Seekers.Correlation(keys, targets, k=k)
            if modality == "hybrid":
                return HybridSeeker(query, about=about, k=k)
            raise BlendError(
                f"unknown discovery modality {modality!r}; one of "
                "keyword/join/multi_column/semantic/correlation/hybrid"
            )

        plan = Plan()
        for modality in selected:
            plan.add(modality, _operator(modality))
        run = self.run(plan)
        per_modality = {
            modality: run.result_of(modality) for modality in selected
        }
        if len(selected) == 1:
            output = per_modality[selected[0]]
        else:
            output = fuse_rankings(
                [(1.0, per_modality[modality]) for modality in selected], k
            )
        return DiscoveryResult(
            query=query,
            modalities=selected,
            k=k,
            output=output,
            per_modality=per_modality,
        )

    # -- online phase ----------------------------------------------------------

    def plan_for(self, plan: Plan, optimize: bool = True) -> ExecutionPlan:
        """The execution plan the optimizer would produce (introspection)."""
        if optimize:
            # Statistics are read only if some group has seekers to order.
            return self.optimizer.optimize(plan, lambda: self.stats)
        return Optimizer.unoptimized(plan)

    def run(self, plan: Plan, optimize: bool = True) -> PlanRunResult:
        """Optimize (unless ``optimize=False`` -- the paper's B-NO) and
        execute a discovery plan."""
        execution_plan = self.plan_for(plan, optimize)
        return PlanExecutor(self.context()).run(plan, execution_plan)

    # -- standard tasks (§VII-A) ---------------------------------------------------

    def union_search(
        self, table: Table, k: int = 10, per_column_k: int = PER_COLUMN_K
    ) -> ResultList:
        """Union discovery: one SC seeker per query column + a Counter
        (see :data:`PER_COLUMN_K`)."""
        result = self.run(union_search_plan(table, k, per_column_k)).output
        query_id = self.lake.id_of(table.name) if table.name in self.lake else None
        if query_id is not None and query_id in result:
            result = ResultList(hit for hit in result if hit.table_id != query_id)
        return result


def union_search_plan(table: Table, k: int = 10, per_column_k: int = PER_COLUMN_K) -> Plan:
    """The §VII-A union-search plan for a query table."""
    plan = Plan()
    column_nodes = []
    for position, column in enumerate(table.columns):
        values = [v for v in table.column_values(column) if v is not None]
        if not values:
            continue
        node = f"sc_{position}_{column}"
        plan.add(node, Seekers.SC(values, k=per_column_k))
        column_nodes.append(node)
    if not column_nodes:
        raise BlendError(f"query table {table.name!r} has no non-null columns")
    plan.add("counter", Combiners.Counter(k=k), column_nodes)
    return plan
