"""Exception hierarchy for the BLEND reproduction.

Every error raised by this package derives from :class:`BlendError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` et al.) propagate.
"""

from __future__ import annotations


class BlendError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class EngineError(BlendError):
    """Base class for errors raised by the embedded relational engine."""


class SqlSyntaxError(EngineError):
    """The SQL text could not be tokenised or parsed.

    Carries the one-based position of the offending token when known.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PlanningError(EngineError):
    """The parsed statement is structurally invalid (unknown table/column,
    aggregate misuse, unbound parameter, ...)."""


class ExecutionError(EngineError):
    """A runtime failure while executing a physical plan."""


class CatalogError(EngineError):
    """Schema-level failure: duplicate table, missing index target, ..."""


class LakeError(BlendError):
    """Failure in the data-lake substrate (bad CSV, malformed table, ...)."""


class IndexingError(BlendError):
    """Failure while building the unified AllTables index."""


class PlanError(BlendError):
    """A user discovery plan is malformed (cycles, unknown inputs, bad
    arity, duplicate node names, ...)."""


class SeekerError(BlendError):
    """Invalid seeker specification (empty query column, bad k, ...)."""


class StaleContextError(BlendError):
    """A :class:`SeekerContext` outlived the lake generation it was
    created at: tables were added, removed, or replaced since, so results
    could silently reference dead table ids. Re-create the context (e.g.
    ``Blend.context()``) to pick up the current generation."""


class SnapshotError(BlendError):
    """A persisted index snapshot cannot be written or loaded: missing or
    corrupted payload files, checksum or size mismatches, an unsupported
    format version, or a deployment (backend / hash width / lake) that
    does not match what the snapshot was built from. The message names
    the offending file so operators can tell truncation apart from
    tampering -- a bad snapshot must never load into garbage results."""


class CombinerError(BlendError):
    """Invalid combiner specification or input arity."""


class ServingError(BlendError):
    """Failure in the serving tier (scheduler shut down, no deployment
    loaded, malformed request)."""


class ReadOnlyDeploymentError(ServingError):
    """A lifecycle op or a compaction was attempted on a ``Blend`` that a
    :class:`~repro.serving.DeploymentManager` serves. Served generations
    are read-only: readers share them without a lock. Mutate a writer
    deployment, persist it with ``save_delta()``, ``Blend.load`` the
    snapshot and ``swap`` it in."""


class ShardUnavailableError(ServingError):
    """A shard worker's transport broke -- its thread or child process is
    gone -- so the request could not reach it or its reply never came.
    Distinct from an error the shard raised while serving an op, which
    crosses the wire as itself."""


class RequestTimeoutError(ServingError):
    """A served request missed its deadline: it was either still queued
    when its deadline passed (dropped at admission, never executed) or
    its batch did not finish in time. The worker that noticed stays
    healthy -- timeouts are per-request, not per-worker."""
