"""The unified BLEND index: XASH super keys, Quadrant bits, the AllTables
builder, lake statistics, and Table VIII storage accounting.

The AllTables builder is one pipeline (per-flush token factorisation,
batch XASH over unique tokens via ``xash_batch``, segmented super-key
OR-reduction, quadrant bits from ``column_quadrant_matrix``, one global
sorted dictionary, bulk ``insert_columns`` appends) shared by the
offline build and the incremental maintenance entry points, in-process.
The scalar cell-at-a-time reference it is pinned against is a test oracle
(``tests/oracles/alltables_scalar.py``), not part of the package.
``benchmarks/e2e`` measures it (the ``index.build.*`` per-layer rows).
"""

from .alltables import (
    ALLTABLES_SCHEMA,
    IndexBuildReport,
    IndexConfig,
    build_alltables,
    deindex_table,
    index_table,
    reindex_table,
)
from .quadrant import column_means, column_quadrant_matrix, quadrant_bit, split_keys_by_target
from .stats import LakeStatistics
from .storage_model import StorageBreakdown, format_bytes, measure_breakdown
from .xash import may_contain, super_key, tuple_hash, xash, xash_batch

__all__ = [
    "ALLTABLES_SCHEMA",
    "IndexBuildReport",
    "IndexConfig",
    "build_alltables",
    "index_table",
    "deindex_table",
    "reindex_table",
    "column_means",
    "column_quadrant_matrix",
    "quadrant_bit",
    "split_keys_by_target",
    "LakeStatistics",
    "StorageBreakdown",
    "format_bytes",
    "measure_breakdown",
    "may_contain",
    "super_key",
    "tuple_hash",
    "xash",
    "xash_batch",
]
