"""The seed cell-at-a-time ``AllTables`` writer, kept as the reference
oracle for ``repro.index.alltables``: one ``normalize_cell`` /
``super_key`` / ``quadrant_bit`` call per cell or row, rows appended
through the tuple ``insert`` API. The production pipeline must produce a
byte-identical relation (same values, same physical order)."""

from repro.engine.database import Database
from repro.index.alltables import (
    ALLTABLES_SCHEMA,
    IndexBuildReport,
    IndexConfig,
    shuffle_permutation,
)
from repro.index.quadrant import column_means, quadrant_bit
from repro.index.xash import super_key
from repro.lake.datalake import DataLake
from repro.lake.table import normalize_cell


def table_index_rows(table_id: int, table, config: IndexConfig) -> tuple[list[tuple], int]:
    """``(AllTables tuples, NULL-cell count)`` of one lake table."""
    means = column_means(table)
    rows = list(table.rows)
    if config.shuffle_rows:
        perm = shuffle_permutation(config.shuffle_seed, table_id, len(rows))
        rows = [rows[i] for i in perm]
    index_rows: list[tuple] = []
    null_cells = 0
    for row_id, row in enumerate(rows):
        row_super_key = super_key(row, config.hash_size, config.xash_chars)
        for column_id, value in enumerate(row):
            token = normalize_cell(value)
            if token is None:
                null_cells += 1
                continue
            index_rows.append(
                (
                    token,
                    table_id,
                    column_id,
                    row_id,
                    row_super_key,
                    quadrant_bit(value, means[column_id]),
                )
            )
    return index_rows, null_cells


def build_alltables_scalar(
    lake: DataLake, db: Database, config: IndexConfig = IndexConfig()
) -> IndexBuildReport:
    """Oracle twin of ``repro.index.build_alltables``."""
    db.create_table(config.table_name, ALLTABLES_SCHEMA)
    db.set_cluster_keys(config.table_name, ("TableId", "RowId", "ColumnId"))
    null_cells = 0
    for table_id, table in lake.items():
        index_rows, table_nulls = table_index_rows(table_id, table, config)
        null_cells += table_nulls
        db.insert(config.table_name, index_rows)
    db.create_index(config.table_name, "CellValue")
    db.create_index(config.table_name, "TableId")
    return IndexBuildReport(
        num_tables=len(lake),
        num_index_rows=db.num_rows(config.table_name),
        num_null_cells=null_cells,
        storage_bytes=db.storage_bytes(config.table_name),
    )


def index_table_scalar(
    table_id: int, table, db: Database, config: IndexConfig = IndexConfig()
) -> int:
    """Oracle twin of ``repro.index.index_table``."""
    return db.insert(config.table_name, table_index_rows(table_id, table, config)[0])


def alltables_rows(lake: DataLake, config: IndexConfig = IndexConfig(), backend="column"):
    """``(SELECT * FROM AllTables rows, report)`` of an oracle build."""
    db = Database(backend=backend)
    report = build_alltables_scalar(lake, db, config)
    return db.execute(f"SELECT * FROM {config.table_name}").rows, report
