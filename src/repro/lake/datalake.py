"""Data-lake container: a mutable corpus of tables with stable ids.

Table ids are assigned on insertion and are what the ``AllTables`` index,
seekers, and result sets refer to (the paper's ``TableId``). Ids are
**stable under mutation**: removing a table leaves a hole (its id is
never reused), replacing a table keeps its id, and adding always mints a
fresh id -- so incremental index maintenance (delete the table's index
rows, append the new ones) reproduces exactly what a from-scratch build
of the final lake state would assign.

Every mutation bumps a monotonically increasing **generation** counter;
consumers that cache derived state (seeker contexts, notably) carry the
generation they observed and can detect staleness instead of silently
serving results for dead table ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from ..errors import LakeError
from .csvio import read_table, write_table
from .table import Table


@dataclass(frozen=True)
class LakeStats:
    """Corpus-level statistics (the rows of the paper's Table II)."""

    name: str
    num_tables: int
    num_columns: int
    num_rows: int
    num_cells: int


@dataclass(frozen=True)
class LakeShard:
    """A picklable slice of a lake's live tables.

    The unit :meth:`DataLake.shard_plan` partitions a lake into for a
    sharded deployment: table ids are carried explicitly (lakes that
    lived through removals have holes, so ids are no longer implicit in
    position), and :class:`Table` holds only plain Python lists/tuples
    (plus its cached type-inference flags), so a shard crosses a process
    boundary with one pickle round-trip and no lake-level state.
    """

    table_ids: tuple[int, ...]
    tables: tuple[Table, ...]

    @property
    def num_cells(self) -> int:
        return sum(table.num_rows * table.num_columns for table in self.tables)


def _shard_of(items: list[tuple[int, Table]], start: int, stop: int) -> LakeShard:
    """Shard of the pre-materialised live ``(id, table)`` sequence."""
    selected = items[start:stop]
    return LakeShard(
        tuple(table_id for table_id, _ in selected),
        tuple(table for _, table in selected),
    )


class DataLake:
    """An ordered collection of :class:`Table` with id <-> name mapping
    and a full add / remove / replace lifecycle."""

    def __init__(self, name: str = "lake", tables: Optional[Iterable[Table]] = None) -> None:
        self.name = name
        # Slot list indexed by table id; removed tables leave a ``None``
        # hole so ids stay stable (and are never reused).
        self._tables: list[Optional[Table]] = []
        self._id_by_name: dict[str, int] = {}
        self._num_live = 0
        self._generation = 0
        # Per-slot generation stamp: the generation at which each slot
        # last changed (add or replace). The incremental-snapshot diff
        # compares these against a base snapshot's generation to find
        # the slots that need a delta payload.
        self._slot_generation: list[int] = []
        if tables is not None:
            for table in tables:
                self.add(table)

    # -- corpus management ---------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonically increasing mutation counter (add/remove/replace)."""
        return self._generation

    def add(self, table: Table) -> int:
        """Add a table; returns its assigned (fresh, never-reused) id."""
        if table.name in self._id_by_name:
            raise LakeError(f"lake already contains a table named {table.name!r}")
        table_id = len(self._tables)
        self._tables.append(table)
        self._id_by_name[table.name] = table_id
        self._num_live += 1
        self._generation += 1
        self._slot_generation.append(self._generation)
        return table_id

    def add_at(self, table_id: int, table: Table) -> int:
        """Add a table under an explicit id, padding holes as needed.

        The sharded-serving path: a shard's lake holds only its own slice
        of the global id space, and the coordinator -- not the lake --
        allocates fresh ids, so each shard must be able to place a table
        at any id it does not already occupy. Slots skipped by the
        padding are permanent holes, exactly like removal holes.
        """
        if table.name in self._id_by_name:
            raise LakeError(f"lake already contains a table named {table.name!r}")
        if table_id < 0:
            raise LakeError(f"table id must be non-negative, got {table_id}")
        if table_id < len(self._tables) and self._tables[table_id] is not None:
            raise LakeError(f"table id {table_id} is already occupied")
        while len(self._tables) <= table_id:
            self._tables.append(None)
            self._slot_generation.append(0)
        self._tables[table_id] = table
        self._id_by_name[table.name] = table_id
        self._num_live += 1
        self._generation += 1
        self._slot_generation[table_id] = self._generation
        return table_id

    def remove(self, table_id: int) -> Table:
        """Remove the table with *table_id*; its id becomes a permanent
        hole (never reassigned). Returns the removed table."""
        removed = self.by_id(table_id)
        self._tables[table_id] = None
        del self._id_by_name[removed.name]
        self._num_live -= 1
        self._generation += 1
        self._slot_generation[table_id] = self._generation
        return removed

    def replace(self, table_id: int, table: Table) -> Table:
        """Replace the table at *table_id* in place (the id is kept).
        Returns the previous table."""
        previous = self.by_id(table_id)
        existing_id = self._id_by_name.get(table.name)
        if existing_id is not None and existing_id != table_id:
            raise LakeError(
                f"lake already contains a table named {table.name!r} "
                f"(id {existing_id})"
            )
        self._tables[table_id] = table
        del self._id_by_name[previous.name]
        self._id_by_name[table.name] = table_id
        self._generation += 1
        self._slot_generation[table_id] = self._generation
        return previous

    def __len__(self) -> int:
        return self._num_live

    @property
    def num_slots(self) -> int:
        """Number of id slots (live tables plus holes) -- the smallest id
        guaranteed free, which is what a sharded coordinator seeds its
        global id allocator with."""
        return len(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return (table for table in self._tables if table is not None)

    def __contains__(self, name: str) -> bool:
        return name in self._id_by_name

    def table_ids(self) -> list[int]:
        """Live table ids, ascending."""
        return [i for i, table in enumerate(self._tables) if table is not None]

    def items(self) -> Iterator[tuple[int, Table]]:
        """``(table_id, table)`` pairs of live tables, ascending by id.

        The canonical enumeration for anything that must agree with
        ``AllTables``: on a lake that lived through removals,
        ``enumerate(lake)`` would renumber past the holes.
        """
        return (
            (i, table) for i, table in enumerate(self._tables) if table is not None
        )

    def by_id(self, table_id: int) -> Table:
        if not 0 <= table_id < len(self._tables) or self._tables[table_id] is None:
            raise LakeError(f"unknown table id: {table_id}")
        return self._tables[table_id]

    def has_id(self, table_id: int) -> bool:
        return 0 <= table_id < len(self._tables) and self._tables[table_id] is not None

    def by_name(self, name: str) -> Table:
        try:
            return self._tables[self._id_by_name[name]]
        except KeyError:
            raise LakeError(f"unknown table name: {name!r}") from None

    def id_of(self, name: str) -> int:
        try:
            return self._id_by_name[name]
        except KeyError:
            raise LakeError(f"unknown table name: {name!r}") from None

    def name_of(self, table_id: int) -> str:
        return self.by_id(table_id).name

    # -- sharding ---------------------------------------------------------------------

    def shard_plan(self, num_shards: int) -> list[LakeShard]:
        """Partition the live tables into up to *num_shards* contiguous
        shards of roughly equal **cell** count (tables vary by orders of
        magnitude, so balancing by table count would skew the shard
        children's runtimes).

        Contiguity (in ascending-id order) makes every shard one table-id
        range, in shard order. Greedy splitting
        against the ideal per-shard quota; every shard holds at least one
        table, and fewer shards than requested are returned when the lake
        is small.
        """
        if num_shards < 1:
            raise LakeError(f"num_shards must be >= 1, got {num_shards}")
        num_tables = self._num_live
        if num_tables == 0:
            return []
        items = list(self.items())  # one lake walk for the whole plan
        cells = [table.num_rows * table.num_columns for _, table in items]
        total = sum(cells)
        shards: list[LakeShard] = []
        start = 0
        accumulated = 0
        for position, table_cells in enumerate(cells):
            accumulated += table_cells
            remaining_shards = num_shards - len(shards)
            remaining_tables = num_tables - position - 1
            if remaining_shards <= 1:
                continue
            quota = total * (len(shards) + 1) / num_shards
            if accumulated >= quota or remaining_tables < remaining_shards - 1:
                shards.append(_shard_of(items, start, position + 1))
                start = position + 1
        if start < num_tables:
            shards.append(_shard_of(items, start, num_tables))
        return shards

    @classmethod
    def from_shard(cls, shard: LakeShard, name: str = "shard") -> "DataLake":
        """A standalone lake over one shard's tables, each at its
        **global** id slot (ids below/between the shard's tables become
        holes). A per-shard ``AllTables`` built over such a lake indexes
        rows under globally-stable ``TableId``s, which is what makes
        per-shard seeker partials mergeable without any id translation."""
        lake = cls(name)
        for table_id, table in zip(shard.table_ids, shard.tables):
            lake.add_at(table_id, table)
        return lake

    # -- statistics -------------------------------------------------------------------

    def stats(self) -> LakeStats:
        """Table II-style corpus statistics (over live tables)."""
        num_columns = sum(table.num_columns for table in self)
        num_rows = sum(table.num_rows for table in self)
        num_cells = sum(table.num_rows * table.num_columns for table in self)
        return LakeStats(
            name=self.name,
            num_tables=self._num_live,
            num_columns=num_columns,
            num_rows=num_rows,
            num_cells=num_cells,
        )

    # -- snapshots ---------------------------------------------------------------------

    def snapshot_meta(self) -> dict:
        """Structural lake metadata for a snapshot manifest: the
        generation counter, each slot's generation stamp, and one entry
        per id slot (``None`` marks a removal hole -- ids stay stable
        through save/load) recording name and shape. A load checks the
        snapshot's cell payload against this record."""
        return {
            "name": self.name,
            "generation": self._generation,
            "slot_generations": list(self._slot_generation),
            "slots": [
                None
                if table is None
                else {
                    "name": table.name,
                    "columns": list(table.columns),
                    "num_rows": table.num_rows,
                }
                for table in self._tables
            ],
        }

    def slot_stamp(self, table_id: int) -> int:
        """Generation at which slot *table_id* last changed (0 for slots
        created as padding holes)."""
        return self._slot_generation[table_id]

    def snapshot_payload(self) -> list:
        """The picklable cell payload backing :meth:`from_snapshot`:
        plain ``(name, columns, rows)`` tuples per live slot (``None``
        for holes) -- deliberately class-free, so the on-disk format
        survives refactors of :class:`Table` itself."""
        return [
            None if table is None else (table.name, list(table.columns), table.rows)
            for table in self._tables
        ]

    @classmethod
    def from_snapshot(
        cls, payload: list, name: str, generation: int, slot_generations: list
    ) -> "DataLake":
        """Rebuild a lake -- holes, stable ids, generation counter and
        per-slot stamps included -- from :meth:`snapshot_payload` output
        and the stamps :meth:`snapshot_meta` recorded beside it."""
        lake = cls(name)
        for slot in payload:
            if slot is None:
                lake._tables.append(None)
                continue
            table_name, columns, rows = slot
            table = Table(table_name, columns, rows)
            lake._id_by_name[table.name] = len(lake._tables)
            lake._tables.append(table)
            lake._num_live += 1
        lake._slot_generation = [int(stamp) for stamp in slot_generations]
        lake._generation = generation
        return lake

    # -- persistence ---------------------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> None:
        """Write every live table as ``<directory>/<name>.csv``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for table in self:
            write_table(table, directory / f"{table.name}.csv")

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "DataLake":
        """Load every ``*.csv`` in a directory (sorted for stable ids) into
        a lake named after the directory."""
        directory = Path(directory)
        if not directory.is_dir():
            raise LakeError(f"{directory} is not a directory")
        lake = cls(directory.name)
        for path in sorted(directory.glob("*.csv")):
            lake.add(read_table(path))
        return lake
