"""Scale out a lake across shards: build, shard-save, scatter-gather.

Builds a lake, saves it as per-shard snapshots, spins up a
:class:`repro.serving.ShardCoordinator` over shard workers (each a
``Blend`` loaded from its shard snapshot behind one op loop, reached
over a pipe), and shows that the scatter-gather answers are
byte-identical to direct single-process execution. Then exercises the
distributed lifecycle: add a table (the coordinator routes it to the
least-loaded shard under a globally stable id), and hot-swap ONE shard
to a new snapshot while the others keep their tables:

    $ python examples/sharded_lake.py
"""

import random
import tempfile
from pathlib import Path

from repro import Blend, DataLake, Seekers, Table
from repro.core.semantic import SemanticSeeker
from repro.serving import ShardCoordinator
from repro.snapshot import save_sharded

CITIES = ["berlin", "paris", "rome", "madrid", "lisbon", "vienna", "oslo", "cairo"]
COUNTRIES = [
    "germany", "france", "italy", "spain",
    "portugal", "austria", "norway", "egypt",
]


def make_table(rng: random.Random, name: str) -> Table:
    rows = []
    for _ in range(30):
        i = rng.randrange(len(CITIES))
        country = COUNTRIES[i] if rng.random() < 0.75 else rng.choice(COUNTRIES)
        rows.append([CITIES[i], country, rng.randint(1, 99)])
    return Table(name, ["city", "country", "metric"], rows)


def queries() -> list:
    return [
        Seekers.SC(["berlin", "paris", "oslo"], k=5),
        Seekers.KW(["germany", "cairo"], k=5),
        Seekers.MC([("berlin", "germany"), ("rome", "italy")], k=5),
        SemanticSeeker(["madrid", "lisbon"], k=4),
    ]


def main() -> None:
    rng = random.Random(17)
    lake = DataLake("cities")
    for t in range(12):
        lake.add(make_table(rng, f"t{t}"))
    blend = Blend(lake, backend="column")
    blend.build_index()
    blend.enable_semantic()

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_sharded(blend, root / "shards", num_shards=3)
        print("saved 3 shard snapshots:",
              sorted(p.name for p in (root / "shards").iterdir()))

        # processes=True would give each shard its own child process; the
        # default runs each shard's op loop on a thread of this process,
        # over the same pipe, which keeps the example quick and portable.
        coordinator = ShardCoordinator.load(root / "shards")
        context = blend.context()
        for seeker in queries():
            solo = seeker.execute(context)
            sharded = coordinator.execute(seeker)
            marker = "==" if list(sharded) == list(solo) else "!!"
            print(f"  {seeker.kind:>2}: scatter-gather {marker} single-process "
                  f"-> {sharded.table_ids()}")

        # Lifecycle: the coordinator allocates the global id and routes
        # the table to the least-loaded shard.
        fresh = make_table(rng, "fresh")
        table_id = coordinator.add_table(fresh)
        blend.add_table(fresh)  # keep the oracle in step
        print(f"added table -> global id {table_id} "
              f"on shard {coordinator.table_shard(table_id)}, "
              f"generation {coordinator.generation}")
        seeker = Seekers.SC(["berlin", "paris", "oslo"], k=5)
        assert list(coordinator.execute(seeker)) == list(seeker.execute(blend.context()))

        # Hot-swap ONE shard: rebuild its tables (one replaced) as a new
        # snapshot, swap it in; the other shards never notice.
        shard = 0
        shard_ids = [t for t in coordinator.table_ids()
                     if coordinator.table_shard(t) == shard]
        victim = shard_ids[0]
        replacement = make_table(rng, "replacement")
        tables = dict(blend.lake.items())
        shard_lake = DataLake("cities/shard0v2")
        for tid in shard_ids:
            shard_lake.add_at(tid, replacement if tid == victim else tables[tid])
        sub = Blend(shard_lake, backend="column")
        sub.build_index()
        sub.enable_semantic()
        sub.save(root / "shard0v2")

        coordinator.swap_shard(shard, root / "shard0v2")
        blend.replace_table(victim, replacement)  # oracle applies the same change
        print(f"hot-swapped shard {shard} (table {victim} replaced), "
              f"generation {coordinator.generation}")
        for seeker in queries():
            assert list(coordinator.execute(seeker)) == \
                list(seeker.execute(blend.context()))
        print("post-swap answers still byte-identical to single-process")
        coordinator.close()


if __name__ == "__main__":
    main()
