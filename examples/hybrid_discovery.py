"""Hybrid semantic+exact discovery end to end (ROADMAP item 2).

Builds a small lake with both overlap structure and morphological
vocabulary families, then walks the fusion tier: the unified
``Blend.discover()`` facade, a ``HybridSeeker`` driven directly and
through the grammar ("joinable on X AND semantically about Y"),
alpha steering, and the sharded deployment whose fused answers are byte-identical to solo execution:

    $ python examples/hybrid_discovery.py
"""

import tempfile
from pathlib import Path

from repro import Blend, DataLake, HybridSeeker, Table, parse_plan
from repro.index import IndexConfig
from repro.serving import ShardCoordinator
from repro.snapshot import save_sharded


def build_lake() -> DataLake:
    lake = DataLake("hybrid_demo")
    lake.add(Table("eu_offices", ["city", "head"],
                   [("berlin", "customer_1"), ("hamburg", "customer_2"),
                    ("munich", "customer_3"), ("cologne", "customer_4")]))
    lake.add(Table("us_offices", ["city", "head"],
                   [("boston", "client_1"), ("chicago", "client_2"),
                    ("seattle", "client_3")]))
    lake.add(Table("eu_sales", ["city", "total"],
                   [("berlin", "900"), ("hamburg", "410"), ("lisbon", "77")]))
    lake.add(Table("crm_accounts", ["account"],
                   [("customer_5",), ("customer_6",), ("customer_7",)]))
    lake.add(Table("noise", ["n"], [("x1",), ("x2",), ("x3",)]))
    return lake


def main() -> None:
    # semantic=True folds AllVectors into the build contract: no separate
    # enable_semantic() call, and snapshots/shards carry the vectors.
    blend = Blend(build_lake(), backend="column",
                  index_config=IndexConfig(semantic=True, semantic_dimensions=32))
    blend.build_index()
    lake = blend.lake

    # 1. The unified facade: one call, any modality mix, typed result.
    cities = ["berlin", "hamburg", "munich"]
    res = blend.discover(cities, modalities=("join", "semantic"), k=3)
    print("discover(join+semantic):",
          [lake.name_of(t) for t in res.table_ids()])
    print("  per-modality:",
          {m: [lake.name_of(t) for t in r.table_ids()]
           for m, r in res.per_modality.items()})

    # 2. The HY seeker: joinable on the cities AND about customer ids.
    seeker = HybridSeeker(cities, about=["customer_8", "customer_9"], k=3,
                          alpha=0.5)
    fused = seeker.execute(blend.context())
    print("HY(alpha=0.5):", [lake.name_of(t) for t in fused.table_ids()],
          "(overlap + the customer_* vocabulary family)")

    # Alpha steers the blend; 0 and 1 are exactly the pure lanes.
    for alpha in (0.0, 1.0):
        pure = HybridSeeker(cities, about=["customer_8"], k=3, alpha=alpha)
        print(f"HY(alpha={alpha}):",
              [lake.name_of(t) for t in pure.execute(blend.context()).table_ids()])

    # 3. The same mixed predicate, in the grammar.
    plan = parse_plan(
        "Intersect(HY($cities, about=$topic, alpha=0.5), KW($words))",
        bindings={"cities": cities, "topic": ["customer_8"],
                  "words": ["berlin"]},
        k=3,
    )
    run = blend.run(plan)
    print("grammar HY∩KW:", [lake.name_of(t) for t in run.output.table_ids()])

    # 4. Sharded serving: fused answers byte-identical to solo.
    with tempfile.TemporaryDirectory() as tmp:
        save_sharded(blend, Path(tmp) / "shards", num_shards=2)
        with ShardCoordinator.load(Path(tmp) / "shards") as coordinator:
            sharded = coordinator.execute(seeker)
            solo = seeker.execute(blend.context())
            assert [(h.table_id, h.score) for h in sharded] == (
                [(h.table_id, h.score) for h in solo])
            print("2-shard fused ranking identical to solo:",
                  [lake.name_of(t) for t in sharded.table_ids()])


if __name__ == "__main__":
    main()
