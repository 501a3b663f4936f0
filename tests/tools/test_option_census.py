"""The option census (``tests/tools/option_census.py``) on this tree."""

from tools.option_census import census

# The options no caller outside the tests sets, each kept for a reason.
KEPT = {
    ("src/repro/serving/server.py", "BlendServer.__init__", "host"): "deployment setting",
    ("src/repro/serving/server.py", "BlendServer.__init__", "port"): "deployment setting",
    ("src/repro/serving/sharded.py", "ShardCoordinator.load", "processes"):
        "deployment setting: each shard on a thread or in its own process",
    ("src/repro/serving/sharded.py", "ShardCoordinator.load", "backend"):
        "checks the snapshot's backend, as Blend.load(backend=) does",
    ("src/repro/serving/stats.py", "ServingStats.__init__", "clock"):
        "lets a test substitute a fake clock",
    ("src/repro/lake/datalake.py", "DataLake.__init__", "tables"):
        "the lake's contents, not a setting",
}


def test_every_never_set_option_is_kept_for_a_reason():
    options, found = census()
    assert {option for option in options if option not in found} == set(KEPT)


def test_cls_super_and_positional_calls_resolve():
    options, found = census()
    # Set only by ``cls(...)`` in a classmethod.
    assert ("src/repro/index/stats.py", "LakeStatistics", "num_rows") in found
    assert ("src/repro/core/optimizer/cost_model.py", "CostModel.__init__", "models") in found
    # Set only by ``super().__init__(k)`` in the seeker subclasses.
    assert ("src/repro/core/seekers.py", "Seeker.__init__", "k") in found
    # A positional pass sets an option; the index relation is no option.
    assert ("src/repro/core/seekers.py", "Seeker.execute", "rewrite") in found
    assert ("src/repro/index/alltables.py", "IndexConfig", "table_name") not in options
