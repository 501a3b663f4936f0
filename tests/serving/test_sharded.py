"""Shard-count invariance: a :class:`ShardCoordinator` over K shards is
byte-identical to single-process execution -- for every seeker modality,
any K, both backends, and across interleaved lifecycle mutations. The
oracle is always a plain solo :class:`Blend` driven through the exact
same operation sequence."""

import json
import os
import random
import signal
import sys
import threading

import pytest

from repro import Blend, DataLake, Seekers, Table
from repro.core.results import (
    SeekerPartials,
    count_partials,
    merge_partials,
    ranked_partials,
)
from repro.core.hybrid import HybridSeeker
from repro.core.semantic import SemanticSeeker
from repro.errors import (
    LakeError,
    SeekerError,
    ServingError,
    ShardUnavailableError,
    SnapshotError,
    StaleContextError,
)
from repro.serving import ShardCoordinator, ShardWorker
from repro.snapshot import read_shard_manifest, save_sharded

NAMES = [f"e{i}" for i in range(40)]
CITIES = [f"c{i}" for i in range(12)]


def _make_table(rng: random.Random, name: str) -> Table:
    rows = [
        [rng.choice(NAMES), rng.choice(CITIES), str(rng.randrange(60))]
        for _ in range(rng.randrange(5, 14))
    ]
    return Table(name, ["name", "city", "score"], rows)


def _build_blend(seed: int, backend: str, tables: int = 14) -> Blend:
    rng = random.Random(seed)
    lake = DataLake(f"shardlake-{seed}")
    for i in range(tables):
        lake.add(_make_table(rng, f"t{i}"))
    blend = Blend(lake, backend=backend)
    blend.build_index()
    blend.enable_semantic()
    return blend


def _queries(rng: random.Random) -> list:
    """One seeker per modality, with query values drawn from the lake's
    vocabulary so every answer is non-trivial."""
    picks = rng.sample(NAMES, 6)
    return [
        Seekers.SC(picks[:4], k=5),
        Seekers.KW([picks[0], rng.choice(CITIES)], k=4),
        Seekers.MC([(picks[1], rng.choice(CITIES)), (picks[2], rng.choice(CITIES))], k=5),
        Seekers.C(
            [rng.choice(NAMES) for _ in range(24)],
            [str(i * 3 % 7) for i in range(24)],
            k=4,
            min_support=1,
        ),
        SemanticSeeker(picks[4:], k=4),
        SemanticSeeker(picks[:2], k=3),
        HybridSeeker(picks[:3], about=picks[3:], k=4, alpha=0.4),
    ]


def _coordinator(blend: Blend, tmp_path, num_shards: int, **kwargs) -> ShardCoordinator:
    root = tmp_path / f"shards-{num_shards}"
    save_sharded(blend, root, num_shards=num_shards)
    return ShardCoordinator.load(root, **kwargs)


def _assert_parity(coordinator: ShardCoordinator, oracle: Blend, seekers) -> None:
    context = oracle.context()
    for seeker in seekers:
        solo = seeker.execute(context)
        sharded = coordinator.execute(seeker)
        assert list(sharded) == list(solo), (
            f"{seeker.kind} diverged on {coordinator.num_shards} shard(s): "
            f"{list(sharded)} != {list(solo)}"
        )


# -- the core property: K shards == 1 process, all modalities ------------------


@pytest.mark.parametrize("backend", ["row", "column"])
@pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
def test_shard_count_invariance(tmp_path, backend, num_shards):
    blend = _build_blend(seed=101, backend=backend)
    rng = random.Random(202)
    with _coordinator(blend, tmp_path, num_shards) as coordinator:
        assert coordinator.num_shards == min(num_shards, 14)
        for _ in range(3):
            _assert_parity(coordinator, blend, _queries(rng))


@pytest.mark.parametrize("backend", ["row", "column"])
def test_batched_execution_matches_serial(tmp_path, backend):
    blend = _build_blend(seed=303, backend=backend)
    rng = random.Random(404)
    seekers = _queries(rng)
    with _coordinator(blend, tmp_path, 3) as coordinator:
        batched = coordinator.execute_batch(seekers)
        context = blend.context()
        for seeker, result in zip(seekers, batched):
            assert list(result) == list(seeker.execute(context))


def test_coordinator_batch_lands_whole_on_a_shard(tmp_path, monkeypatch):
    """A coordinator batch reaches each shard as ONE
    ``execute_batch_partials`` call, so its same-kind seekers share the
    kernels' index passes."""
    blend = _build_blend(seed=303, backend="column")
    rng = random.Random(505)
    seekers = [Seekers.SC(rng.sample(NAMES, 3), k=4) for _ in range(6)]
    calls: list[list] = []
    real = Blend.execute_batch_partials

    def spy(self, batch):
        calls.append([seeker.kind for seeker in batch])
        return real(self, batch)

    monkeypatch.setattr(Blend, "execute_batch_partials", spy)
    with _coordinator(blend, tmp_path, 1) as coordinator:
        batched = coordinator.execute_batch(seekers)
    context = blend.context()
    for seeker, result in zip(seekers, batched):
        assert list(result) == list(seeker.execute(context))
    assert calls == [["SC"] * 6]


# -- lifecycle ops interleaved with queries ------------------------------------


@pytest.mark.parametrize("backend", ["row", "column"])
def test_interleaved_lifecycle_parity(tmp_path, backend):
    """Drive the same add/remove/replace sequence through the
    coordinator and a solo oracle; ids and rankings must stay locked
    together the whole way."""
    blend = _build_blend(seed=505, backend=backend)
    rng = random.Random(606)
    with _coordinator(blend, tmp_path, 3) as coordinator:
        for step in range(6):
            action = rng.choice(["add", "remove", "replace"])
            if action == "add":
                table = _make_table(rng, f"new{step}")
                assert coordinator.add_table(table) == blend.add_table(table)
            elif action == "remove":
                victim = rng.choice(coordinator.table_ids())
                coordinator.remove_table(victim)
                blend.remove_table(victim)
            else:
                victim = rng.choice(coordinator.table_ids())
                table = _make_table(rng, f"repl{step}")
                coordinator.replace_table(victim, table)
                blend.replace_table(victim, table)
            assert coordinator.table_ids() == blend.lake.table_ids()
            _assert_parity(coordinator, blend, _queries(rng))


def test_add_routes_to_least_loaded_shard(tmp_path):
    blend = _build_blend(seed=707, backend="column", tables=6)
    with _coordinator(blend, tmp_path, 3) as coordinator:
        table_id = coordinator.add_table(_make_table(random.Random(1), "fresh"))
        shard = coordinator.table_shard(table_id)
        loads = [0] * coordinator.num_shards
        for tid in coordinator.table_ids():
            loads[coordinator.table_shard(tid)] += 1
        assert loads[shard] == min(loads) or loads[shard] == min(loads) + 1


def test_lifecycle_routing_errors(tmp_path):
    blend = _build_blend(seed=808, backend="column", tables=6)
    with _coordinator(blend, tmp_path, 2) as coordinator:
        with pytest.raises(LakeError):
            coordinator.remove_table(999)
        with pytest.raises(LakeError):
            coordinator.table_shard(999)
        with pytest.raises(ServingError):
            coordinator.add_table(_make_table(random.Random(2), "x"), shard=9)


# -- generation stamping through the coordinator -------------------------------


@pytest.mark.parametrize("backend", ["row", "column"])
def test_generation_stamping_rejects_stale_readers(tmp_path, backend):
    blend = _build_blend(seed=909, backend=backend, tables=6)
    seeker = Seekers.SC(NAMES[:3], k=3)
    with _coordinator(blend, tmp_path, 2) as coordinator:
        generation = coordinator.generation
        coordinator.execute(seeker, generation=generation)  # current: fine
        coordinator.add_table(_make_table(random.Random(3), "bump"))
        assert coordinator.generation == generation + 1
        with pytest.raises(StaleContextError):
            coordinator.execute(seeker, generation=generation)
        coordinator.execute(seeker, generation=coordinator.generation)


# -- shard hot-swap ------------------------------------------------------------


@pytest.mark.parametrize("backend", ["row", "column"])
def test_swap_shard_parity_and_routing(tmp_path, backend):
    """Replace one shard's snapshot wholesale (its tables with one
    swapped out for new content); queries match an oracle that applied
    the same replacement, and routing follows the new table set."""
    blend = _build_blend(seed=111, backend=backend)
    rng = random.Random(222)
    with _coordinator(blend, tmp_path, 3) as coordinator:
        shard = 1
        shard_ids = [
            tid for tid in coordinator.table_ids()
            if coordinator.table_shard(tid) == shard
        ]
        victim = shard_ids[0]
        replacement_table = _make_table(rng, "swapped-in")

        # Build the replacement shard snapshot: same tables at the same
        # global ids, except the victim's content is replaced.
        tables = dict(blend.lake.items())
        shard_lake = DataLake(f"{blend.lake.name}/shard{shard}v2")
        for tid in shard_ids:
            shard_lake.add_at(
                tid, replacement_table if tid == victim else tables[tid]
            )
        sub = Blend(shard_lake, backend=backend)
        sub.build_index()
        sub.enable_semantic()
        snapshot = tmp_path / "shard-v2"
        sub.save(snapshot)

        generation = coordinator.generation
        new_ids = coordinator.swap_shard(shard, snapshot)
        assert sorted(new_ids) == sorted(shard_ids)
        assert coordinator.generation == generation + 1
        assert coordinator.table_shard(victim) == shard

        blend.replace_table(victim, replacement_table)
        _assert_parity(coordinator, blend, _queries(rng))


# -- process workers -----------------------------------------------------------


def test_process_worker_smoke(tmp_path):
    """One coordinator over child-process workers: query parity plus a
    lifecycle op crossing the pipe."""
    blend = _build_blend(seed=333, backend="column", tables=8)
    rng = random.Random(444)
    with _coordinator(blend, tmp_path, 2, processes=True) as coordinator:
        _assert_parity(coordinator, blend, _queries(rng))
        table = _make_table(rng, "piped")
        assert coordinator.add_table(table) == blend.add_table(table)
        _assert_parity(coordinator, blend, _queries(rng))
        with pytest.raises(LakeError):
            coordinator.remove_table(424242)


# -- failure contract: errors, concurrent callers, dead shards ----------------


class ExplodingSeeker:
    """Picklable seeker whose shard-side partials raise."""

    kind = "BOOM"
    k = 3

    def partials(self, context):
        raise RuntimeError("boom")


TRANSPORTS = pytest.mark.parametrize("processes", [False, True], ids=["thread", "process"])


@TRANSPORTS
def test_failed_gather_leaves_coordinator_in_step(tmp_path, processes):
    """Every shard raises; the coordinator still reads every reply, so
    the next good query gets its own answer, not a leftover."""
    blend = _build_blend(seed=121, backend="column", tables=9)
    good = Seekers.SC(NAMES[:4], k=5)
    expected = list(good.execute(blend.context()))
    with _coordinator(blend, tmp_path, 3, processes=processes) as coordinator:
        for _ in range(2):
            with pytest.raises(RuntimeError, match="boom"):
                coordinator.execute_batch([good, ExplodingSeeker()])
            assert list(coordinator.execute(good)) == expected


@TRANSPORTS
def test_concurrent_callers_get_their_own_answers(tmp_path, processes):
    blend = _build_blend(seed=131, backend="column", tables=8)
    rng = random.Random(141)
    seekers = [Seekers.SC(rng.sample(NAMES, 3), k=4) for _ in range(40)]
    context = blend.context()
    expected = [list(seeker.execute(context)) for seeker in seekers]
    answers: list = [None] * len(seekers)
    errors: list[BaseException] = []
    interval = sys.getswitchinterval()
    with _coordinator(blend, tmp_path, 2, processes=processes) as coordinator:

        def caller(first: int) -> None:
            for i in range(first, len(seekers), 4):
                try:
                    answers[i] = list(coordinator.execute(seekers[i]))
                except Exception as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=caller, args=(t,)) for t in range(4)]
        sys.setswitchinterval(1e-5)  # force thread switches mid round trip
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert answers == expected


def test_killed_shard_child_raises_typed_error(tmp_path):
    """SIGKILL one shard child: queries raise ShardUnavailableError naming
    it, the live shards' replies are drained (their next requests read
    their own answers), and close() still returns."""
    blend = _build_blend(seed=151, backend="column", tables=9)
    seeker = Seekers.SC(NAMES[:4], k=5)
    coordinator = _coordinator(blend, tmp_path, 3, processes=True)
    try:
        coordinator.execute(seeker)
        victim = coordinator.workers[1]._runner
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        for _ in range(2):
            with pytest.raises(ShardUnavailableError, match="shard 1"):
                coordinator.execute(seeker)
        for shard in (0, 2):
            assert "delta_fraction" in coordinator.shard_delta_stats(shard)
        table = _make_table(random.Random(5), "survivor")
        assert coordinator.table_shard(coordinator.add_table(table, shard=2)) == 2
        with pytest.raises(ShardUnavailableError, match="shard 1"):
            coordinator.add_table(table, shard=1)
    finally:
        coordinator.close()


# -- merge_partials edge cases -------------------------------------------------


def test_merge_rejects_mixed_kinds():
    ranked = ranked_partials([(1, 2.0)], 8)
    counts = count_partials([1], [2])
    with pytest.raises(SeekerError):
        merge_partials([ranked, counts], 5)


def test_merge_rejects_mixed_fetch_cuts():
    with pytest.raises(SeekerError):
        merge_partials(
            [ranked_partials([(1, 2.0)], 8), ranked_partials([(2, 1.0)], 16)], 5
        )


def test_merge_of_nothing_is_empty():
    assert len(merge_partials([], 5)) == 0
    assert len(merge_partials([None, ranked_partials([], 8)], 5)) == 0


def test_partials_validation():
    with pytest.raises(SeekerError):
        SeekerPartials("bogus")
    with pytest.raises(SeekerError):
        SeekerPartials("ranked", table_ids=ranked_partials([(1, 2.0)], 8).table_ids)


# -- sharded snapshot format ---------------------------------------------------


def test_save_sharded_manifest_round_trip(tmp_path):
    blend = _build_blend(seed=555, backend="row", tables=6)
    root = tmp_path / "snap"
    save_sharded(blend, root, num_shards=2)
    manifest = read_shard_manifest(root)
    assert manifest["backend"] == "row"
    assert manifest["num_shards"] == 2
    assert manifest["next_table_id"] == blend.lake.num_slots
    routed = sorted(int(tid) for tid in manifest["table_shard"])
    assert routed == blend.lake.table_ids()


def test_save_sharded_refuses_unindexed_and_nonempty(tmp_path):
    lake = DataLake("raw")
    lake.add(_make_table(random.Random(0), "only"))
    unindexed = Blend(lake, backend="column")
    with pytest.raises(SnapshotError):
        save_sharded(unindexed, tmp_path / "a", num_shards=2)
    occupied = tmp_path / "b"
    occupied.mkdir()
    (occupied / "junk").write_text("x")
    blend = _build_blend(seed=666, backend="column", tables=4)
    with pytest.raises(SnapshotError):
        save_sharded(blend, occupied, num_shards=2)


def test_load_checks_backend(tmp_path):
    blend = _build_blend(seed=777, backend="column", tables=4)
    root = tmp_path / "snap"
    save_sharded(blend, root, num_shards=2)
    with pytest.raises(SnapshotError):
        ShardCoordinator.load(root, backend="row")


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda m: m["table_shard"].update({"0": 7}), id="shard-7-of-2"),
        pytest.param(lambda m: m["table_shard"].update({"x": 0}), id="table-id-x"),
        pytest.param(lambda m: m.update(next_table_id="abc"), id="next-id-abc"),
        pytest.param(lambda m: m.update(next_table_id=3), id="next-id-taken"),
    ],
)
def test_malformed_routing_refused_at_load(tmp_path, corrupt):
    """A routing entry the coordinator would trip over later (a shard
    index out of range, a non-integer table id, an unusable next id) is a
    SnapshotError naming shards.json at load, not an IndexError or a raw
    ValueError on the first lifecycle op."""
    blend = _build_blend(seed=999, backend="column", tables=4)  # table ids 0-3
    root = tmp_path / "snap"
    save_sharded(blend, root, num_shards=2)
    manifest_path = root / "shards.json"
    manifest = json.loads(manifest_path.read_text())
    corrupt(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match=r"shards\.json"):
        read_shard_manifest(root)
    with pytest.raises(SnapshotError, match=r"shards\.json"):
        ShardCoordinator.load(root)


def test_coordinator_requires_workers():
    with pytest.raises(ServingError):
        ShardCoordinator([])


@pytest.mark.parametrize("process", [False, True], ids=["thread", "process"])
def test_worker_rejects_unknown_op(tmp_path, process):
    blend = _build_blend(seed=888, backend="column", tables=4)
    worker = ShardWorker(blend.save(tmp_path / "solo"), process=process)
    try:
        with pytest.raises(ServingError):
            worker.request("frobnicate")
        assert worker.request("table_ids") == blend.lake.table_ids()
    finally:
        worker.close()
