"""Span bookkeeping: self time under nested and overlapping children,
and probes that patch, restore and fail in isolation."""

import sys
import types

import pytest

from blendbench.spans import Recorder, Span, covered_length, self_times


def make(name, start, end, parent=None):
    span = Span(name, parent, None)
    span.start, span.end = start, end
    return span


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)
    assert covered_length([(2, 9), (3, 4)], 0, 10) == pytest.approx(7)  # nested
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_child_coverage_once():
    root = make("root", 0.0, 10.0)
    first = make("child", 1.0, 4.0, root)
    second = make("child", 3.0, 6.0, root)  # overlaps the first (another thread)
    grandchild = make("leaf", 1.5, 2.5, first)
    own = self_times([grandchild, first, second, root])
    assert own[id(root)] == pytest.approx(10.0 - 5.0)  # union [1, 6]
    assert own[id(first)] == pytest.approx(3.0 - 1.0)
    assert own[id(second)] == pytest.approx(3.0)
    assert own[id(grandchild)] == pytest.approx(1.0)


def test_recorder_nests_spans_per_thread_and_tags_requests():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    recorder.set_request("r1")
    with recorder.span("outer"):
        with recorder.span("inner", count=3):
            pass
    inner, outer = recorder.spans
    assert (inner.name, inner.parent, inner.request, inner.count) == ("inner", outer, "r1", 3)
    assert outer.parent is None and outer.duration == 3.0 and inner.duration == 1.0


def test_patch_function_reaches_aliases_and_restores():
    owner = types.ModuleType("blendbench._fake_owner")
    owner.work = lambda items: len(items)
    alias = types.ModuleType("blendbench._fake_alias")
    alias.work = owner.work
    sys.modules[owner.__name__] = owner
    sys.modules[alias.__name__] = alias
    try:
        original = owner.work
        recorder = Recorder()
        assert recorder.patch_function(owner.__name__, "work", "layer.work", lambda a, k, r: r)
        assert alias.work([1, 2, 3]) == 3 and owner.work([1]) == 1
        assert [(s.name, s.count) for s in recorder.spans] == [("layer.work", 3), ("layer.work", 1)]
        recorder.restore()
        assert owner.work is original and alias.work is original
    finally:
        del sys.modules[owner.__name__], sys.modules[alias.__name__]


def test_patch_method_handles_plain_and_class_methods():
    module = types.ModuleType("blendbench._fake_cls")

    class Thing:
        def double(self, x):
            return 2 * x

        @classmethod
        def build(cls, x):
            return cls, x

    module.Thing = Thing
    sys.modules[module.__name__] = module
    try:
        recorder = Recorder()
        assert recorder.patch_method(module.__name__, "Thing", "double", "t.double")
        assert recorder.patch_method(module.__name__, "Thing", "build", "t.build")
        assert Thing().double(4) == 8
        assert Thing.build(5) == (Thing, 5)
        assert sorted(s.name for s in recorder.spans) == ["t.build", "t.double"]
        recorder.restore()
        assert "traced" not in Thing.double.__name__
        assert Thing.build(1) == (Thing, 1) and len(recorder.spans) == 2
    finally:
        del sys.modules[module.__name__]


def test_missing_probe_target_is_isolated():
    recorder = Recorder()
    assert not recorder.patch_function("repro.no_such_module", "f", "gone.module")
    assert not recorder.patch_function("repro.core.results", "no_such_function", "gone.fn")
    assert not recorder.patch_method("repro.core.system", "Blend", "no_such_method", "gone.method")
    assert set(recorder.unavailable) == {"gone.module", "gone.fn", "gone.method"}
    recorder.restore()


def test_spans_survive_exceptions_and_dump(tmp_path):
    recorder = Recorder()

    def boom():
        raise RuntimeError("x")

    traced = recorder.wrap("layer.boom", boom)
    with pytest.raises(RuntimeError):
        traced()
    assert [s.name for s in recorder.spans] == ["layer.boom"]
    assert recorder.dump_jsonl(tmp_path / "trace.jsonl") == 1
    assert '"name": "layer.boom"' in (tmp_path / "trace.jsonl").read_text()
