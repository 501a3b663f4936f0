"""A served generation is read-only.

Readers share a served ``Blend`` without a lock, so an in-place lifecycle
op would race them (wrong answers, ``IndexError`` from half-grown
arrays). Once a ``DeploymentManager`` holds a ``Blend`` -- through its
constructor or ``swap`` -- every mutation raises
``ReadOnlyDeploymentError`` and the readers see one unchanging state.
"""

import sys
import threading
import time

import pytest

from repro import Blend, Table
from repro.errors import ReadOnlyDeploymentError, ServingError
from repro.serving import DeploymentManager

from tests.serving.conftest import build_blend

QUERIES = [
    ("join", ["berlin", "paris", "cairo"]),
    ("keyword", ["germany", "egypt"]),
    ("multi_column", [("berlin", "germany"), ("oslo", "norway")]),
]


def _answers(blend: Blend) -> list:
    return [
        [(hit.table_id, hit.score) for hit in blend.discover(query, modality, k=6).output]
        for modality, query in QUERIES
    ]


def _mutations(blend: Blend, step: int) -> list:
    table = Table(f"raced{step}", ["city", "country", "pop"], [["berlin", "germany", step]])
    first = blend.lake.table_ids()[0]
    return [
        lambda: blend.add_table(table),
        lambda: blend.replace_table(first, table),
        lambda: blend.remove_table(first),
        blend.compact_index,
    ]


@pytest.mark.parametrize("backend", ["column", "row"])
def test_mutating_a_served_blend_raises_while_readers_run(backend):
    blend = build_blend(seed=29, backend=backend)
    expected = _answers(blend)
    generation = blend.lake.generation
    manager = DeploymentManager(blend)

    stop = threading.Event()
    wrong: list = []
    errors: list = []
    answered = [0]

    def reader() -> None:
        while not stop.is_set():
            try:
                with manager.lease() as deployment:
                    got = _answers(deployment.blend)
            except Exception as exc:  # noqa: BLE001 -- every failure is counted
                errors.append(exc)
                return
            answered[0] += 1
            if got != expected:
                wrong.append(got)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        refused = 0
        attempts = 0
        step = 0
        deadline = time.monotonic() + 30.0
        # Keep trying to write until the readers have answered many times.
        while answered[0] < 30 and not errors and time.monotonic() < deadline:
            for mutate in _mutations(blend, step):
                attempts += 1
                try:
                    mutate()
                except ReadOnlyDeploymentError as exc:
                    assert "save_delta()" in str(exc) and "swap()" in str(exc)
                    refused += 1
            step += 1
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in readers)
    assert answered[0] >= 30
    assert refused == attempts > 0
    assert errors == [] and wrong == []
    assert blend.lake.generation == generation
    assert _answers(blend) == expected


def test_swap_marks_the_replacement_read_only():
    manager = DeploymentManager(build_blend(seed=29))
    replacement = build_blend(seed=31)
    replacement.add_table(Table("before", ["city"], [["rome"]]))  # still a writer
    manager.swap(replacement)
    for mutate in _mutations(replacement, 0):
        with pytest.raises(ReadOnlyDeploymentError):
            mutate()
    assert issubclass(ReadOnlyDeploymentError, ServingError)
