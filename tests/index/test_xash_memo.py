"""The query-side token -> XASH memo: ``xash_memoized`` must return exactly
``xash_batch``'s answer -- dtype included -- cold or warm, for both hash
widths, outlier-long tokens, duplicates and empty input, and under
concurrent callers whose inserts force wholesale clears mid-flight."""

import importlib
import sys
import threading

import numpy as np
import pytest

from repro.index.xash import xash_batch, xash_memoized

# The package re-exports the ``xash`` function under the module's name.
xash_module = importlib.import_module("repro.index.xash")


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    monkeypatch.setattr(xash_module, "_memo", {})


def _same(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("hash_size,num_chars", [(63, 2), (128, 2), (63, 3), (128, 1)])
def test_memo_equals_batch_cold_and_warm(hash_size, num_chars):
    tokens = ["berlin", "x", "", "中文", "multi word", "42", "berlin", "x"]
    expected = xash_batch(tokens, hash_size, num_chars)
    _same(xash_memoized(tokens, hash_size, num_chars), expected)  # cold: all misses
    _same(xash_memoized(tokens, hash_size, num_chars), expected)  # warm: all hits
    _same(xash_memoized(tokens[::-1] + ["fresh"], hash_size, num_chars),
          xash_batch(tokens[::-1] + ["fresh"], hash_size, num_chars))  # mixed


def test_wide_hashes_are_python_ints_past_64_bits():
    tokens = [f"token-{i}" for i in range(200)]
    got = xash_memoized(tokens, 128)
    assert got.dtype == object
    assert max(got.tolist()) >= 2**64
    _same(got, xash_batch(tokens, 128))


@pytest.mark.parametrize("hash_size", [63, 128])
def test_long_tokens_take_the_scalar_fallback(hash_size):
    tokens = ["short", "q" * 65 + "z", "a" * 200, "short"]
    _same(xash_memoized(tokens, hash_size), xash_batch(tokens, hash_size))


@pytest.mark.parametrize("hash_size", [63, 128])
def test_empty_input(hash_size):
    _same(xash_memoized([], hash_size), xash_batch([], hash_size))


def test_configs_do_not_share_entries():
    assert xash_memoized(["paris"], 63, 1).tolist() == xash_batch(["paris"], 63, 1).tolist()
    assert xash_memoized(["paris"], 63, 3).tolist() == xash_batch(["paris"], 63, 3).tolist()
    assert set(xash_module._memo) == {(63, 1), (63, 3)}


def test_bound_holds(monkeypatch):
    monkeypatch.setattr(xash_module, "_MEMO_SIZE", 5)
    for start in range(0, 40, 3):
        tokens = [f"t{i}" for i in range(start, start + 4)]
        _same(xash_memoized(tokens), xash_batch(tokens))
        assert len(xash_module._memo[(63, 2)]) <= 5
    xash_memoized([f"big{i}" for i in range(9)])  # a batch over the bound is not kept
    assert len(xash_module._memo[(63, 2)]) <= 5


@pytest.mark.parametrize("hash_size", [63, 128])
def test_concurrent_callers_survive_wholesale_clears(monkeypatch, hash_size):
    monkeypatch.setattr(xash_module, "_MEMO_SIZE", 6)
    vocabulary = [f"w{i}-{'x' * (i % 5)}" for i in range(40)]
    errors: list[BaseException] = []
    start = threading.Barrier(8)

    def caller(seed: int) -> None:
        try:
            start.wait()
            for step in range(60):
                offset = (seed * 5 + step * 3) % len(vocabulary)
                tokens = (vocabulary[offset:] + vocabulary[:offset])[:4]
                _same(xash_memoized(tokens, hash_size), xash_batch(tokens, hash_size))
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave threads inside each call
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
