"""The column executor's rank helper is ``np.unique`` to the bit.

``_unique`` ranks integer keys through a bitmap over their value span
when the span is at most ``_DENSE_SPAN_PER_ROW`` times the key count, and
sorts otherwise. Every property below is checked on inputs built for one
branch, and asserts which branch ran (the sort branch is the only caller
of ``np.unique``).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.sql.executor_column import _DENSE_SPAN_PER_ROW, _unique
from repro.engine.storage.column_store import DictCodes

DTYPES = st.sampled_from([np.int32, np.int64])


def _assert_matches_np_unique(values, sorted_branch):
    expected_uniques, expected_first, expected_inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    with mock.patch.object(np, "unique", wraps=np.unique) as spy:
        uniques, first, inverse = _unique(values, return_index=True)
        plain_uniques, plain_inverse = _unique(values)
    assert spy.call_count == (2 if sorted_branch else 0)
    for got in (uniques, plain_uniques):
        np.testing.assert_array_equal(got, expected_uniques)
        assert got.dtype == expected_uniques.dtype
    for got in (inverse, plain_inverse):
        np.testing.assert_array_equal(got, expected_inverse)
        assert got.dtype == expected_inverse.dtype
    np.testing.assert_array_equal(first, expected_first)
    assert len(uniques) == len(expected_uniques)


@st.composite
def narrow_keys(draw):
    """Keys whose span fits the bitmap: an offset anywhere in the dtype
    (negatives and int64 extremes included) plus a small spread."""
    dtype = draw(DTYPES)
    bounds = np.iinfo(dtype)
    length = draw(st.integers(min_value=1, max_value=60))
    spread = draw(st.integers(min_value=0, max_value=_DENSE_SPAN_PER_ROW * length - 1))
    base = draw(st.integers(min_value=int(bounds.min), max_value=int(bounds.max) - spread))
    steps = st.integers(min_value=0, max_value=spread)
    values = [base + draw(steps) for _ in range(length)]
    return np.array(values, dtype=dtype)


@st.composite
def wide_keys(draw):
    """Keys whose span is far beyond the bitmap budget; both extremes are
    present, so ``max - min`` overflows the dtype."""
    dtype = draw(DTYPES)
    bounds = np.iinfo(dtype)
    extremes = [int(bounds.min) // 2, int(bounds.max) // 2 + 1]
    pool = st.sampled_from(extremes + [-3, 0, 7])
    values = extremes + draw(st.lists(pool, max_size=40))
    return np.array(draw(st.permutations(values)), dtype=dtype)


@given(values=narrow_keys())
@settings(max_examples=80, deadline=None)
def test_bitmap_branch_matches_np_unique(values):
    _assert_matches_np_unique(values, sorted_branch=False)


@given(values=wide_keys())
@settings(max_examples=80, deadline=None)
def test_sort_branch_matches_np_unique(values):
    _assert_matches_np_unique(values, sorted_branch=True)


@given(
    codes=st.lists(st.integers(min_value=-1, max_value=5), min_size=1, max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_dictionary_codes_rank_like_plain_codes(codes):
    """Dictionary codes (NULL = -1) rank on their int32 values; the
    dictionary rides along and does not change a rank."""
    dictionary = np.array(["a", "b", "c", "d", "e", "f"], dtype=object)
    values = DictCodes(np.array(codes, dtype=np.int32), dictionary)
    _assert_matches_np_unique(values, sorted_branch=False)


def test_int64_extremes_take_the_sort():
    _assert_matches_np_unique(np.array([2**62, -(2**62), 2**62], dtype=np.int64), True)
    _assert_matches_np_unique(
        np.array([np.iinfo(np.int64).max, np.iinfo(np.int64).min], dtype=np.int64), True
    )


def test_all_equal_and_empty():
    _assert_matches_np_unique(np.full(5, -(2**62), dtype=np.int64), sorted_branch=False)
    _assert_matches_np_unique(np.array([7], dtype=np.int32), sorted_branch=False)
    _assert_matches_np_unique(np.array([], dtype=np.int64), sorted_branch=True)


def test_span_budget_boundary():
    """Span exactly at the budget uses the bitmap; one more slot sorts."""
    length = 10
    budget = _DENSE_SPAN_PER_ROW * length
    at_budget = np.zeros(length, dtype=np.int64)
    at_budget[-1] = budget - 1
    _assert_matches_np_unique(at_budget, sorted_branch=False)
    over_budget = at_budget.copy()
    over_budget[-1] = budget
    _assert_matches_np_unique(over_budget, sorted_branch=True)


def test_non_integer_keys_sort():
    _assert_matches_np_unique(np.array([0.5, -1.0, 0.5, 2.0]), sorted_branch=True)
