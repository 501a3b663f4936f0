"""The percentile rule: report the highest percentile that still has at
least ten samples beyond it."""

import pytest

from blendbench.measure import (
    MIN_TAIL_SAMPLES,
    lower_quartile,
    percentile,
    quartile_spread,
    summarize,
    supported_percentile,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 51
    assert percentile(values, 0.95) == 96
    assert percentile(values, 0.999) == 100
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (20, None), (21, 0.50), (40, 0.50), (41, 0.75), (101, 0.90), (201, 0.95),
     (1001, 0.99), (10001, 0.999)],
)
def test_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected is not None:
        assert n - int(expected * n) - 1 >= MIN_TAIL_SAMPLES


def test_supported_percentile_never_overreaches():
    for n in range(1, 3000, 7):
        q = supported_percentile(n)
        if q is not None:
            ordered = list(range(n))
            beyond = sum(1 for v in ordered if v > percentile(ordered, q))
            assert beyond >= MIN_TAIL_SAMPLES


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert quartile_spread([5.0]) is None
    assert quartile_spread([0.0, 0.0, 0.0]) is None
    summary = summarize(values)
    assert summary["n"] == 10 and summary["median"] == 14.5 and summary["q1"] == q1


def test_lower_quartile_is_an_observed_value():
    assert lower_quartile([7.0]) == 7.0
    assert lower_quartile([3.0, 1.0, 2.0]) == 1.0
    assert lower_quartile([4.0, 3.0, 2.0, 1.0]) == 1.0
    assert lower_quartile([8, 7, 6, 5, 4, 3, 2, 1]) == 2
    assert lower_quartile(list(range(10))) == 2
