"""The percentile-rank rule: the reported tail keeps ten samples beyond it."""

import pytest

from perfbench.stats import describe, percentile, rank_index, ratio, samples_beyond, summarize, tail_percentile


@pytest.mark.parametrize(
    ("n", "expected"),
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    """The chosen percentile has >= 10 samples beyond it; the next higher one has fewer."""
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_nearest_rank_percentiles():
    """Nearest rank: p50 of 1..10 is 5, p90 is 9, p100 is 10."""
    samples = list(range(1, 11))
    assert rank_index(10, 50) == 4
    assert percentile(samples, 50) == 5
    assert percentile(samples, 90) == 9
    assert percentile(samples, 100) == 10


def test_summarize_falls_back_to_max_on_small_samples():
    """Below twenty samples no percentile qualifies; the maximum is reported, marked as such."""
    small = summarize([3.0, 1.0, 2.0])
    assert small == {"n": 3, "p50": 2.0, "tail_pct": None, "tail": 3.0}
    assert "max 3" in describe(small)
    large = summarize(list(range(1000)))
    assert large["tail_pct"] == 99.0 and large["tail"] == 989
    assert "p99 989" in describe(large) and "n=1000" in describe(large)


def test_ratio_of_zero_base_is_zero():
    """A zero base gives 0 rather than an error."""
    assert ratio(3, 4) == 0.75
    assert ratio(0, 0) == 0.0
