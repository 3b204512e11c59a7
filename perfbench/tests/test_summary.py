import pytest

from summary import TAIL_LADDER, distribution, median, nearest_rank, tail_percentile


def _beyond(count, p):
    ordered = list(range(count))
    return count - 1 - ordered.index(nearest_rank(ordered, p))


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    for count in range(1, 3001):
        chosen = tail_percentile(count)
        higher = [p for p in TAIL_LADDER if chosen is None or p > chosen]
        for p in higher:
            assert _beyond(count, p) < 10, (count, p)
        if chosen is not None:
            assert _beyond(count, chosen) >= 10, count


def test_tail_thresholds():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(360) == 95.0
    assert tail_percentile(10000) == 99.9


def test_distribution_reports_value_percentile_and_count():
    d = distribution(list(range(1000, 0, -1)))
    assert d == {"p50": 500, "tail": 990, "tail_pct": 99.0, "count": 1000}


def test_distribution_refuses_too_few_samples():
    with pytest.raises(ValueError):
        distribution([1.0] * 19)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
