import pytest

from bench import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, 50.0),  # 19 * 0.25 < 10: not even p75
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),  # 9.95 samples beyond p95: one short
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_supported_percentile(n) == expected


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = stats.quartiles(values)
    assert median == 14.5
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.spread([3.0]) == 0.0

