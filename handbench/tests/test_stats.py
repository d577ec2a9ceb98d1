import pytest

import stats


def test_percentile_reports_its_sample_count():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    p90 = stats.percentile(values, 90)
    assert p90 == (90, 100, 10)


def test_percentile_refuses_fewer_than_ten_beyond():
    with pytest.raises(ValueError, match="99 samples leave 9"):
        stats.percentile(range(99), 90)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_lower_percentiles_need_fewer_samples():
    assert stats.percentile(range(20), 50).beyond == 10
    with pytest.raises(ValueError):
        stats.percentile(range(19), 50)


def test_median_has_no_tail_requirement():
    assert stats.median([3.0, 1.0, 2.0, 10.0]) == (2.5, 4, 2)
