import pytest

from perfbench import stats


def test_min_samples():
    assert stats.min_samples(0.99) == 1000
    assert stats.min_samples(0.50) == 20


@pytest.mark.parametrize("q, short, enough", [(0.99, 999, 1000), (0.50, 19, 20), (0.90, 99, 100)])
def test_a_percentile_needs_ten_samples_beyond_it(q, short, enough):
    assert stats.percentile(range(short), q).value is None
    found = stats.percentile(range(enough), q)
    assert found.value is not None
    assert sum(1 for x in range(enough) if x > found.value) >= 10


def test_nearest_rank_and_description():
    found = stats.percentile([float(x) for x in range(1, 1001)], 0.99)
    assert found.value == 990.0 and found.n == 1000
    assert found.describe("ms") == "p99=990 ms (n=1000)"
    assert "not reported" in stats.percentile([1.0] * 5, 0.99).describe("ms")

