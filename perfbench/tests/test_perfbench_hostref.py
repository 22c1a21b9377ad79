import pytest

from perfbench import hostref


def test_speed_factor_is_one_at_nominal_speed():
    assert hostref.speed_factor([hostref.NOMINAL_S] * 5) == pytest.approx(1.0)


def test_speed_factor_scales_a_slow_host_down():
    # reference calls twice as slow: times read at half their measured value
    slow = [2 * hostref.NOMINAL_S] * 4 + [100 * hostref.NOMINAL_S]
    assert hostref.speed_factor(slow) == pytest.approx(0.5)


def test_time_reference_returns_one_time_per_call():
    times = hostref.time_reference(3)
    assert len(times) == 3 and all(t > 0 for t in times)
