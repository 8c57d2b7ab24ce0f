"""Host-speed normalisation arithmetic and sampling."""

import time

import pytest

import hostspeed
from hostspeed import REF_S, HostClock, PlainClock


def _clock(samples):
    clock = HostClock(period_s=None)
    clock.samples = list(samples)
    return clock


def test_gaps_are_weighted_by_their_bracketing_samples():
    # samples of REF, 2*REF and REF: every gap runs at half speed
    clock = _clock([(0.0, REF_S), (1.0, 1.0 + 2 * REF_S),
                    (2.0, 2.0 + REF_S)])
    first = 1.0 - REF_S
    second = 1.0 - 2 * REF_S
    assert clock.raw(0.0, 2.0) == pytest.approx(first + second)
    assert clock.normalised(0.0, 2.0) == pytest.approx(
        (first + second) / 1.5
    )
    # a part of one gap
    assert clock.raw(0.25, 0.75) == pytest.approx(0.5)
    assert clock.normalised(0.25, 0.75) == pytest.approx(0.5 / 1.5)
    # samples themselves never count
    assert clock.raw(1.0, 1.0 + 2 * REF_S) == 0.0


def test_an_open_gap_is_closed_by_a_new_sample():
    with HostClock(period_s=None) as clock:
        t0 = time.perf_counter()
        time.sleep(0.05)
        t1 = time.perf_counter()
        assert clock.raw(t0, t1) == pytest.approx(t1 - t0)
        assert len(clock.samples) == 2
    assert len(clock.samples) == 3


def test_periodic_samples_are_left_out_of_raw_time():
    with HostClock(period_s=0.02) as clock:
        t0 = time.perf_counter()
        end = t0 + 0.3
        while time.perf_counter() < end:
            pass
        t1 = time.perf_counter()
    inside = sum(
        e - s for s, e in clock.samples if s >= t0 and e <= t1
    )
    assert len(clock.samples) > 5
    assert clock.raw(t0, t1) == pytest.approx(t1 - t0 - inside)
    assert clock.normalised(t0, t1) > 0


def test_bracket_factor_and_plain_clock():
    assert hostspeed.bracket_factor([REF_S] * 3, [3 * REF_S] * 3) == (
        pytest.approx(0.5)
    )
    with PlainClock() as clock:
        clock.sample()
        assert clock.raw(1.0, 3.5) == clock.normalised(1.0, 3.5) == 2.5
