"""Tests for clocks, hashpower sampling, and blocktime computation."""

from __future__ import annotations

import math
import random

import pytest

from chainsim.timing import (
    HashpowerProfile,
    InvalidHashpower,
    SimulationClock,
    block_rate,
    compute_block_time,
    sample_hashpower,
)


def test_hashpower_profile_bounds():
    HashpowerProfile(own=1.0, total=1.0)
    with pytest.raises(InvalidHashpower):
        HashpowerProfile(own=0.0, total=5.0)
    with pytest.raises(InvalidHashpower):
        HashpowerProfile(own=6.0, total=5.0)


def test_sample_hashpower_range():
    rng = random.Random(1)
    for _ in range(10_000):
        h = sample_hashpower(rng)
        assert 0.0 < h <= 30.0


def test_sample_hashpower_mean():
    rng = random.Random(2)
    n = 1_000_000
    mean = sum(sample_hashpower(rng) for _ in range(n)) / n
    assert abs(mean - 15.0) < 0.1


def test_sample_hashpower_deterministic():
    assert sample_hashpower(random.Random(42)) == sample_hashpower(random.Random(42))


def test_block_time_mean_full_hashpower():
    rng = random.Random(3)
    prof = HashpowerProfile(own=20.0, total=20.0)
    n = 1_000_000
    rate = block_rate(prof, 12.42)
    mean = sum(compute_block_time(rate, 0.0, rng) for _ in range(n)) / n
    assert abs(mean - 12.42) / 12.42 < 0.01


def test_block_time_mean_scales_with_share():
    rng = random.Random(4)
    prof = HashpowerProfile(own=17.0, total=100.0)
    expect = 12.42 * 100.0 / 17.0  # ~73.06
    n = 200_000
    rate = block_rate(prof, 12.42)
    mean = sum(compute_block_time(rate, 0.0, rng) for _ in range(n)) / n
    assert abs(mean - expect) / expect < 0.01


def test_block_time_strictly_in_future():
    rng = random.Random(5)
    prof = HashpowerProfile(own=1.0, total=30.0)
    for _ in range(10_000):
        assert compute_block_time(block_rate(prof, 12.42), 100.0, rng) > 100.0


def test_block_time_exponential_shape():
    # KS distance of the empirical CDF against 1 - exp(-x/mu)
    rng = random.Random(6)
    prof = HashpowerProfile(own=10.0, total=30.0)
    mu = 12.42 * 3.0
    n = 100_000
    rate = block_rate(prof, 12.42)
    draws = sorted(compute_block_time(rate, 0.0, rng) for _ in range(n))
    ks = max(
        max(abs((i + 1) / n - (1 - math.exp(-x / mu))), abs(i / n - (1 - math.exp(-x / mu))))
        for i, x in enumerate(draws)
    )
    assert ks <= 0.01


def test_block_time_rejects_bad_inputs():
    # vetted once, where the rate is worked out; a draw checks nothing
    prof = HashpowerProfile(own=1.0, total=1.0)
    with pytest.raises(ValueError, match="at interval 0.0 is 0.0, too small to have a finite rate"):
        block_rate(prof, 0.0)


def test_wall_clock_scaling():
    clock = SimulationClock(time_scale=100.0, start_instant=0.0)
    # now() reads the real monotonic clock, so just check it is far ahead
    # of an unscaled clock started at the same instant
    plain = SimulationClock(time_scale=1.0, start_instant=0.0)
    assert clock.now() > plain.now() > 0.0
    with pytest.raises(ValueError):
        SimulationClock(time_scale=0.0, start_instant=0.0)


def test_blocktime_sequence_reproducible():
    def seq(seed: int) -> list[float]:
        rng = random.Random(seed)
        rate = block_rate(HashpowerProfile(own=sample_hashpower(rng), total=60.0), 12.42)
        out = []
        t = 0.0
        for _ in range(100):
            t = compute_block_time(rate, t, rng)
            out.append(t)
        return out

    assert seq(99) == seq(99)
    assert seq(99) != seq(100)
