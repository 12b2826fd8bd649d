"""The scaled simulation clock, hashpower sampling, and blocktime arithmetic.

A miner's expected time to its next block scales inversely with its share
of the network hashpower: the delay is exponential with mean
interval * total / own, so the whole network produces one block per
interval on average regardless of how the hashpower is split.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

HASHPOWER_MAX = 30.0  # upper edge of the uniform hashpower draw
DEFAULT_DELAY_RANGE = (0.05, 0.3)  # sim-seconds of peer delay, roughly LAN-to-WAN scale


class InvalidHashpower(ValueError):
    """Hashpower values must satisfy 0 < own <= total."""


@dataclass(frozen=True)
class HashpowerProfile:
    own: float
    total: float

    def __post_init__(self) -> None:
        if not 0 < self.own <= self.total:
            raise InvalidHashpower(f"own={self.own}, total={self.total}")


class SimulationClock:
    """Scaled wall clock: simulation seconds elapsed since its origin.

    time_scale is sim-seconds per wall-second, so a scale of 100 packs a
    1500 s simulation into 15 s of real time. start_instant, the origin,
    is the time.monotonic() instant of sim-time 0; a network run's miners
    each turn the admin's one start_at into it, so they share one clock.
    """

    def __init__(self, time_scale: float, start_instant: float):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = time_scale
        self.start_instant = start_instant

    def now(self) -> float:
        return (time.monotonic() - self.start_instant) * self.time_scale


def check_delay_range(delay_range: tuple[float, float]) -> None:
    """A peer delay range, in sim-seconds, is finite and satisfies 0 <= lo <= hi."""
    lo, hi = delay_range
    if not 0 <= lo <= hi < math.inf:
        raise ValueError(f"delay range must be finite with 0 <= lo <= hi, got {delay_range}")


def check_hashpower(value: float) -> None:
    """A miner's hashpower is finite and positive."""
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError("hashpower must be finite and positive")


def check_block_interval(profile: HashpowerProfile, interval: float) -> None:
    """A miner's mean block interval, interval * total / own, is finite and
    so is its reciprocal, the rate of the exponential draw.

    Computed as compute_block_time computes it: a total or a quotient that
    overflows would leave the draw a rate of 0, and a mean whose reciprocal
    overflows a rate of inf, whose every draw is 0, so compute_block_time
    would never find a positive delay.
    """
    mean = interval * profile.total / profile.own
    where = (
        f"the mean block interval of hashpower {profile.own} out of "
        f"{profile.total} at interval {interval}"
    )
    if not mean < math.inf:  # NaN fails too
        raise ValueError(f"{where} is not finite")
    if not (mean > 0 and 1.0 / mean < math.inf):
        raise ValueError(f"{where} is {mean}, too small to have a finite rate")


def check_hashpowers(powers: list[float], interval: float) -> None:
    """A run's hashpowers have a finite total and give every miner a finite mean interval."""
    total = sum(powers)
    if not total < math.inf:
        raise ValueError(f"the hashpowers' total is {total}, not finite")
    for own in powers:
        check_block_interval(HashpowerProfile(own=own, total=total), interval)


def sample_hashpower(rng: random.Random) -> float:
    """Uniform hashpower in (0, 30]; zero excluded so every miner mines."""
    return HASHPOWER_MAX * (1.0 - rng.random())


def compute_block_time(
    profile: HashpowerProfile, interval: float, now: float, rng: random.Random
) -> float:
    """Absolute blocktime of the miner's next own block.

    The delay is exponential with mean interval * total / own. Zero draws
    are rejected so a blocktime is always strictly in the future.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if profile.own <= 0:
        raise InvalidHashpower(f"own={profile.own}")
    mean = interval * profile.total / profile.own
    delta = 0.0
    while delta <= 0.0:
        delta = rng.expovariate(1.0 / mean)
    return now + delta
