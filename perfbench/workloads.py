"""The benchmark's workloads and the inputs each one draws from a seed.

Why each workload exists (the layer it loads):

- logical-deep: 7 Table-2 hashpowers over 150 000 sim-s (about 12k blocks).
  Some 400 chain switches each rebuild the whole chain, so the chain core
  (chainsim.chain, chainsim.blocks) dominates. An O(fork length) chain
  core must show here.
- logical-wide: 50 miners with hashpowers drawn from the seed over
  15 000 sim-s (about 1.2k blocks). The engine heap, draw_own_block and
  the per-receive append/uncle path dominate: every tip change re-draws
  for that miner and each block is received N-1 times. The chain stays
  shallow, so a pure depth fix should show no change here.
- network-small: 3 real miner processes plus the admin, 1500 sim-s at
  time_scale 100. Sockets, framing, threads and the admin phases do the
  work; chain work is under 1 %. Three miners rather than the paper's
  seven keep a 2-core host from measuring mostly its scheduler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from chainsim.harness import ExperimentSpec
from chainsim.timing import sample_hashpower

TABLE2_POWERS = (17.0, 15.8, 12.9, 11.0, 6.6, 6.3, 30.4)
INTERVAL = 12.42
WARMUP_FRACTION = 0.1  # warm-up run length as a share of the measured one


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    num_miners: int
    duration: float  # sim-seconds per measured run
    tiny_duration: float  # sim-seconds per run in the smoke test
    time_scale: float = 1.0
    hashpowers: tuple[float, ...] | None = None  # None: drawn from the seed

    @property
    def network(self) -> bool:
        return self.mode == "network"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("logical-deep", "logical", 7, 150_000.0, 3_000.0, hashpowers=TABLE2_POWERS),
        Workload("logical-wide", "logical", 50, 15_000.0, 1_500.0),
        Workload(
            "network-small",
            "network",
            3,
            1_500.0,
            200.0,
            time_scale=100.0,
            hashpowers=(TABLE2_POWERS[6], TABLE2_POWERS[2], TABLE2_POWERS[5]),
        ),
    )
}


class Inputs:
    """Everything a workload's runs take from the benchmark seed.

    Hashpowers are fixed for the whole invocation, so per-miner shares can
    be pooled over its runs; each run gets its own simulation seed.
    """

    def __init__(self, workload: Workload, seed: int, tiny: bool):
        self.workload = workload
        rng = random.Random(f"perfbench:{workload.name}:{seed}")
        if workload.hashpowers is not None:
            self.hashpowers = workload.hashpowers
        else:
            self.hashpowers = tuple(
                sample_hashpower(rng) for _ in range(workload.num_miners)
            )
        self.duration = workload.tiny_duration if tiny else workload.duration
        self.warmup_seed = rng.randrange(2**31)
        self._seeds = rng

    def next_seed(self) -> int:
        return self._seeds.randrange(2**31)

    def spec(self, run_seed: int, out_dir: str, warmup: bool = False) -> ExperimentSpec:
        w = self.workload
        return ExperimentSpec(
            mode=w.mode,
            num_miners=w.num_miners,
            duration=self.duration * (WARMUP_FRACTION if warmup else 1.0),
            interval=INTERVAL,
            seed=run_seed,
            runs=1,
            time_scale=w.time_scale,
            hashpowers=self.hashpowers,
            out_dir=out_dir,
        )
