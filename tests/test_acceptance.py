"""End-to-end acceptance suite.

Nine criteria, one test and one recorded pass/fail line each:

1. fairness: 7 miners, Table-2 hash shares, 20 network runs at 1500 s,
   every mean block share within 3 pp of its hash share
2. throughput: mean main-chain length in [64, 97] at 1000 s and
   [97, 145] at 1500 s over 20 runs
3. agreement: identical post-consensus chains on every miner
4. consensus cost: N tip-only frames and exactly one full-chain transfer
5. determinism: byte-identical results for repeated logical runs
6. fork-choice and winner selection match brute-force oracles
7. wire protocol encode/decode identity plus chunked reassembly
8. reconstruction round-trip; k removed blocks leave exactly k holes
9. block-time draws match the exponential model (mean and KS distance)

The 20 network runs behind criteria 1-4 come from one session fixture;
expect several minutes of wall time for this module.
"""

from __future__ import annotations

import collections
import json
import random
import statistics
from typing import Callable

import numpy as np
import pytest

import test_chain
import wiregen
from conftest import record_criterion

from chainsim.simulation import SimulationConfig
from chainsim.chain import (
    LocalChainState,
    apply_received_block,
    fill_empty_blocks,
    finalize_state,
    reconstruct_chain,
    select_consensus_winner,
    verify_state_invariants,
)
from chainsim.engine import run_logical
from chainsim.harness import ExperimentSpec, run_experiment
from chainsim.protocol import FrameReader, MESSAGE_TYPES, decode, encode
from chainsim.timing import HashpowerProfile, compute_block_time

pytestmark = pytest.mark.acceptance

TABLE2_POWERS = (17.0, 15.8, 12.9, 11.0, 6.6, 6.3, 30.4)
INTERVAL = 12.42
NETWORK_RUNS = 20
NETWORK_SEED = 90210


def checked(number: int, name: str, body: Callable[[], str]) -> None:
    """Run a criterion body; record its line whether it passes or fails."""
    try:
        detail = body()
    except AssertionError as exc:
        record_criterion(number, name, False, str(exc).splitlines()[0] if str(exc) else "failed")
        raise
    record_criterion(number, name, True, detail)


@pytest.fixture(scope="session")
def network_runs(tmp_path_factory):
    """20 accepted network-mode runs of the Table-2 scenario at 1500 s."""
    out_dir = tmp_path_factory.mktemp("acceptance-network")
    spec = ExperimentSpec(
        mode="network",
        num_miners=7,
        duration=1500.0,
        interval=INTERVAL,
        seed=NETWORK_SEED,
        runs=NETWORK_RUNS,
        time_scale=100.0,
        hashpowers=TABLE2_POWERS,
        out_dir=str(out_dir),
    )
    aggregate = run_experiment(spec)
    reports = []
    for r in range(NETWORK_RUNS):
        with open(out_dir / f"run_{r:03d}.json", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return aggregate, reports


def test_criterion_1_fairness(network_runs):
    def body() -> str:
        aggregate, _ = network_runs
        for run in aggregate["per_run"]:
            total = sum(run["block_share_pct"])
            assert abs(total - 100.0) < 0.1, f"run share sum {total} != 100"
        max_dev = aggregate["max_abs_deviation_pp"]
        assert max_dev <= 3.0, (
            f"max |block share - hash share| = {max_dev:.2f} pp > 3.0 "
            f"(deviations: {[round(d, 2) for d in aggregate['deviation_pp']]})"
        )
        return (
            f"7 miners x {aggregate['runs']} runs, max |share deviation| "
            f"{max_dev:.2f} pp (limit 3.0)"
        )

    checked(1, "fairness vs hash share", body)


def test_criterion_2_throughput(network_runs):
    def body() -> str:
        aggregate, _ = network_runs
        mean_1500 = aggregate["mean_total_blocks"]
        totals = []
        for r in range(NETWORK_RUNS):
            config = SimulationConfig(
                num_miners=7,
                duration=1000.0,
                interval=INTERVAL,
                seed=31_000 + r,
            )
            totals.append(run_logical(config, list(TABLE2_POWERS)).report["total_blocks"])
        mean_1000 = statistics.fmean(totals)
        assert 64.0 <= mean_1000 <= 97.0, f"1000 s mean {mean_1000:.1f} outside [64, 97]"
        assert 97.0 <= mean_1500 <= 145.0, f"1500 s mean {mean_1500:.1f} outside [97, 145]"
        return (
            f"mean blocks {mean_1000:.1f} in [64, 97] at 1000 s, "
            f"{mean_1500:.1f} in [97, 145] at 1500 s"
        )

    checked(2, "throughput windows", body)


def test_criterion_3_agreement(network_runs):
    def body() -> str:
        _, reports = network_runs
        for report in reports:
            assert not report["discarded"]
            assert len(report["miner_stats"]) == 7, "missing miner stats"
            want = report["final_chain_ids"]
            for stats in report["miner_stats"]:
                assert stats["final_chain_ids"] == want, (
                    f"miner {stats['miner_id']} chain differs in seed {report['seed']}"
                )
        return f"{len(reports)} runs x 7 miners share identical chain id sequences"

    checked(3, "post-consensus agreement", body)


def test_criterion_4_consensus_cost(network_runs):
    def body() -> str:
        _, reports = network_runs
        for report in reports:
            acc = report["frame_accounting"]
            assert acc["last_block_frames"] == 7, f"LAST_BLOCK frames {acc}"
            assert acc["chain_frames"] == 1, f"CHAIN frames {acc}"
            assert acc["block_frames_during_mining"] == 0, f"stray mining frames {acc}"
        return (
            f"every run: 7 tip-only frames, 1 full-chain transfer, "
            f"0 admin-bound block frames while mining"
        )

    checked(4, "consensus message cost", body)


def test_criterion_5_logical_determinism(tmp_path):
    def body() -> str:
        def spec_for(sub: str) -> ExperimentSpec:
            return ExperimentSpec(
                mode="logical",
                num_miners=5,
                duration=600.0,
                interval=INTERVAL,
                seed=424242,
                runs=3,
                hashpowers=None,
                out_dir=str(tmp_path / sub),
            )

        agg_a = run_experiment(spec_for("a"))
        agg_b = run_experiment(spec_for("b"))
        bytes_a = (tmp_path / "a" / "aggregate.json").read_bytes()
        bytes_b = (tmp_path / "b" / "aggregate.json").read_bytes()
        assert bytes_a == bytes_b, "aggregate files differ between invocations"
        chains_a = [r["final_chain_ids"] for r in agg_a["per_run"]]
        chains_b = [r["final_chain_ids"] for r in agg_b["per_run"]]
        assert chains_a == chains_b, "final chains differ between invocations"
        assert any(len(c) > 1 for c in chains_a), "degenerate empty chains"
        return (
            f"two invocations byte-identical ({len(bytes_a)} bytes, "
            f"{sum(len(c) for c in chains_a)} chain ids)"
        )

    checked(5, "logical-mode determinism", body)


def test_criterion_6_oracle_equivalence():
    def body() -> str:
        rng = random.Random(600_613)
        for i in range(1000):
            unique = i % 2 == 0
            blocks = test_chain.random_dag(
                rng, rng.randint(1, 50), miners=6, unique_deepest=unique
            )
            order = blocks[1:]
            if unique:
                rng.shuffle(order)
            else:
                order.sort(key=lambda b: b.blocktime)
            test_chain.deliver_and_check(blocks, order)
        for _ in range(1000):
            entries = [
                test_chain.entry(m, rng.randint(1, 25), round(rng.uniform(0.1, 200.0), 1))
                for m in rng.sample(range(1, 60), rng.randint(1, 9))
            ]
            want = sorted(
                entries,
                key=lambda e: (-e.last_block.depth, e.last_block.blocktime, e.miner_id),
            )[0].miner_id
            assert select_consensus_winner(entries) == want
        return "1000 delivery instances and 1000 winner sets match brute-force oracles"

    checked(6, "fork-choice oracle equivalence", body)


def test_criterion_7_protocol_round_trip():
    def body() -> str:
        rng = random.Random(77_000)
        seen: collections.Counter = collections.Counter()
        for _ in range(10_000):
            msg = wiregen.random_message(rng)
            seen[msg.type] += 1
            data = encode(msg)
            decoded, consumed = decode(data)
            assert decoded == msg, f"round-trip mismatch for {msg.type}"
            assert consumed == len(data)
        assert set(seen) == MESSAGE_TYPES, f"missing types: {MESSAGE_TYPES - set(seen)}"
        msgs = [wiregen.random_message(rng) for _ in range(50)]
        stream = b"".join(encode(m) for m in msgs)
        for _ in range(20):
            reader = FrameReader()
            got = []
            i = 0
            while i < len(stream):
                step = rng.randint(1, 17)
                got.extend(reader.feed(stream[i : i + step]))
                i += step
            assert got == msgs, "chunked reassembly diverged from whole-frame decode"
            assert reader.pending_bytes == 0
        return (
            f"10000 round-trips covering all {len(seen)} types; "
            f"20 chunked reassemblies of a 50-message stream"
        )

    checked(7, "wire protocol round-trip", body)


def test_criterion_8_reconstruction_round_trip():
    def body() -> str:
        rng = random.Random(88_000)
        for _ in range(1000):
            n = rng.randint(2, 60)
            chain = test_chain.build_line(n)
            store = {b.id: b for b in chain}
            rebuilt, remaining = fill_empty_blocks(
                reconstruct_chain(store, chain[-1]), store
            )
            assert rebuilt == chain, "complete store failed to reproduce the chain"
            assert remaining == 0

            # punch a k-deep hole just above genesis: the only ancestors a
            # tip-down trace cannot name are exactly the removed ones
            k = rng.randint(1, n - 1)
            pruned = {b.id: b for b in chain if not 1 <= b.depth <= k}
            holed, hole_count = fill_empty_blocks(
                reconstruct_chain(pruned, chain[-1]), pruned
            )
            assert hole_count == k, f"{hole_count} holes after removing {k} blocks"
            assert [b.id for b in holed[k + 1 :]] == [b.id for b in chain[k + 1 :]]
            assert holed[k].is_empty and holed[k].id == chain[k].id
            assert holed[0] == chain[0]

            # the live path: the same hole through apply_received_block, as
            # a miner meets it (blocks above the hole first, in any order),
            # and then closed by the missing blocks, also in any order
            state = LocalChainState(chain[0])
            for blk in rng.sample(chain[k + 1 :], n - k):
                apply_received_block(state, blk)
            verify_state_invariants(state)
            assert finalize_state(state) == k, f"live path: {k} removals left other holes"
            assert [b.id for b in state.main_chain[k:]] == [b.id for b in chain[k:]]
            assert state.main_chain[k].is_empty
            for blk in rng.sample(chain[1 : k + 1], k):
                apply_received_block(state, blk)
            verify_state_invariants(state)
            assert state.main_chain == chain, "live path: the missing blocks left a hole"
            assert finalize_state(state) == 0
        return (
            "1000 chains reproduced exactly; k removals always leave k holes, "
            "on the live path too, and closing them restores the chain"
        )

    checked(8, "chain reconstruction round-trip", body)


def test_criterion_9_blocktime_statistics():
    def body() -> str:
        rng = random.Random(99_000)
        profile = HashpowerProfile(own=11.0, total=100.0)
        expected_mean = INTERVAL * profile.total / profile.own
        count = 1_000_000
        draws = np.fromiter(
            (compute_block_time(profile, INTERVAL, 0.0, rng) for _ in range(count)),
            dtype=np.float64,
            count=count,
        )
        mean = float(draws.mean())
        rel_err = abs(mean - expected_mean) / expected_mean
        assert rel_err <= 0.01, f"mean {mean:.3f} vs {expected_mean:.3f}: {rel_err:.4f}"
        xs = np.sort(draws)
        model = 1.0 - np.exp(-xs / expected_mean)
        steps = np.arange(1, count + 1, dtype=np.float64) / count
        ks = float(max(np.max(steps - model), np.max(model - (steps - 1.0 / count))))
        assert ks <= 0.01, f"KS distance {ks:.5f} > 0.01"
        return (
            f"10^6 draws: mean off by {100 * rel_err:.3f}% (limit 1%), "
            f"KS distance {ks:.5f} (limit 0.01)"
        )

    checked(9, "block-time distribution", body)
