"""Tests for the deterministic in-process simulation engine."""

from __future__ import annotations

import hashlib
import json

import pytest

from chainsim.admin import SimulationConfig
from chainsim.chain import verify_state_invariants
from chainsim.engine import DEFAULT_DELAY_RANGE, resolve_hashpowers, run_logical, slot_seed

TABLE_POWERS = [17.0, 15.8, 12.9, 11.0, 6.6, 6.3, 30.4]

# sha256 of json.dumps(report, sort_keys=True), recorded before run_logical
# was rebuilt on mining.step (the two "deep" cases: before chain switches
# spliced at the fork point); a refactor that changes a byte fails here.
# (miners, duration, seed, hashpowers, delay_range, digest)
GOLDEN_REPORTS = {
    "table-default": (
        7, 1500.0, 1, TABLE_POWERS, (0.05, 0.3),
        "848957323cd58d475418785b3b48df8668bede27897b6a827fb53d4b398bfbb6",
    ),
    "table-zero-delay": (
        7, 1500.0, 2, TABLE_POWERS, (0.0, 0.0),
        "4fd96ce1456583bbc56fba24f6a5f80a1b1d378874c0d14df8887f7093aa3383",
    ),
    "table-heavy-delay": (
        7, 1500.0, 3, TABLE_POWERS, (1.0, 20.0),
        "923ef671cabfd7031fd341e086362f9e4b957f2b3d97f19e27895944084f6b94",
    ),
    "fifty-seeded": (
        50, 1500.0, 4, None, (0.05, 0.3),
        "b114375b8e5e294a82feb2fc156921894bfa044249e6406f89c90de97017c564",
    ),
    "fifty-heavy": (
        50, 600.0, 9, None, (1.0, 20.0),
        "ecf22f4ba9c8248cded4117bb6914a5758366e0f0fd1daca658ce3c568ddc1b6",
    ),
    "single-miner": (
        1, 1500.0, 5, [30.0], (0.05, 0.3),
        "85ce049297ef1389c3e3c837489f1fb7217124ff2bcd78c2302b3c8338a1d355",
    ),
    "five-heavy": (
        5, 3000.0, 6, None, (1.0, 20.0),
        "770fe22d0936b6584de74efe132a88913a53e65268ad30979302bfce3df1e19a",
    ),
    # placeholders remain at the winner: a discarded run
    "five-heavy-discarded": (
        5, 300.0, 0, None, (1.0, 20.0),
        "4487cb16740fbf82ad750dba0bd9f89ac26a01cd9c8c22cec591528632aa4876",
    ),
    # placeholders remain at losing miners only
    "five-heavy-placeholders": (
        5, 300.0, 12, None, (1.0, 20.0),
        "1eb9eece899b50ff04f11433921aea4f29cb932df435d432164cb1f5428b6441",
    ),
    # a chain some 1600 blocks deep, switching at depth
    "table-deep": (
        7, 20000.0, 21, TABLE_POWERS, (0.05, 0.3),
        "dc45028452bda0e5517156733ae6765e48f62466156b6c60c761435e1faa9c4c",
    ),
    # hundreds of switches, many of them across a gap of missing ancestors
    "table-deep-heavy": (
        7, 5000.0, 22, TABLE_POWERS, (1.0, 20.0),
        "0a74185fa2410aeceb74acc22936783a63fbf54c38ccfac907da5e66fe4d4cf0",
    ),
}


def config(seed: int, duration: float = 500.0, n: int = 7, **kw) -> SimulationConfig:
    return SimulationConfig(
        num_miners=n, duration=duration, interval=12.42, seed=seed, **kw
    )


def test_same_seed_replays_bit_identically():
    a = run_logical(config(1), TABLE_POWERS)
    b = run_logical(config(1), TABLE_POWERS)
    assert a.report == b.report
    assert json.dumps(a.report, sort_keys=True) == json.dumps(b.report, sort_keys=True)
    assert a.report["final_chain_ids"] == b.report["final_chain_ids"]


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_golden_digest(case):
    n, duration, seed, powers, delay_range, digest = GOLDEN_REPORTS[case]
    result = run_logical(config(seed, duration=duration, n=n), powers, delay_range=delay_range)
    report = json.dumps(result.report, sort_keys=True).encode()
    assert hashlib.sha256(report).hexdigest() == digest


def test_different_seeds_diverge():
    a = run_logical(config(1), TABLE_POWERS)
    b = run_logical(config(2), TABLE_POWERS)
    assert a.report["final_chain_ids"] != b.report["final_chain_ids"]


def test_states_satisfy_invariants_and_chains_are_plausible():
    result = run_logical(config(7), TABLE_POWERS)
    for state in result.states:
        verify_state_invariants(state)
    if not result.discarded:
        assert result.final_chain is not None
        assert result.final_chain[0].depth == 0
        depth = result.report["total_blocks"]
        assert depth == len(result.final_chain) - 1
        # winner's tip is the deepest tip among all miners
        assert max(s.tip.depth for s in result.states) == result.states[
            result.winner_id - 1
        ].tip.depth


def test_shares_sum_to_100():
    result = run_logical(config(11), TABLE_POWERS)
    assert not result.discarded
    total = sum(m["block_share_pct"] for m in result.report["miners"])
    assert total == pytest.approx(100.0, abs=0.1)
    assert sum(m["blocks"] for m in result.report["miners"]) == result.report["total_blocks"]


def test_throughput_near_expectation():
    # network-wide expectation is duration / interval blocks
    totals = [
        run_logical(config(seed, duration=1000.0), TABLE_POWERS).report["total_blocks"]
        for seed in range(5)
    ]
    mean = sum(totals) / len(totals)
    assert 1000.0 / 12.42 * 0.8 <= mean <= 1000.0 / 12.42 * 1.2


def test_single_miner_owns_every_block():
    totals = []
    for seed in range(3, 13):
        result = run_logical(config(seed, duration=1000.0, n=1), [30.0])
        assert not result.discarded
        assert result.report["miners"][0]["block_share_pct"] == pytest.approx(100.0)
        assert result.tallies[0].uncled == 0
        assert result.tallies[0].switches == 0
        totals.append(result.report["total_blocks"])
    mean = sum(totals) / len(totals)
    assert 0.8 * 80.5 <= mean <= 1.2 * 80.5


def test_forks_show_up_under_heavy_delay():
    # seconds-scale delivery delay at a 12.42 s interval forces competition
    result = run_logical(config(5, duration=800.0), TABLE_POWERS, delay_range=(1.0, 8.0))
    uncles = sum(t.uncled for t in result.tallies)
    switches = sum(t.switches for t in result.tallies)
    assert uncles > 0
    assert switches > 0


def test_hashpower_resolution():
    cfg = config(9)
    assert resolve_hashpowers(cfg, TABLE_POWERS) == TABLE_POWERS
    sampled = resolve_hashpowers(cfg, None)
    assert len(sampled) == 7
    assert all(0 < h <= 30 for h in sampled)
    assert sampled == resolve_hashpowers(cfg, None)  # seed-stable
    with pytest.raises(ValueError):
        resolve_hashpowers(cfg, [1.0, 2.0])


def test_slot_seeds_are_distinct():
    seeds = [slot_seed(123, i) for i in range(20)]
    assert len(set(seeds)) == 20


def test_delay_range_validated():
    with pytest.raises(ValueError):
        run_logical(config(1), TABLE_POWERS, delay_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        run_logical(config(1), TABLE_POWERS, delay_range=(-1.0, 1.0))


def test_zero_delay_network_never_forks():
    result = run_logical(config(13), TABLE_POWERS, delay_range=(0.0, 0.0))
    assert not result.discarded
    assert sum(t.switches for t in result.tallies) == 0
    assert sum(t.dropped_stale for t in result.tallies) == 0
    assert DEFAULT_DELAY_RANGE[0] > 0.0  # default keeps some contention
