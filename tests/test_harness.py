"""Harness and CLI behavior: spec parsing, aggregation, retries, fairness."""

import errno
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from chainsim import cli, harness
from chainsim.admin import AdminServer, RegistrationTimeout
from chainsim.harness import (
    _SPEC_FIELD_TYPES,
    MODES,
    ExperimentFailure,
    ExperimentSpec,
    fairness_check,
    load_spec,
    render_experiment_table,
    render_shares_csv,
    run_experiment,
    run_seed_for,
)
from chainsim.simulation import SimulationConfig, resolve_hashpowers


def make_spec(tmp_path, **overrides) -> ExperimentSpec:
    base = dict(
        mode="logical",
        num_miners=3,
        duration=300.0,
        interval=12.42,
        seed=11,
        runs=3,
        hashpowers=(10.0, 20.0, 30.0),
        out_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        make_spec(tmp_path, mode="quantum")
    with pytest.raises(ValueError):
        make_spec(tmp_path, runs=0)
    with pytest.raises(ValueError):
        make_spec(tmp_path, hashpowers=(1.0, 2.0))


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(time_scale=100.0), "logical spec takes no time_scale"),
        (dict(time_scale=0.5), "logical spec takes no time_scale"),
        (dict(delay_range=(2.0, 1.0)), "delay range"),
        (dict(mode="network", delay_range=(-0.1, 1.0)), "delay range"),
        (dict(mode="network", delay_range=(0.0, float("inf"))), "delay range"),
        (dict(mode="network", delay_range=(float("nan"), 1.0)), "delay range"),
        (dict(mode="network", delay_range=(1.0,)), "unpack"),
    ],
)
def test_spec_rejects_a_field_its_mode_ignores_or_a_bad_delay_range(tmp_path, overrides, match):
    with pytest.raises(ValueError, match=match):
        make_spec(tmp_path, **overrides)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "hashpowers, cause",
    [((1e308, 1e308), "total is inf"), ((5e-324, 10.0), "mean block interval")],
    ids=["total-overflows", "mean-overflows"],
)
def test_spec_refuses_hashpowers_that_overflow(tmp_path, mode, hashpowers, cause):
    with pytest.raises(ValueError, match=cause):
        make_spec(tmp_path, mode=mode, num_miners=2, hashpowers=hashpowers)


def test_load_spec_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "mode": "logical",
                "num_miners": 2,
                "duration": 100.0,
                "interval": 12.42,
                "seed": 5,
                "runs": 2,
                "hashpowers": [3.0, 9.0],
                "out_dir": str(tmp_path / "o"),
            }
        )
    )
    spec = load_spec(str(path))
    assert spec.num_miners == 2
    assert spec.hashpowers == (3.0, 9.0)

    path.write_text(json.dumps({"mode": "logical", "num_miners": 1, "duration": 1.0,
                                "interval": 1.0, "seed": 1, "runs": 1,
                                "hashpowers": "random"}))
    assert load_spec(str(path)).hashpowers is None

    path.write_text(json.dumps({"mode": "logical", "num_miners": 1, "duration": 1.0,
                                "interval": 1.0, "seed": 1, "runs": 1, "bogus": True}))
    with pytest.raises(ValueError, match="bogus"):
        load_spec(str(path))

    # the harness picks no ports, so base_port is no longer a field
    path.write_text(json.dumps({"mode": "network", "num_miners": 1, "duration": 1.0,
                                "interval": 1.0, "seed": 1, "runs": 1, "base_port": 9000}))
    with pytest.raises(ValueError, match="base_port"):
        load_spec(str(path))

    # a bad network spec fails here, before any directory or process is made
    network = {"mode": "network", "num_miners": 2, "duration": 1.0, "interval": 1.0, "seed": 1,
               "runs": 1, "time_scale": 100.0, "out_dir": str(tmp_path / "net")}
    for field, value, match in [
        ("delay_range", [0.3, 0.05], "delay range"),
        ("duration", -5, "duration must be positive"),
        ("interval", 0, "interval must be positive"),
        ("interval", 5e-324, "at interval 5e-324 "),
        ("duration", 1e13, r"expects 1e\+13 blocks, over the 1e\+12 a run may make"),
        # the transaction pool is gone, so tx_pool_size is no longer a field
        ("tx_pool_size", 100, r"unknown spec fields: \['tx_pool_size'\]"),
        ("num_miners", 0, "need at least one miner"),
        ("hashpowers", [0, 5], "hashpower must be finite and positive"),
        ("hashpowers", [-1.0, 5], "hashpower must be finite and positive"),
    ]:
        path.write_text(json.dumps({**network, field: value}))
        with pytest.raises(ValueError, match=match):
            load_spec(str(path))
    assert not (tmp_path / "net").exists()


def test_load_spec_checks_the_json_type_of_every_field(tmp_path):
    assert set(_SPEC_FIELD_TYPES) == {f.name for f in fields(ExperimentSpec)}
    base = {"mode": "logical", "num_miners": 2, "duration": 1.0, "interval": 1.0, "seed": 1,
            "runs": 1}
    path = tmp_path / "spec.json"
    for field, value in [("runs", True), ("duration", "1"), ("hashpowers", [10**400, 1]),
                         ("hashpowers", "equal"), ("delay_range", [0.1, 0.2, 0.3]),
                         ("out_dir", 5), ("interval", float("nan"))]:
        path.write_text(json.dumps({**base, field: value}))
        with pytest.raises(ValueError, match=f"spec field {field} must be"):
            load_spec(str(path))


def test_retry_seeds_are_disjoint():
    first = {run_seed_for(100, r, 0) for r in range(50)}
    retried = {run_seed_for(100, r, a) for r in range(50) for a in (1, 2, 3)}
    assert not first & retried


def test_logical_experiment_outputs(tmp_path):
    spec = make_spec(tmp_path)
    aggregate = run_experiment(spec)
    out = tmp_path / "out"
    assert (out / "aggregate.json").exists()
    assert (out / "table.txt").exists()
    assert (out / "shares.csv").exists()
    for r in range(spec.runs):
        assert (out / f"run_{r:03d}.json").exists()
    assert aggregate["runs"] == 3
    assert aggregate["retries"] == 0
    assert len(aggregate["per_run"]) == 3
    assert abs(sum(aggregate["mean_block_share_pct"]) - 100.0) < 0.1
    assert abs(sum(aggregate["mean_hash_share_pct"]) - 100.0) < 0.1
    # hash shares follow from the explicit powers 10/20/30
    assert aggregate["mean_hash_share_pct"][2] == pytest.approx(50.0)
    table = render_experiment_table(aggregate)
    assert "runs: 3" in table
    csv = render_shares_csv(aggregate)
    assert csv.startswith("miner,hash_share_pct,mean_block_share_pct")
    assert len(csv.strip().splitlines()) == 4


def test_aggregate_stale_rate_is_recomputed_from_the_run_reports(tmp_path):
    spec = make_spec(tmp_path, duration=3000.0, delay_range=(2.0, 8.0))
    aggregate = run_experiment(spec)
    created = final = 0
    for r, row in enumerate(aggregate["per_run"]):
        report = json.loads((tmp_path / "out" / f"run_{r:03d}.json").read_text())
        run_created = sum(s["tally"]["created"] for s in report["miner_stats"])
        run_final = len(report["final_chain_ids"]) - 1  # genesis is nobody's block
        assert row["created_blocks"] == run_created
        assert row["stale_rate"] == pytest.approx((run_created - run_final) / run_created)
        created += run_created
        final += run_final
    assert aggregate["stale_rate"] == pytest.approx(1 - final / created)
    assert 0 < aggregate["stale_rate"] < 0.5  # 2-8 s of delay at a 12.42 s interval forks
    assert f"stale rate: {aggregate['stale_rate']:.4f}" in render_experiment_table(aggregate)


def test_logical_aggregate_is_deterministic(tmp_path):
    agg_a = run_experiment(make_spec(tmp_path, out_dir=str(tmp_path / "a")))
    agg_b = run_experiment(make_spec(tmp_path, out_dir=str(tmp_path / "b")))
    assert json.dumps(agg_a, sort_keys=True) == json.dumps(agg_b, sort_keys=True)


def test_attempt_budget_exhaustion(tmp_path, monkeypatch):
    spec = make_spec(tmp_path, runs=2)
    calls = []

    def always_discarded(spec_, run_seed, run_idx, attempt):
        calls.append(run_seed)
        return {"discarded": True, "seed": run_seed}

    monkeypatch.setattr("chainsim.harness._run_once", always_discarded)
    with pytest.raises(ExperimentFailure, match="budget"):
        run_experiment(spec)
    assert len(calls) == 3 * spec.runs
    assert len(set(calls)) == len(calls)  # every retry used a fresh seed


def test_the_harness_writes_logical_rows_as_the_engine_made_them(tmp_path):
    spec = make_spec(tmp_path, runs=1)
    run_experiment(spec)
    report = json.loads((tmp_path / "out" / "run_000.json").read_text())
    made = harness.run_logical(spec.config(report["seed"]), list(spec.hashpowers)).report
    assert report["miners"] == made["miners"]
    assert [row["slot"] for row in report["miners"]] == [0, 1, 2]


def test_retry_then_success(tmp_path, monkeypatch):
    spec = make_spec(tmp_path, runs=2)
    real_run = ExperimentSpec.config  # build real reports via the engine
    from chainsim.engine import run_logical

    fails = {0: 2, 1: 0}  # run 0 is discarded twice, run 1 never

    def flaky(spec_, run_seed, run_idx, attempt):
        if attempt < fails[run_idx]:
            return {"discarded": True, "seed": run_seed}
        return run_logical(spec_.config(run_seed), list(spec_.hashpowers)).report

    monkeypatch.setattr("chainsim.harness._run_once", flaky)
    aggregate = run_experiment(spec)
    assert aggregate["runs"] == 2
    assert aggregate["retries"] == 2
    assert real_run is ExperimentSpec.config


TWO_MINER_AGGREGATE = {
    "num_miners": 2,
    "mean_hash_share_pct": [40.0, 60.0],
    "mean_block_share_pct": [42.5, 57.5],
    "deviation_pp": [2.5, -2.5],
}


def test_fairness_check_math():
    aggregate = dict(TWO_MINER_AGGREGATE)
    ok = fairness_check(aggregate, tolerance_pp=3.0)
    assert ok["ok"] and all(r["ok"] for r in ok["miners"])
    tight = fairness_check(aggregate, tolerance_pp=2.0)
    assert not tight["ok"]
    assert [r["ok"] for r in tight["miners"]] == [False, False]


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_miners", None),
        ("num_miners", "2"),
        ("num_miners", True),
        ("num_miners", 0),
        ("mean_hash_share_pct", None),
        ("mean_block_share_pct", {"0": 42.5, "1": 57.5}),
        ("deviation_pp", [2.5]),
        ("deviation_pp", [2.5, -2.5, 0.0]),
        ("deviation_pp", [2.5, "-2.5"]),
        ("mean_block_share_pct", [42.5, None]),
    ],
)
def test_fairness_check_refuses_what_is_not_an_aggregate(field, value):
    aggregate = dict(TWO_MINER_AGGREGATE)
    if value is None:
        del aggregate[field]
    else:
        aggregate[field] = value
    with pytest.raises(ValueError, match=f"aggregate field {field} must be"):
        fairness_check(aggregate, tolerance_pp=3.0)


def test_cli_harness_run_and_check(tmp_path):
    out_dir = tmp_path / "exp"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "mode": "logical",
                "num_miners": 2,
                "duration": 400.0,
                "interval": 12.42,
                "seed": 21,
                "runs": 4,
                "hashpowers": [15.0, 15.0],
                "out_dir": str(out_dir),
            }
        )
    )
    run = subprocess.run(
        [sys.executable, "-m", "chainsim", "harness", "run", "--spec", str(spec_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "mean total blocks" in run.stdout

    check = subprocess.run(
        [
            sys.executable,
            "-m",
            "chainsim",
            "harness",
            "check",
            "--aggregate",
            str(out_dir / "aggregate.json"),
            "--tolerance-pp",
            "30",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert check.returncode == 0, check.stderr
    assert "fairness within 30.0 pp: yes" in check.stdout

    impossible = subprocess.run(
        [
            sys.executable,
            "-m",
            "chainsim",
            "harness",
            "check",
            "--aggregate",
            str(out_dir / "aggregate.json"),
            "--tolerance-pp",
            "-1",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert impossible.returncode == 1


def test_cli_rejects_bad_miner_address():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "chainsim",
            "miner",
            "--admin",
            "nocolon",
            "--listen-port",
            "19000",
            "--hashpower",
            "5",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "HOST:PORT" in proc.stderr


@pytest.mark.parametrize(
    "flag",
    [["--extra-delay-ms", "5"], ["--hashpower-random"], ["--seed", "1"]],
    ids=["fifo-delay", "hashpower-random", "seed"],
)
def test_cli_refuses_a_removed_miner_flag(capsys, flag):
    # the harness hands every miner its hashpower: a miner draws none and takes no seed
    with pytest.raises(SystemExit) as exit_:
        cli.main(["miner", "--admin", "127.0.0.1:1", "--listen-port", "0", "--hashpower", "5",
                  *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# a run's report, as a run_000.json holds it: not an aggregate
RUN_REPORT = harness.run_logical(
    SimulationConfig(num_miners=2, duration=50.0, interval=12.42, seed=1)
).report


def check_argv(aggregate) -> list:
    """harness check argv for an aggregate file holding this JSON."""
    return ["harness", "check", "--aggregate", aggregate, "--tolerance-pp", "1"]


def spec_run(**fields) -> list:
    """harness run argv for a valid logical spec with fields overridden."""
    spec = dict(mode="logical", num_miners=2, duration=10.0, interval=1.0, seed=1, runs=1)
    return ["harness", "run", "--spec", {**spec, **fields}]


@pytest.mark.parametrize(
    "argv, failed",
    [
        (["admin", "--port", "0", "--num-miners", "0"], "admin failed: need at least one miner"),
        (["admin", "--port", "{busy}", "--num-miners", "1"], "admin failed: "),
        (["admin", "--port", "70000", "--num-miners", "1"],
         "admin failed: port must be in 0..65535, got 70000"),
        (["admin", "--port", "-1", "--num-miners", "1"],
         "admin failed: port must be in 0..65535, got -1"),
        (["miner", "--admin", "127.0.0.1:1", "--listen-port", "70000", "--hashpower", "5"],
         "miner failed: port must be in 0..65535, got 70000"),
        (["miner", "--admin", "127.0.0.1:70000", "--listen-port", "0", "--hashpower", "5"],
         "--admin must be HOST:PORT"),
        (["miner", "--admin", "127.0.0.1:0", "--listen-port", "0", "--hashpower", "5"],
         "--admin must be HOST:PORT"),
        (["miner", "--admin", "127.0.0.1:1", "--listen-port", "0", "--hashpower", "-1"],
         "miner failed: hashpower must be finite and positive"),
        (["miner", "--admin", "127.0.0.1:1", "--listen-port", "0", "--hashpower", "nan"],
         "miner failed: hashpower must be finite and positive"),
        (["miner", "--admin", "127.0.0.1:1", "--listen-port", "0", "--hashpower", "inf"],
         "miner failed: hashpower must be finite and positive"),
        (["miner", "--admin", "127.0.0.1:1", "--listen-port", "0", "--hashpower", "5",
          "--delay-range", "2", "1"], "miner failed: delay range must be "),
        (["harness", "check", "--aggregate", "{missing}", "--tolerance-pp", "1"],
         "harness check failed: "),
        (check_argv({"runs": 3}),
         "harness check failed: aggregate field num_miners must be a positive integer"),
        (check_argv([1, 2]), "harness check failed: an aggregate is a JSON object, not list"),
        (check_argv(RUN_REPORT),
         "harness check failed: aggregate field mean_hash_share_pct must be a list of 2 numbers"),
        (spec_run(runs="3"), "harness run failed: spec field runs must be an integer"),
        (spec_run(num_miners="2"), "harness run failed: spec field num_miners must be an integer"),
        (spec_run(delay_range=["a", 1]),
         "harness run failed: spec field delay_range must be a list of two numbers"),
        (spec_run(hashpowers=[None, 1]),
         "harness run failed: spec field hashpowers must be a list of numbers"),
        (["harness", "run", "--spec", [1, 2]], "harness run failed: a spec must be a JSON object"),
        # a bad network spec fails as it loads: no work dir, no admin, no miner
        (spec_run(mode="network", time_scale=100.0, duration=-5, out_dir="{out}"),
         "harness run failed: duration must be positive"),
        (spec_run(mode="network", time_scale=100.0, hashpowers=[0, 5], out_dir="{out}"),
         "harness run failed: hashpower must be finite and positive"),
        # each hashpower passes, but the total or one mean block interval overflows
        (spec_run(hashpowers=[1e308, 1e308], out_dir="{out}"),
         "harness run failed: the hashpowers' total is inf, not finite"),
        (spec_run(hashpowers=[5e-324, 10.0], out_dir="{out}"),
         "harness run failed: the mean block interval of hashpower 5e-324 out of 10.0"),
        (spec_run(mode="network", time_scale=100.0, hashpowers=[1e308, 1e308], out_dir="{out}"),
         "harness run failed: the hashpowers' total is inf, not finite"),
        (spec_run(mode="network", time_scale=100.0, hashpowers=[5e-324, 10.0], out_dir="{out}"),
         "harness run failed: the mean block interval of hashpower 5e-324 out of 10.0"),
    ],
    ids=["no-miners", "admin-port-in-use", "admin-port-too-high", "admin-port-negative",
         "listen-port-too-high", "admin-address-port-too-high", "admin-address-port-zero",
         "negative-hashpower", "nan-hashpower", "infinite-hashpower", "inverted-delay-range",
         "missing-aggregate", "aggregate-without-num-miners", "aggregate-not-an-object",
         "run-report-as-aggregate", "spec-runs-str", "spec-num-miners-str", "spec-delay-range-str",
         "spec-hashpowers-null", "spec-not-an-object", "network-spec-negative-duration",
         "network-spec-zero-hashpower", "spec-hashpower-total-overflows",
         "spec-mean-interval-overflows", "network-spec-hashpower-total-overflows",
         "network-spec-mean-interval-overflows"],
)
def test_cli_reports_bad_input_without_a_traceback(tmp_path, argv, failed):
    if argv[0] == "admin":
        argv = argv + ["--sim-time", "1", "--block-interval", "1", "--seed", "1"]
    spec_path = tmp_path / "spec.json"
    with socket.create_server(("127.0.0.1", 0)) as busy:
        fill = {"{busy}": str(busy.getsockname()[1]), "{missing}": str(tmp_path / "no.json"),
                "{out}": str(tmp_path / "out")}

        def arg(a):
            if isinstance(a, str):
                return fill.get(a, a)
            if isinstance(a, dict):
                a = {k: fill.get(v, v) if isinstance(v, str) else v for k, v in a.items()}
            spec_path.write_text(json.dumps(a))  # a spec's or an aggregate's JSON, as its file
            return str(spec_path)

        proc = subprocess.run(
            [sys.executable, "-m", "chainsim", *map(arg, argv)],
            capture_output=True,
            text=True,
            timeout=60,
        )
    assert proc.returncode == (2 if failed.startswith("--admin") else 1)  # 2: a usage error
    assert proc.stderr.startswith(failed), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sim_time", ["nan", "inf"])
def test_admin_refuses_a_non_finite_sim_time_at_once(sim_time):
    # an infinite run would have the admin wait for ever, a NaN one end at once
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "chainsim", "admin", "--port", "0", "--num-miners", "1",
         "--sim-time", sim_time, "--block-interval", "1", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert time.monotonic() - start < 5.0
    assert proc.returncode == 1
    assert proc.stderr.startswith("admin failed: duration must be positive and finite")
    assert "Traceback" not in proc.stderr


def test_network_experiment_single_run(tmp_path):
    spec = make_spec(
        tmp_path,
        mode="network",
        num_miners=2,
        duration=30.0,
        time_scale=100.0,
        runs=1,
        seed=77,
        hashpowers=(12.0, 24.0),
    )
    aggregate = run_experiment(spec)
    assert aggregate["runs"] == 1
    assert aggregate["mode"] == "network"
    run_record = aggregate["per_run"][0]
    assert run_record["seed"] == run_seed_for(77, 0, 0)
    assert run_record["total_blocks"] == len(run_record["final_chain_ids"]) - 1
    work = tmp_path / "out" / "work" / "run_000_a0"
    assert (work / "report.json").exists()
    assert (work / "miner_0.json").exists()
    assert (work / "miner_1.json").exists()
    stats = json.loads((work / "miner_0.json").read_text())
    assert stats["discarded"] is False


def record_spawn(monkeypatch) -> tuple[list, list]:
    """Each argv the harness forks a child with, and per miner whether its admin was bound."""
    commands = []
    listening = []
    real_spawn = harness._spawn

    def spawn(argv, *fds):
        commands.append(argv)
        if "miner" in argv:
            host, _, port = argv[argv.index("--admin") + 1].rpartition(":")
            with socket.socket() as other, pytest.raises(OSError) as refused:
                other.bind((host, int(port)))
            listening.append(refused.value.errno == errno.EADDRINUSE)
        return real_spawn(argv, *fds)

    monkeypatch.setattr(harness, "_spawn", spawn)
    return commands, listening


def test_network_run_passes_the_spec_delay_range_to_every_miner(tmp_path, monkeypatch):
    commands, listening = record_spawn(monkeypatch)
    spec = make_spec(
        tmp_path,
        mode="network",
        num_miners=2,
        duration=30.0,
        time_scale=100.0,
        runs=1,
        seed=78,
        hashpowers=(12.0, 24.0),
        delay_range=(0.125, 0.75),
    )
    aggregate = run_experiment(spec)
    assert aggregate["runs"] == 1
    # the admin starts first, on a port the OS picks, and announces it in admin.log's first line
    admin, *miners = commands
    assert "admin" in admin and admin[admin.index("--port") + 1] == "0"
    work = tmp_path / "out" / "work" / "run_000_a0"
    announced = (work / "admin.log").read_text().splitlines()[0]
    assert announced.startswith("admin listening on 127.0.0.1:")
    assert len(miners) == 2 and listening == [True, True]
    for cmd in miners:
        assert cmd[cmd.index("--admin") + 1] == announced.removeprefix("admin listening on ")
        at = cmd.index("--delay-range")
        assert [float(v) for v in cmd[at + 1 : at + 3]] == [0.125, 0.75]
        assert cmd[cmd.index("--listen-port") + 1] == "0"  # the OS picks each miner's port
    # each row's slot is the index of the stats file that holds its miner_id
    stats = [json.loads((work / f"miner_{i}.json").read_text()) for i in range(2)]
    report = json.loads((tmp_path / "out" / "run_000.json").read_text())
    for row in report["miners"]:
        assert stats[row["slot"]]["miner_id"] == row["miner_id"]
        assert stats[row["slot"]]["listen_port"] == row["port"] != 0
        assert row["hashpower"] == (12.0, 24.0)[row["slot"]]


def test_network_run_hands_every_miner_the_harness_draw_of_a_random_hashpower(
    tmp_path, monkeypatch
):
    commands, _ = record_spawn(monkeypatch)
    spec = make_spec(tmp_path, mode="network", num_miners=3, duration=30.0, time_scale=100.0,
                     runs=1, seed=79, hashpowers=None)
    aggregate = run_experiment(spec)
    assert aggregate["hashpowers"] == "random"
    report = json.loads((tmp_path / "out" / "run_000.json").read_text())
    # the draw logical mode makes for this run seed: one draw, both modes
    powers = resolve_hashpowers(spec.config(report["seed"]), None)
    miners = commands[-3:]  # the accepted attempt's
    assert all("miner" in cmd for cmd in miners)
    assert [float(cmd[cmd.index("--hashpower") + 1]) for cmd in miners] == powers
    assert not any("--seed" in cmd or "--hashpower-random" in cmd for cmd in miners)
    for row in report["miners"]:
        assert row["hashpower"] == powers[row["slot"]]


def test_an_accepted_run_with_a_miner_that_wrote_no_stats_fails_naming_its_work_dir(
    tmp_path, monkeypatch
):
    real_spawn = harness._spawn

    def spawn(argv, *fds):
        if any(a.endswith("miner_1.json") for a in argv):  # miner 1 runs but keeps its stats
            at = argv.index("--stats-out")
            argv = argv[:at] + argv[at + 2 :]
        return real_spawn(argv, *fds)

    monkeypatch.setattr(harness, "_spawn", spawn)
    spec = make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                     runs=1, seed=80, hashpowers=(12.0, 24.0))
    work = re.escape(str(tmp_path / "out" / "work" / "run_000_a0"))
    with pytest.raises(ExperimentFailure, match=r"miners \[1\] wrote no stats.*see " + work):
        run_experiment(spec)


def test_an_admin_that_never_announces_fails_the_run_before_any_miner_starts(
    tmp_path, monkeypatch
):
    commands = []
    real_spawn = harness._spawn

    def spawn(argv, *fds):
        commands.append(argv)
        if "admin" in argv:  # an admin that refuses its options exits before it binds
            argv = [*argv]
            argv[argv.index("--num-miners") + 1] = "0"
        return real_spawn(argv, *fds)

    monkeypatch.setattr(harness, "_spawn", spawn)
    spec = make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                     runs=1, seed=81, hashpowers=(12.0, 24.0))
    log = re.escape(str(tmp_path / "out" / "work" / "run_000_a0" / "admin.log"))
    start = time.monotonic()
    with pytest.raises(ExperimentFailure, match="announced no address.*see " + log):
        run_experiment(spec)
    assert time.monotonic() - start < 5.0
    assert len(commands) == 1  # the admin's: no miner was started


def test_no_forked_child_outlives_its_run_or_runs_the_callers_code(tmp_path, monkeypatch):
    def network_spec(out: str, seed: int) -> ExperimentSpec:
        return make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                         runs=1, seed=seed, hashpowers=(12.0, 24.0), out_dir=str(tmp_path / out))

    run_experiment(network_spec("ok", 82))
    with pytest.raises(ChildProcessError):  # every child of this process was reaped
        os.waitpid(-1, os.WNOHANG)

    real_main = cli.main

    def main(argv):
        if argv[0] == "miner":
            raise RuntimeError("a miner's main raised")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", main)
    work = re.escape(str(tmp_path / "failing" / "work" / "run_000_a0"))
    with pytest.raises(ExperimentFailure,
                       match=rf"miner ([01]) exited with status 1 .*; see {work}/miner_\1\.log"):
        run_experiment(network_spec("failing", 83))
    # a child that returned into this test instead of exiting would append here too
    after = tmp_path / "after-the-call"
    with open(after, "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")
    assert after.read_text() == f"{os.getpid()}\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def stats_path_of(argv) -> str:
    return argv[argv.index("--stats-out") + 1] if "--stats-out" in argv else ""


def test_a_miner_that_exits_at_start_up_fails_the_run_at_once_naming_its_log(
    tmp_path, monkeypatch
):
    real_main = cli.main

    def main(argv):
        if argv[0] == "miner":  # miner 0 raises at once, miner 1 a little later
            if stats_path_of(argv).endswith("miner_1.json"):
                time.sleep(1.0)
            raise RuntimeError("a miner's main raised")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", main)
    spec = make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                     runs=1, seed=85, hashpowers=(12.0, 24.0))
    work = tmp_path / "out" / "work" / "run_000_a0"
    start = time.monotonic()
    # not the admin's 60 s registration timeout, and no retry: another seed would fail alike
    with pytest.raises(
        ExperimentFailure,
        match=r"miner 0 exited with status 1 before every miner registered, for seed "
        + rf"{run_seed_for(85, 0, 0)}; see {re.escape(str(work / 'miner_0.log'))}$",
    ):
        run_experiment(spec)
    assert time.monotonic() - start < 5.0
    log = (work / "miner_0.log").read_text()
    assert "Traceback" in log and "RuntimeError: a miner's main raised" in log
    assert not (tmp_path / "out" / "work" / "run_000_a1").exists()
    with pytest.raises(ChildProcessError):  # the admin and miner 1 were killed and reaped
        os.waitpid(-1, os.WNOHANG)


def test_an_admin_that_fails_at_start_up_fails_the_run_naming_its_log(tmp_path, monkeypatch):
    real_registration = AdminServer._run_registration

    def registration_then_failure(self):
        real_registration(self)
        self.close()  # every miner's connection closes while the admin is still up,
        time.sleep(0.3)  # so the miners exit, and are reaped, before the admin
        raise RegistrationTimeout("the admin gave up")

    monkeypatch.setattr(AdminServer, "_run_registration", registration_then_failure)
    spec = make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                     runs=1, seed=88, hashpowers=(12.0, 24.0))
    work = tmp_path / "out" / "work" / "run_000_a0"
    with pytest.raises(
        ExperimentFailure,
        match=rf"admin exited with status 1 for seed {run_seed_for(88, 0, 0)} .*; see "
        + rf"{re.escape(str(work / 'admin.log'))}$",
    ):
        run_experiment(spec)
    assert "admin failed: the admin gave up" in (work / "admin.log").read_text()
    for i in range(2):
        assert "closed its connection" in (work / f"miner_{i}.log").read_text()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_miner_killed_mid_run_costs_its_run_one_retry(tmp_path, monkeypatch):
    real_main = cli.main

    def main(argv):
        if stats_path_of(argv).endswith(os.path.join("run_000_a0", "miner_0.json")):
            import chainsim.miner

            real_sim_start = chainsim.miner.sim_start_from_payload

            def killed_on_sim_start(*args):
                real_sim_start(*args)
                os.kill(os.getpid(), signal.SIGKILL)

            chainsim.miner.sim_start_from_payload = killed_on_sim_start  # this child's only
        return real_main(argv)

    monkeypatch.setattr(cli, "main", main)
    spec = make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                     runs=1, seed=86, hashpowers=(12.0, 24.0))
    aggregate = run_experiment(spec)
    assert aggregate["runs"] == 1 and aggregate["retries"] == 1
    work = tmp_path / "out" / "work"
    first = json.loads((work / "run_000_a0" / "report.json").read_text())
    assert first["discarded"] and "miner" in first["reason"]
    assert aggregate["per_run"][0]["seed"] == run_seed_for(86, 0, 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_forked_child_imports_a_module_or_builds_a_parser(tmp_path, monkeypatch):
    real_main = cli.main

    def main(argv):
        before = set(sys.modules)
        misses = cli.build_parser.cache_info().misses
        try:
            return real_main(argv)
        finally:
            new = {"modules": sorted(set(sys.modules) - before),
                   "parsers": cli.build_parser.cache_info().misses - misses}
            with open(tmp_path / f"{argv[0]}-{os.getpid()}.json", "w", encoding="utf-8") as fh:
                json.dump(new, fh)

    monkeypatch.setattr(cli, "main", main)
    spec = make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                     runs=1, seed=87, hashpowers=(12.0, 24.0))
    run_experiment(spec)
    assert sorted(path.name.split("-")[0] for path in tmp_path.glob("*-*.json")) == [
        "admin", "miner", "miner"
    ]
    for path in tmp_path.glob("*-*.json"):
        assert json.loads(path.read_text()) == {"modules": [], "parsers": 0}, path.name
    assert cli.build_parser() is cli.build_parser()


def test_a_forked_childs_output_lands_in_its_own_log_while_pytest_captures(
    tmp_path, monkeypatch, capfd
):
    real_main = cli.main

    def main(argv):
        if argv[0] == "miner":  # the admin's stdout is the harness's pipe: its first line announces
            print("marker printed by a miner")
            logging.getLogger("chainsim.miner").warning("marker logged by a miner")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", main)  # the children look cli.main up when they call it
    spec = make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                     runs=1, seed=84, hashpowers=(12.0, 24.0))
    run_experiment(spec)
    work = tmp_path / "out" / "work" / "run_000_a0"
    log = (work / "miner_0.log").read_text()
    assert "marker printed by a miner" in log and "marker logged by a miner" in log
    announced = (work / "admin.log").read_text().splitlines()[0]
    assert announced.startswith("admin listening on 127.0.0.1:")
    captured = capfd.readouterr()
    assert "marker" not in captured.out + captured.err
