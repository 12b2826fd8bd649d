"""Harness and CLI behavior: spec parsing, aggregation, retries, fairness."""

import errno
import json
import re
import socket
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from chainsim import cli
from chainsim.engine import resolve_hashpowers
from chainsim.harness import (
    _SPEC_FIELD_TYPES,
    ExperimentFailure,
    ExperimentSpec,
    fairness_check,
    load_spec,
    render_experiment_table,
    render_shares_csv,
    run_experiment,
    run_seed_for,
)


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
        ("tx_pool_size", -1, "tx_pool_size cannot be negative"),
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


def test_retry_then_success(tmp_path, monkeypatch):
    spec = make_spec(tmp_path, runs=2)
    real_run = ExperimentSpec.config  # build real reports via the engine
    from chainsim.engine import run_logical

    fails = {0: 2, 1: 0}  # run 0 is discarded twice, run 1 never

    def flaky(spec_, run_seed, run_idx, attempt):
        if attempt < fails[run_idx]:
            return {"discarded": True, "seed": run_seed}
        report = run_logical(spec_.config(run_seed), list(spec_.hashpowers)).report
        for row in report["miners"]:
            row["slot"] = row["port"]
        return report

    monkeypatch.setattr("chainsim.harness._run_once", flaky)
    aggregate = run_experiment(spec)
    assert aggregate["runs"] == 2
    assert aggregate["retries"] == 2
    assert real_run is ExperimentSpec.config


def test_fairness_check_math():
    aggregate = {
        "num_miners": 2,
        "mean_hash_share_pct": [40.0, 60.0],
        "mean_block_share_pct": [42.5, 57.5],
        "deviation_pp": [2.5, -2.5],
    }
    ok = fairness_check(aggregate, tolerance_pp=3.0)
    assert ok["ok"] and all(r["ok"] for r in ok["miners"])
    tight = fairness_check(aggregate, tolerance_pp=2.0)
    assert not tight["ok"]
    assert [r["ok"] for r in tight["miners"]] == [False, False]


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
    ],
    ids=["no-miners", "admin-port-in-use", "admin-port-too-high", "admin-port-negative",
         "listen-port-too-high", "admin-address-port-too-high", "admin-address-port-zero",
         "negative-hashpower", "nan-hashpower", "infinite-hashpower", "inverted-delay-range",
         "missing-aggregate", "spec-runs-str", "spec-num-miners-str", "spec-delay-range-str",
         "spec-hashpowers-null", "spec-not-an-object", "network-spec-negative-duration",
         "network-spec-zero-hashpower"],
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
            spec_path.write_text(json.dumps(a))  # a spec's JSON, passed as its file
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


def record_popen(monkeypatch) -> tuple[list, list]:
    """Each command the harness starts, and per miner whether its --admin address was bound."""
    commands = []
    listening = []
    real_popen = subprocess.Popen

    def popen(cmd, *args, **kw):
        commands.append(cmd)
        if "miner" in cmd:
            host, _, port = cmd[cmd.index("--admin") + 1].rpartition(":")
            with socket.socket() as other, pytest.raises(OSError) as refused:
                other.bind((host, int(port)))
            listening.append(refused.value.errno == errno.EADDRINUSE)
        return real_popen(cmd, *args, **kw)

    monkeypatch.setattr(subprocess, "Popen", popen)
    return commands, listening


def test_network_run_passes_the_spec_delay_range_to_every_miner(tmp_path, monkeypatch):
    commands, listening = record_popen(monkeypatch)
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
    commands, _ = record_popen(monkeypatch)
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
    real_popen = subprocess.Popen

    def popen(cmd, *args, **kw):
        if any(a.endswith("miner_1.json") for a in cmd):  # miner 1 runs but keeps its stats
            at = cmd.index("--stats-out")
            cmd = cmd[:at] + cmd[at + 2 :]
        return real_popen(cmd, *args, **kw)

    monkeypatch.setattr(subprocess, "Popen", popen)
    spec = make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                     runs=1, seed=80, hashpowers=(12.0, 24.0))
    work = re.escape(str(tmp_path / "out" / "work" / "run_000_a0"))
    with pytest.raises(ExperimentFailure, match=r"miners \[1\] wrote no stats.*see " + work):
        run_experiment(spec)


def test_an_admin_that_never_announces_fails_the_run_before_any_miner_starts(
    tmp_path, monkeypatch
):
    commands = []
    real_popen = subprocess.Popen

    def popen(cmd, *args, **kw):
        commands.append(cmd)
        if "admin" in cmd:  # an admin that refuses its options exits before it binds
            cmd = [*cmd]
            cmd[cmd.index("--num-miners") + 1] = "0"
        return real_popen(cmd, *args, **kw)

    monkeypatch.setattr(subprocess, "Popen", popen)
    spec = make_spec(tmp_path, mode="network", num_miners=2, duration=30.0, time_scale=100.0,
                     runs=1, seed=81, hashpowers=(12.0, 24.0))
    log = re.escape(str(tmp_path / "out" / "work" / "run_000_a0" / "admin.log"))
    start = time.monotonic()
    with pytest.raises(ExperimentFailure, match="announced no address.*see " + log):
        run_experiment(spec)
    assert time.monotonic() - start < 5.0
    assert len(commands) == 1  # the admin's: no miner was started
