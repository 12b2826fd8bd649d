"""Experiment driver: repeated runs, aggregation, fairness checking.

Network mode forks one admin process and one process per miner from
this one, each running ``chainsim.cli.main`` with the argv that follows
``python -m chainsim`` in a hand run, and collects their report files.
The children skip only the interpreter start: they are still separate
processes that talk over TCP and write the same logs, stats files and
exit statuses. Before its first fork the parent builds the CLI parser,
parses an admin and a miner argv with it, and loads the idna codec,
which every child would otherwise redo. One poll over the admin's
stdout pipe and a pidfd per child (Linux 5.3 or later) copies the
admin's output and reaps each child the moment it exits. A miner that
exits before the admin's second line (every miner registered) fails the
run at once, naming its log, or the admin's if the admin exits within a
grace second; one that dies later costs the run, which the admin
discards. Logical mode calls the in-process engine. Discarded runs are
retried on a fresh seed, within a global attempt budget of three times
the requested run count.
"""

from __future__ import annotations

import codecs
import json
import logging
import math
import os
import select
import signal
import subprocess  # noqa: F401 -- unused here; perfbench's traced mode swaps harness.subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from .admin import ANNOUNCEMENT, EXIT_DISCARDED, REGISTERED
from .engine import run_logical
from .simulation import SimulationConfig, resolve_hashpowers, write_report
from .timing import DEFAULT_DELAY_RANGE, check_delay_range

MODES = ("network", "logical")
ADMIN_START_TIMEOUT = 15.0  # wall seconds for an admin process to bind and announce
ADMIN_EXIT_GRACE = 1.0  # wall seconds for the admin to exit after a miner's start-up death


class ExperimentFailure(RuntimeError):
    """The experiment could not produce the requested number of runs."""


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str
    num_miners: int
    duration: float
    interval: float
    seed: int
    runs: int
    time_scale: float = 1.0
    hashpowers: tuple[float, ...] | None = None  # None means sampled per run
    out_dir: str = "experiment-out"
    delay_range: tuple[float, float] = DEFAULT_DELAY_RANGE  # sim-seconds, both modes

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.mode == "logical" and self.time_scale != 1.0:
            raise ValueError("a logical spec takes no time_scale")
        check_delay_range(self.delay_range)
        # the run config's and the hashpowers' own checks, before any run starts
        resolve_hashpowers(self.config(self.seed), self.hashpowers)

    def config(self, run_seed: int) -> SimulationConfig:
        return SimulationConfig(
            num_miners=self.num_miners,
            duration=self.duration,
            interval=self.interval,
            seed=run_seed,
            time_scale=self.time_scale,
        )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    # finite as a float; the comparison, unlike float(), cannot overflow on a huge int
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


_STR = ("a string", lambda v: isinstance(v, str))
_INT = ("an integer", _is_int)
_NUMBER = ("a number", _is_number)
# what each spec field's JSON value must be, and a check of it
_SPEC_FIELD_TYPES = {
    "mode": _STR, "out_dir": _STR,
    "num_miners": _INT, "seed": _INT, "runs": _INT,
    "duration": _NUMBER, "interval": _NUMBER, "time_scale": _NUMBER,
    "delay_range": (
        "a list of two numbers",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
    ),
    "hashpowers": (
        'a list of numbers or "random"',
        lambda v: v == "random" or isinstance(v, list) and all(map(_is_number, v)),
    ),
}


def load_spec(path: str) -> ExperimentSpec:
    """The spec in a JSON file; a mistyped or unknown field is a ValueError naming it."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("a spec must be a JSON object")
    unknown = set(raw) - set(_SPEC_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown spec fields: {sorted(unknown)}")
    for name, value in raw.items():
        what, valid = _SPEC_FIELD_TYPES[name]
        if not valid(value):
            raise ValueError(f"spec field {name} must be {what}, got {value!r}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    powers = kwargs.pop("hashpowers", "random")
    hashpowers = None if powers == "random" else tuple(map(float, powers))
    return ExperimentSpec(hashpowers=hashpowers, **kwargs)


def run_seed_for(spec_seed: int, run_idx: int, attempt: int) -> int:
    """Seed for a given run; retries move to a far-away seed."""
    return spec_seed + run_idx + 1_000_000 * attempt


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute the spec; returns (and writes) the aggregate record."""
    os.makedirs(spec.out_dir, exist_ok=True)
    budget = 3 * spec.runs
    attempts = 0
    retries = 0
    reports: list[dict] = []
    for run_idx in range(spec.runs):
        attempt = 0
        while True:
            if attempts >= budget:
                raise ExperimentFailure(
                    f"attempt budget exhausted: {attempts} attempts for "
                    f"{len(reports)}/{spec.runs} accepted runs ({retries} discards)"
                )
            attempts += 1
            run_seed = run_seed_for(spec.seed, run_idx, attempt)
            report = _run_once(spec, run_seed, run_idx, attempt)
            if not report["discarded"]:
                break
            retries += 1
            attempt += 1
        report["run_idx"] = run_idx
        reports.append(report)
        write_report(report, os.path.join(spec.out_dir, f"run_{run_idx:03d}.json"))
    aggregate = _aggregate(spec, reports, retries)
    write_report(aggregate, os.path.join(spec.out_dir, "aggregate.json"))
    with open(os.path.join(spec.out_dir, "table.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_experiment_table(aggregate) + "\n")
    with open(os.path.join(spec.out_dir, "shares.csv"), "w", encoding="utf-8") as fh:
        fh.write(render_shares_csv(aggregate))
    return aggregate


def _run_once(spec: ExperimentSpec, run_seed: int, run_idx: int, attempt: int) -> dict:
    config = spec.config(run_seed)
    # the one hashpower draw of a run, whichever mode then runs it
    powers = resolve_hashpowers(config, spec.hashpowers)
    if spec.mode == "logical":
        return run_logical(config, powers, spec.delay_range).report
    return _run_network(spec, config, powers, run_idx, attempt)


def _run_network(
    spec: ExperimentSpec, config: SimulationConfig, powers: list[float], run_idx: int, attempt: int
) -> dict:
    run_seed = config.seed
    work = os.path.join(spec.out_dir, "work", f"run_{run_idx:03d}_a{attempt}")
    os.makedirs(work, exist_ok=True)
    report_path = os.path.join(work, "report.json")
    admin_argv = [
        "admin",
        "--port", "0",
        "--num-miners", str(config.num_miners),
        "--sim-time", str(config.duration),
        "--block-interval", str(config.interval),
        "--seed", str(run_seed),
        "--time-scale", str(config.time_scale),
        "--report-out", report_path,
    ]
    stats_paths = [os.path.join(work, f"miner_{i}.json") for i in range(spec.num_miners)]

    def miner_argv(i: int, address: str) -> list[str]:
        return [
            "miner",
            "--admin", address,
            "--listen-port", "0",
            "--hashpower", str(powers[i]),
            "--stats-out", stats_paths[i],
            "--delay-range", *map(str, spec.delay_range),
        ]

    _warm(admin_argv, miner_argv(0, "127.0.0.1:0"))
    files = []
    children = None
    try:
        admin_log = open(os.path.join(work, "admin.log"), "wb")
        files.append(admin_log)
        read_end, write_end = os.pipe()
        admin_out = open(read_end, "rb", buffering=0)  # unbuffered: poll sees every byte
        files.append(admin_out)
        children = _Children(admin_out, admin_log)
        try:
            children.spawn(admin_argv, write_end, admin_log.fileno())
        finally:
            os.close(write_end)  # the admin holds the only other end: EOF when it exits
        # the admin binds, then announces its address in one flushed line;
        # the miners start only once it has
        children.wait(lambda: children.lines or children.eof,
                      time.monotonic() + ADMIN_START_TIMEOUT)
        announced = children.lines[0] if children.lines else b""
        if not announced.startswith(ANNOUNCEMENT.encode()):
            raise ExperimentFailure(
                f"admin exited or announced no address within {ADMIN_START_TIMEOUT}s "
                f"for seed {run_seed}; see {work}/admin.log"
            )
        address = announced[len(ANNOUNCEMENT) :].decode().strip()
        for i in range(spec.num_miners):
            miner_log = open(os.path.join(work, f"miner_{i}.log"), "wb")
            files.append(miner_log)
            children.spawn(miner_argv(i, address), miner_log.fileno(), miner_log.fileno())
        deadline = time.monotonic() + spec.duration / spec.time_scale + 120.0
        # until the admin's second line, a miner that exits failed at start-up,
        # which no other seed would mend; after it, the admin discards the run
        # and the run is retried
        registered = REGISTERED.encode()
        children.wait(lambda: registered in children.lines or children.eof or children.codes,
                      deadline)
        if registered not in children.lines and not children.eof and children.codes:
            # a miner that the admin closed on can be reaped before the admin:
            # an admin that exits within the grace fails the run on its own status
            children.wait(lambda: children.eof, time.monotonic() + ADMIN_EXIT_GRACE)
            if not children.eof:
                i = min(children.codes) - 1  # the admin is still up: only miners were reaped
                raise ExperimentFailure(
                    f"miner {i} exited with status {children.codes[i + 1]} before every miner "
                    f"registered, for seed {run_seed}; see {work}/miner_{i}.log"
                )
        # the admin's table, then its exit; then the miners have a minute more
        if not (
            children.wait(lambda: children.eof and 0 in children.codes, deadline)
            and children.wait(lambda: len(children.codes) == len(children.pids),
                              time.monotonic() + 60.0)
        ):
            running = ["admin" if i == 0 else f"miner {i - 1}"
                       for i in range(len(children.pids)) if i not in children.codes]
            raise ExperimentFailure(
                f"run with seed {run_seed} hung: {', '.join(running)} still running at the "
                f"deadline; see {work}"
            )
    finally:
        if children is not None:
            children.close()  # every child is reaped: no process outlives its run
        for fh in files:
            fh.close()
    admin_rc, *miner_rcs = (children.codes[i] for i in range(len(children.pids)))
    if admin_rc not in (0, EXIT_DISCARDED):
        raise ExperimentFailure(
            f"admin exited with status {admin_rc} for seed {run_seed} (miners: {miner_rcs}); "
            f"see {work}/admin.log"
        )
    report = _read_json(report_path)
    if report["discarded"]:
        return report  # retried, never written or aggregated: no slots needed
    missing = [i for i, path in enumerate(stats_paths) if not os.path.exists(path)]
    if missing:
        raise ExperimentFailure(
            f"miners {missing} wrote no stats for accepted seed {run_seed}; see {work}"
        )
    # miner i wrote miner_{i}.json, which holds the id the admin gave it
    report["miner_stats"] = [_read_json(path) for path in stats_paths]
    slots = {stats["miner_id"]: i for i, stats in enumerate(report["miner_stats"])}
    for row in report["miners"]:
        row["slot"] = slots[row["miner_id"]]
    return report


def _warm(*argvs: list[str]) -> None:
    """Do, in this process before it forks, what each child would redo.

    Every child parses its argv with the CLI's parser, which is built once
    per process, and parsing compiles argparse's patterns into the re
    module's cache; every miner's first dial resolves a host name, which
    loads the idna codec (getaddrinfo encodes the name with it). All are
    done here, on argvs shaped like the children's, so each child inherits
    them; after the first call this costs next to nothing.
    """
    from . import cli

    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)
    codecs.lookup("idna")


class _Children:
    """The admin and miner processes of one network run, watched in one poll.

    The poll covers the admin's stdout pipe and a pidfd per child: the
    admin's output is copied into its log as it comes, and each child is
    reaped the moment it exits.
    """

    def __init__(self, admin_out, admin_log):
        self.admin_out = admin_out
        self.admin_log = admin_log
        self.eof = False  # the admin's stdout is closed: it has exited
        self._head = b""  # the admin's output, kept up to its second line
        self.pids: list[int] = []  # the admin first, then miner i at i + 1
        self.codes: dict[int, int] = {}  # index -> exit status, or minus the signal
        self._pidfds: dict[int, int] = {}  # index -> pidfd, for each child not reaped
        self._poll = select.poll()
        self._poll.register(admin_out, select.POLLIN)

    @property
    def lines(self) -> list[bytes]:
        """The admin's first complete output lines, up to two."""
        return self._head.split(b"\n")[:-1][:2]

    def spawn(self, argv: list[str], stdout: int, stderr: int) -> None:
        self.pids.append(_spawn(argv, stdout, stderr))
        pidfd = self._pidfds[len(self.pids) - 1] = os.pidfd_open(self.pids[-1])
        self._poll.register(pidfd, select.POLLIN)

    def wait(self, done, deadline: float) -> bool:
        """Copy and reap until done() holds, or False at the deadline."""
        while not done():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            ready = {fd for fd, _ in self._poll.poll(math.ceil(remaining * 1000))}
            if self.admin_out.fileno() in ready:  # the admin's lines before any exit
                self._copy()
            for index in [i for i, pidfd in self._pidfds.items() if pidfd in ready]:
                self._reap(index)
        return True

    def _copy(self) -> None:
        chunk = self.admin_out.read(65536)
        if not chunk:
            self.eof = True
            self._poll.unregister(self.admin_out)
            return
        self.admin_log.write(chunk)
        self.admin_log.flush()
        if self._head.count(b"\n") < 2:
            self._head += chunk

    def _reap(self, index: int) -> None:
        pidfd = self._pidfds.pop(index, None)
        if pidfd is not None:  # None: the fork succeeded but pidfd_open failed
            self._poll.unregister(pidfd)
            os.close(pidfd)
        _, status = os.waitpid(self.pids[index], 0)
        self.codes[index] = os.waitstatus_to_exitcode(status)

    def close(self) -> None:
        """Kill and reap every child still running."""
        for index, pid in enumerate(self.pids):
            if index not in self.codes:
                os.kill(pid, signal.SIGKILL)
                self._reap(index)


def _spawn(argv: list[str], stdout: int, stderr: int) -> int:
    """Fork a child that runs ``python -m chainsim <argv>`` with its stdout
    and stderr on the given fds; returns its pid.

    The child is this process with chainsim already imported, the CLI's
    parser built and the idna codec loaded (see _warm), so it imports and
    builds nothing of its own; it calls ``cli.main`` as that name holds
    at call time. It writes only to its
    own fds, through fresh streams, and its records go to its own stderr.
    It never returns into the caller's stack: it ends in ``os._exit`` with
    main's status, or with 1 after a traceback if main raised. Like any
    fork, it is for callers that run no other threads, as the CLI and the
    benchmark do not.
    """
    from . import cli

    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        os.dup2(stdout, 1)
        os.dup2(stderr, 2)
        # fresh streams: the caller's (a test runner's capture, say) are
        # never written or flushed here
        sys.stderr = open(2, "w", buffering=1, encoding="utf-8", errors="backslashreplace",
                          closefd=False)
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        # the caller's log handlers are detached, not closed, so none is flushed here
        for handler in logging.root.handlers[:]:
            logging.root.removeHandler(handler)
        status = cli.main(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        status = exc.code if isinstance(exc.code, int) else 1
    except BaseException:  # the child's last frame: report, then exit below, never re-raise
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _aggregate(spec: ExperimentSpec, reports: list[dict], retries: int) -> dict:
    n = spec.num_miners
    runs = len(reports)
    share_sums = [0.0] * n
    hash_sums = [0.0] * n
    per_run = []
    for report in reports:
        created = sum(stats["tally"]["created"] for stats in report["miner_stats"])
        by_slot = {row["slot"]: row for row in report["miners"]}
        shares = [by_slot[i]["block_share_pct"] for i in range(n)]
        hashes = [by_slot[i]["hash_share_pct"] for i in range(n)]
        for i in range(n):
            share_sums[i] += shares[i]
            hash_sums[i] += hashes[i]
        per_run.append(
            {
                "run_idx": report["run_idx"],
                "seed": report["seed"],
                "total_blocks": report["total_blocks"],
                "created_blocks": created,
                # own blocks that missed the final chain, over all own blocks
                "stale_rate": (created - report["total_blocks"]) / created if created else 0.0,
                "winner_id": report["winner_id"],
                "block_share_pct": shares,
                "hash_share_pct": hashes,
                "final_chain_ids": report["final_chain_ids"],
            }
        )
    final_blocks = sum(r["total_blocks"] for r in per_run)
    created = sum(r["created_blocks"] for r in per_run)
    mean_share = [s / runs for s in share_sums]
    mean_hash = [h / runs for h in hash_sums]
    deviations = [mean_share[i] - mean_hash[i] for i in range(n)]
    return {
        "mode": spec.mode,
        "num_miners": n,
        "duration": spec.duration,
        "interval": spec.interval,
        "seed": spec.seed,
        "runs": runs,
        "retries": retries,
        "hashpowers": list(spec.hashpowers) if spec.hashpowers is not None else "random",
        "mean_total_blocks": final_blocks / runs,
        "stale_rate": (created - final_blocks) / created if created else 0.0,
        "mean_block_share_pct": mean_share,
        "mean_hash_share_pct": mean_hash,
        "deviation_pp": deviations,
        "max_abs_deviation_pp": max(abs(d) for d in deviations),
        "per_run": per_run,
    }


def fairness_check(aggregate: dict, tolerance_pp: float) -> dict:
    """Per-miner pass/fail on |mean block share - hash share| <= tolerance.

    Raises ValueError, naming the field, on anything but an aggregate: a
    missing or mistyped num_miners, or a share list that is not one number
    per miner.
    """
    if not isinstance(aggregate, dict):
        raise ValueError(f"an aggregate is a JSON object, not {type(aggregate).__name__}")
    n = aggregate.get("num_miners")
    if type(n) is not int or n < 1:
        raise ValueError(f"aggregate field num_miners must be a positive integer, got {n!r}")
    for name in ("mean_hash_share_pct", "mean_block_share_pct", "deviation_pp"):
        values = aggregate.get(name)
        if not (
            isinstance(values, list)
            and len(values) == n
            and all(type(v) in (int, float) for v in values)
        ):
            raise ValueError(f"aggregate field {name} must be a list of {n} numbers")
    rows = []
    for i in range(n):
        deviation = aggregate["deviation_pp"][i]
        rows.append(
            {
                "slot": i,
                "hash_share_pct": aggregate["mean_hash_share_pct"][i],
                "mean_block_share_pct": aggregate["mean_block_share_pct"][i],
                "deviation_pp": deviation,
                "ok": abs(deviation) <= tolerance_pp,
            }
        )
    return {"tolerance_pp": tolerance_pp, "miners": rows, "ok": all(r["ok"] for r in rows)}


def render_experiment_table(aggregate: dict) -> str:
    lines = [
        f"{'miner':>5}  {'hash %':>7}  {'mean block %':>12}  {'deviation pp':>12}",
    ]
    for i in range(aggregate["num_miners"]):
        lines.append(
            f"{i:>5}  {aggregate['mean_hash_share_pct'][i]:>7.2f}"
            f"  {aggregate['mean_block_share_pct'][i]:>12.2f}"
            f"  {aggregate['deviation_pp'][i]:>12.2f}"
        )
    lines.append(
        f"runs: {aggregate['runs']} (retries {aggregate['retries']}), "
        f"mean total blocks: {aggregate['mean_total_blocks']:.1f}, "
        f"max |deviation|: {aggregate['max_abs_deviation_pp']:.2f} pp, "
        f"stale rate: {aggregate['stale_rate']:.4f}"
    )
    return "\n".join(lines)


def render_shares_csv(aggregate: dict) -> str:
    out = ["miner,hash_share_pct,mean_block_share_pct"]
    for i in range(aggregate["num_miners"]):
        out.append(
            f"{i},{aggregate['mean_hash_share_pct'][i]:.4f},"
            f"{aggregate['mean_block_share_pct'][i]:.4f}"
        )
    return "\n".join(out) + "\n"

