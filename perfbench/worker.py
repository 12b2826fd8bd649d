"""One benchmark process for one workload: set up, measure, check.

Started by run.py, once per set-up sample and once more to measure, so
that the measuring process's lifetime memory high-water mark belongs to
this workload alone. Prints ``ready <speed>`` when set-up is done
(imports, inputs from the seed, one warm-up run), with the host speed the
warm-up saw (see SpeedProbe), then measures runs through the harness
for the given number of seconds, checks every run, and prints one JSON
result line last. Lines in between are the human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
import types
from collections import defaultdict
from dataclasses import dataclass, field

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
LAUNCHER = os.path.join(HERE, "launch.py")
FAIRNESS_PP = 3.0
PROBE_EVERY_S = 0.02  # host-speed sample interval during a logical run
PROBE_LOOP = 2000  # iterations of the fixed integer loop one sample times
PROBE_REF_S = 1e-4  # that loop's time on the reference host speed

# (name, unit) of every metric, in print order; BENCHMARK.json lists the same.
END_TO_END = [
    ("setup_s", "s"),
    ("sim_s_per_host_s", "sim_s/s"),
    ("run_wall_s", "s"),
    ("wall_overhead_s", "s"),
    ("proc_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
]
ACTION_KINDS = ("appended_received", "uncled", "switched_chain")
PER_LAYER = [
    ("chain.reconstruct_chain.calls", "count"),
    ("chain.reconstruct_chain.s", "s"),
    ("chain.reconstruct_chain.slots", "count"),
    ("chain.switch.useful_ratio", "ratio"),
    ("blocks.make_placeholder.calls", "count"),
    ("chain.fill_empty_blocks.calls", "count"),
    ("chain.fill_empty_blocks.s", "s"),
    ("chain.fill_empty_blocks.slots_scanned", "count"),
    *[
        (f"chain.apply_received_block.{kind}.{part}", unit)
        for kind in ACTION_KINDS
        for part, unit in (("calls", "count"), ("self_s", "s"))
    ],
    ("chain.apply_created_block.calls", "count"),
    ("chain.apply_created_block.s", "s"),
    ("mining.draw_own_block.calls", "count"),
    ("mining.draw_own_block.s", "s"),
    ("mining.draw.useful_ratio", "ratio"),
    ("engine.run_logical.self_s", "s"),
    ("mining.step.calls", "count"),
    ("mining.step.s", "s"),
    ("mining.step.idle_ratio", "ratio"),
    ("netio.BufferedConn.pump.calls", "count"),
    ("netio.BufferedConn.pump.empty_ratio", "ratio"),
    ("miner.threads", "count"),
    ("miner.cpu_s", "s"),
    ("admin.cpu_s", "s"),
    ("admin.registration_s", "s"),
    ("admin.bootstrap_s", "s"),
    ("admin.mining_wait_s", "s"),
    ("admin.consensus_s", "s"),
    ("admin.consensus_frames", "count"),
    ("admin.consensus_bytes", "bytes"),
    ("protocol.encode.calls", "count"),
    ("protocol.encode.bytes", "bytes"),
    ("protocol.encode.s", "s"),
    ("protocol.FrameReader.feed.calls", "count"),
    ("protocol.FrameReader.feed.bytes", "bytes"),
    ("protocol.FrameReader.feed.s", "s"),
    ("protocol.block_from_payload.calls", "count"),
    ("protocol.block_from_payload.s", "s"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Run:
    """One measured harness invocation (runs=1) and what its checks found."""

    seed: int
    traced: bool
    wall: float = 0.0  # host seconds, as measured
    cpu: float = 0.0
    speed: float = 1.0  # host speed the run saw, as a share of the reference
    attempts: int = 1
    failed: int = 0
    report_bytes: bytes = b""
    shares: list[tuple[float, float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


class SpeedProbe:
    """Samples the host speed a logical run sees, from inside its thread.

    A shared host can change speed by a quarter within seconds and drift
    over minutes (seen on a 2-vCPU 2.0 GHz Xeon VM). Every 20 ms a timer
    signal interrupts the run and times a fixed integer loop; the run's
    time scaled by speed = PROBE_REF_S / mean loop time is its time on the
    reference host. The loop runs between the run's bytecodes in the same
    thread and touches none of its data, so it sees the CPU the run gets
    and changes nothing the run computes. Network runs do their work in
    child processes, and mostly wait on the simulated clock, so they are
    not scaled.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent(self) -> float:
        return sum(self.samples)

    @property
    def speed(self) -> float:
        return PROBE_REF_S * len(self.samples) / self.spent if self.samples else 1.0


class LastResult:
    """Keeps the RunResult of the harness's latest logical run for checking.

    The harness hands back only the aggregate; the winning chain's blocks
    and each miner's state come from the engine's own return value.
    """

    def __init__(self, harness) -> None:
        self.value = None
        inner = harness.run_logical

        def run_logical(*args, **kwargs):
            self.value = inner(*args, **kwargs)
            return self.value

        harness.run_logical = run_logical

    def take(self):
        value, self.value = self.value, None
        return value


def fresh_dir(*parts: str) -> str:
    path = os.path.join(OUT, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@contextlib.contextmanager
def launched_traced(harness, trace_dir: str):
    """Start the harness's admin and miner processes through launch.py.

    The command lines stay exactly those of harness._run_network, with
    ``-m chainsim`` swapped for the launcher, which installs the trace
    points and writes each process's spans into trace_dir at exit.
    """
    real = harness.subprocess

    def popen(cmd, **kwargs):
        if cmd[1:3] == ["-m", "chainsim"]:
            cmd = [cmd[0], LAUNCHER, *cmd[3:]]
        env = dict(os.environ, PERFBENCH_TRACE_DIR=trace_dir)
        return real.Popen(cmd, env=env, **kwargs)

    shim = types.ModuleType("subprocess")
    shim.__dict__.update(vars(real))
    shim.Popen = popen
    harness.subprocess = shim
    try:
        yield
    finally:
        harness.subprocess = real


class Bench:
    """One workload's inputs, its runs through the harness and their checks."""

    def __init__(self, workload_name: str, seed: int, tiny: bool):
        import chainsim.harness as harness
        from workloads import WORKLOADS, Inputs

        self.harness = harness
        self.workload = WORKLOADS[workload_name]
        self.inputs = Inputs(self.workload, seed, tiny)
        self.tiny = tiny
        self.last = LastResult(harness)
        self.last_tracer: tracing.Tracer | None = None  # of the latest traced logical run

    # one run

    def run(self, run_seed: int, traced: bool = False, warmup: bool = False) -> Run:
        w = self.workload
        out = fresh_dir(w.name, "warmup" if warmup else "run")
        spec = self.inputs.spec(run_seed, out, warmup=warmup)
        who = resource.RUSAGE_CHILDREN if w.network else resource.RUSAGE_SELF
        tracer = None
        if not traced:
            tracing_on = contextlib.nullcontext()
        elif w.network:
            tracing_on = launched_traced(self.harness, fresh_dir(w.name, "run", "trace"))
        else:
            tracer = self.last_tracer = tracing.Tracer()
            tracing_on = tracing.installed(tracer)
        probe = contextlib.nullcontext() if w.network else SpeedProbe()
        run = Run(seed=run_seed, traced=traced)
        gc.collect()
        before = resource.getrusage(who)
        start = time.perf_counter()
        try:
            with tracing_on, probe:
                aggregate = self.harness.run_experiment(spec)
        except Exception:  # any crash or hang of the run is a failed attempt
            traceback.print_exc()
            run.wall = time.perf_counter() - start
            run.failed = 1
            run.problems.append("run raised")
            self.last.take()
            return run
        run.wall = time.perf_counter() - start
        after = resource.getrusage(who)
        run.cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        if not w.network:
            run.wall -= probe.spent
            run.cpu -= probe.spent
            run.speed = probe.speed
        # discarded attempts were retried inside the harness
        run.attempts = 1 + aggregate["retries"]
        run.failed = aggregate["retries"]
        with open(os.path.join(out, "run_000.json"), "rb") as fh:
            run.report_bytes = fh.read()
        report = json.loads(run.report_bytes)
        run.shares = [(r["block_share_pct"], r["hash_share_pct"]) for r in
                      sorted(report["miners"], key=lambda r: r["slot"])]
        if w.network:
            run.problems = self.check_network(report)
        else:
            run.problems = self.check_logical(report, self.last.take())
        if run.problems:
            run.failed += 1
        if tracer is not None:
            dumps = [{"spans": tracer.spans, "counts": tracer.counts}]
            run.layers = self.layer_sums(dumps, report)
        elif traced:
            dumps = []
            trace_dir = os.path.join(out, "trace")
            for name in sorted(os.listdir(trace_dir)):
                with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                    dumps.append(json.load(fh))
            run.layers = self.layer_sums(dumps, report)
        return run

    # output checks

    def check_logical(self, report: dict, result) -> list[str]:
        from chainsim.blocks import StructuralError
        from chainsim.chain import validate_chain, verify_state_invariants

        if result is None or result.discarded:
            return ["no accepted logical result"]
        problems = []
        chain = result.final_chain
        try:
            validate_chain(chain, allow_empty=False)
        except StructuralError as exc:
            problems.append(f"winning chain invalid: {exc}")
        if report["final_chain_ids"] != [b.id for b in chain]:
            problems.append("report chain differs from the winner's chain")
        # logical mode has no consensus broadcast: the winner's chain is the
        # run's answer, so every miner must hold a sound state no deeper than it
        for i, state in enumerate(result.states):
            try:
                verify_state_invariants(state)
            except StructuralError as exc:
                problems.append(f"miner {i + 1} state: {exc}")
            if state.tip.depth > chain[-1].depth:
                problems.append(f"miner {i + 1} is deeper than the winner")
        problems += self.check_shares(report)
        return problems

    def check_network(self, report: dict) -> list[str]:
        from chainsim.admin import create_genesis

        n = self.workload.num_miners
        problems = []
        acc = report.get("frame_accounting", {})
        if (acc.get("last_block_frames"), acc.get("chain_frames"),
                acc.get("block_frames_during_mining")) != (n, 1, 0):
            problems.append(f"frame accounting {acc}")
        ids = report["final_chain_ids"] or []
        if not ids or ids[0] != create_genesis().id:
            problems.append("final chain does not start at the genesis")
        if len(set(ids)) != len(ids) or len(ids) != report["total_blocks"] + 1:
            problems.append("final chain ids are not a chain of total_blocks blocks")
        # each miner ran validate_chain(allow_empty=False) on the broadcast
        # result; one that failed it wrote no stats and is missing here
        stats = report["miner_stats"]
        if len(stats) != n:
            problems.append(f"{len(stats)} of {n} miners reported")
        for s in stats:
            if s["discarded"] or s["final_chain_ids"] != ids:
                problems.append(f"miner {s['miner_id']} disagrees on the final chain")
        problems += self.check_shares(report)
        return problems

    @staticmethod
    def check_shares(report: dict) -> list[str]:
        total = sum(r["block_share_pct"] for r in report["miners"])
        want = 100.0 if report["total_blocks"] else 0.0  # a short run may mine nothing
        return [] if abs(total - want) < 1e-6 else [f"block shares sum to {total}"]

    def fairness(self, runs: list[Run]) -> float:
        """Largest |pooled block share - pooled hash share| over miners, in pp."""
        pooled = [r.shares for r in runs if r.shares]
        n = len(pooled)
        return max(
            abs(sum(p[i][0] for p in pooled) - sum(p[i][1] for p in pooled)) / n
            for i in range(self.workload.num_miners)
        )

    # per-layer sums of one traced run

    def layer_sums(self, dumps: list[dict], report: dict) -> dict[str, float]:
        sums: dict[str, float] = defaultdict(float)
        for dump in dumps:
            consensus = [(s[tracing.START], s[tracing.END]) for s in dump["spans"]
                         if s[tracing.NAME] == "admin.consensus"]
            for span in dump["spans"]:
                name, start, end, child, extra = span
                sums[name + ".calls"] += 1
                sums[name + ".s"] += end - start
                sums[name + ".self_s"] += end - start - child
                sums[name + ".extra"] += extra or 0
                if name == "protocol.FrameReader.feed" and any(
                    lo <= start <= hi for lo, hi in consensus
                ):
                    sums["admin.consensus_bytes"] += extra
            for name, value in dump["counts"].items():
                if name == "miner.threads":  # a gauge: the busiest miner counts
                    sums[name] = max(sums[name], value)
                else:
                    sums[name] += value
            if "role" in dump:  # a launched admin or miner process
                sums[f"{dump['role']}.cpu_s"] += dump["cpu_s"]
        if "frame_accounting" in report:
            consensus_frames = report["frame_accounting"]["consensus"].values()
            sums["admin.consensus_frames"] += sum(consensus_frames)
        sums["created"] += sum(s["tally"]["created"] for s in report["miner_stats"])
        return sums


def layer_metrics(runs: list[Run], overhead: float) -> dict[str, float]:
    traced = [r.layers for r in runs if r.layers is not None]
    total: dict[str, float] = defaultdict(float)
    for sums in traced:
        for key, value in sums.items():
            total[key] += value
    n = max(len(traced), 1)

    def per_run(key: str) -> float:
        return total[key] / n

    def ratio(num: str, den: str) -> float:
        return total[num] / total[den] if total[den] else 0.0

    values = {
        "chain.switch.useful_ratio": ratio(
            "chain.apply_received_block.switched_chain.extra", "chain.reconstruct_chain.extra"
        ),
        "chain.reconstruct_chain.slots": per_run("chain.reconstruct_chain.extra"),
        "chain.fill_empty_blocks.slots_scanned": per_run("chain.fill_empty_blocks.extra"),
        "mining.draw.useful_ratio": ratio("created", "mining.draw_own_block.calls"),
        "mining.step.idle_ratio": ratio("mining.step.extra", "mining.step.calls"),
        "netio.BufferedConn.pump.empty_ratio": ratio(
            "netio.BufferedConn.pump.extra", "netio.BufferedConn.pump.calls"
        ),
        "protocol.encode.bytes": per_run("protocol.encode.extra"),
        "protocol.FrameReader.feed.bytes": per_run("protocol.FrameReader.feed.extra"),
        "trace.overhead_s": overhead,
    }
    for phase in tracing.ADMIN_PHASES.values():
        values[f"{phase}_s"] = per_run(f"{phase}.s")
    return {name: values[name] if name in values else per_run(name) for name, _ in PER_LAYER}


def measure(bench: Bench, seconds: float, traced: bool) -> tuple[list[Run], float, list[str], bool]:
    """Measured window; returns the runs, the memory high-water mark in MB
    at the window's end, report lines and whether the checks held.

    Untraced logical windows run their first seed twice in a row, and the
    two reports must match byte for byte. Traced windows pair each
    untraced run with a traced one; on logical workloads the pair shares a
    seed and must give identical reports.
    """
    w = bench.workload
    runs: list[Run] = []
    plain: list[Run] = []
    lines: list[str] = []
    correct = True
    rerun = not w.network and not traced
    start = time.perf_counter()
    while len(plain) < 1 + rerun or time.perf_counter() - start < seconds:
        seed = plain[0].seed if rerun and len(plain) == 1 else bench.inputs.next_seed()
        run = bench.run(seed)
        plain.append(run)
        runs.append(run)
        if traced:
            again = bench.run(seed if not w.network else bench.inputs.next_seed(), traced=True)
            runs.append(again)
            if not w.network and again.report_bytes != run.report_bytes:
                correct = False
                lines.append(f"traced report for seed {seed} differs from the untraced one")
    window = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if w.network else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    lines.append(f"{w.name}: {len(plain)} measured runs in {window:.1f} s, "
                 f"{sum(r.attempts for r in runs)} attempts in all")
    if rerun and plain[1].report_bytes != plain[0].report_bytes:
        correct = False
        lines.append(f"seed {plain[0].seed} run twice gave different report bytes")
    if not w.network:
        digest = hashlib.sha256(plain[0].report_bytes).hexdigest()
        lines.append(f"report sha256 {digest} (seed {plain[0].seed})")
        if not bench.tiny:
            worst = bench.fairness(plain)
            lines.append(f"fairness: max |block share - hash share| {worst:.2f} pp "
                         f"over {len(plain)} pooled runs (limit {FAIRNESS_PP})")
            correct &= worst <= FAIRNESS_PP
    for run in runs:
        for problem in run.problems:
            lines.append(f"seed {run.seed}: {problem}")
    return runs, peak_mb, lines, correct


def wall_summary(walls: list[float]) -> str:
    """Median, the highest percentile with ten runs beyond it, and the count."""
    n = len(walls)
    text = f"median {statistics.median(walls):.4f} s"
    if n > 10:
        pct = int(100 * (1 - 10 / n))
        if pct > 50:
            text += f", p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.4f} s"
    return text + f", max {max(walls):.4f} s"


def end_to_end(bench: Bench, runs: list[Run], peak_mb: float) -> tuple[dict[str, float], list[str]]:
    w = bench.workload
    ok = [r for r in runs if not r.failed] or runs
    walls = [r.wall * r.speed for r in ok]
    nominal = bench.inputs.duration / w.time_scale if w.network else 0.0
    attempted = sum(r.attempts for r in runs)
    metrics = {
        "sim_s_per_host_s": bench.inputs.duration * len(walls) / sum(walls),
        "run_wall_s": statistics.median(walls),
        "wall_overhead_s": statistics.median(x - nominal for x in walls),
        "proc_cpu_s": statistics.median(r.cpu * r.speed for r in ok),
        "peak_rss_mb": peak_mb,
        "success_ratio": (attempted - sum(r.failed for r in runs)) / attempted,
    }
    lines = [f"run_wall_s over {len(walls)} runs: {wall_summary(walls)}"]
    if not w.network:
        lines.append(
            f"  as measured: {wall_summary([r.wall for r in ok])}; host speed "
            f"{statistics.median(r.speed for r in ok):.3f} of the reference (median)"
        )
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # the program under test comes from this checkout, in this process and
    # in the admin and miner processes the harness starts
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    bench = Bench(args.workload, args.seed, args.tiny)
    warm = bench.run(bench.inputs.warmup_seed, warmup=True)
    if warm.failed:
        print(f"warm-up run failed: {warm.problems}", file=sys.stderr)
        return 1
    # set-up time is scaled by the host speed its warm-up run saw
    print(f"ready {warm.speed!r}", flush=True)
    if args.setup_only:
        return 0

    runs, peak_mb, lines, correct = measure(bench, args.seconds, bool(args.trace))
    if args.trace:
        plain = [r.wall * r.speed for r in runs if not r.traced and not r.failed] or [0.0]
        traced = [r.wall * r.speed for r in runs if r.traced and not r.failed] or [0.0]
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = layer_metrics(runs, overhead)
        units = dict(PER_LAYER)
        lines.append(f"tracing overhead {overhead:+.4f} s per run "
                     f"(median traced {statistics.median(traced):.4f} s, "
                     f"untraced {statistics.median(plain):.4f} s)")
    else:
        metrics, wall_lines = end_to_end(bench, runs, peak_mb)
        lines += wall_lines
        units = dict(END_TO_END)
    attempted = sum(r.attempts for r in runs)
    failed = sum(r.failed for r in runs)
    lines.append(f"fail_ratio {failed / attempted:.4f} ({failed} failed of {attempted} attempted)")
    if bench.last_tracer is not None:  # network runs' processes wrote theirs
        bench.last_tracer.dump(os.path.join(OUT, bench.workload.name, "run", "spans.json"))
    for line in lines:
        print(line)
    result = {
        # a discarded attempt counts as failed; only a wrong output or a
        # crash makes the invocation incorrect
        "correct": correct and not any(r.problems for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
