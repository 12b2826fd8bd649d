"""Command-line entry points: admin, miner, and the experiment harness."""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys

from .admin import ANNOUNCEMENT, EXIT_DISCARDED, REGISTERED, AdminServer
from .harness import (
    ExperimentFailure,
    fairness_check,
    load_spec,
    render_experiment_table,
    run_experiment,
)
from .miner import MinerNode
from .simulation import SimulationConfig, render_table, write_report
from .timing import DEFAULT_DELAY_RANGE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and kept: parsing leaves it
    as it was, and a forked child reuses the one its parent built."""
    parser = argparse.ArgumentParser(prog="chainsim", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    admin = sub.add_parser("admin", help="run the bootstrap/consensus server")
    admin.add_argument("--port", type=int, required=True)
    admin.add_argument("--num-miners", type=int, required=True)
    admin.add_argument("--sim-time", type=float, required=True)
    admin.add_argument("--block-interval", type=float, required=True)
    admin.add_argument("--seed", type=int, required=True)
    admin.add_argument("--time-scale", type=float, default=1.0)
    admin.add_argument("--report-out", default=None)

    miner = sub.add_parser("miner", help="run one miner process")
    miner.add_argument("--admin", required=True, metavar="HOST:PORT")
    miner.add_argument("--listen-port", type=int, required=True)
    miner.add_argument("--hashpower", type=float, required=True)
    miner.add_argument(
        "--delay-range", type=float, nargs=2, default=DEFAULT_DELAY_RANGE, metavar=("LO", "HI"),
        help="peer delay per block, U(LO, HI) sim-seconds",
    )
    miner.add_argument("--stats-out", default=None)

    harness = sub.add_parser("harness", help="drive repeated simulations")
    hsub = harness.add_subparsers(dest="harness_command", required=True)
    run = hsub.add_parser("run", help="execute an experiment spec")
    run.add_argument("--spec", required=True)
    check = hsub.add_parser("check", help="fairness check on an aggregate file")
    check.add_argument("--aggregate", required=True)
    check.add_argument("--tolerance-pp", type=float, required=True)
    return parser


def cmd_admin(args: argparse.Namespace) -> int:
    try:
        config = SimulationConfig(
            num_miners=args.num_miners,
            duration=args.sim_time,
            interval=args.block_interval,
            seed=args.seed,
            time_scale=args.time_scale,
        )
        server = AdminServer(config, port=args.port)
        # bound and listening: the miners may be started from here on
        print(f"{ANNOUNCEMENT}{server.host}:{server.port}", flush=True)
        # every miner is in: from here a miner that dies costs only this run
        report = server.run(registered=lambda: print(REGISTERED, flush=True))
    # a bad option or a port out of range is a ValueError (so is a
    # ProtocolError); a port in use or a registration timeout is an OSError
    except (ValueError, OSError) as exc:
        print(f"admin failed: {exc}", file=sys.stderr)
        return 1
    print(render_table(report))
    if args.report_out:
        write_report(report, args.report_out)
    return EXIT_DISCARDED if report["discarded"] else 0


def cmd_miner(args: argparse.Namespace) -> int:
    host, sep, port = args.admin.rpartition(":")
    if not (sep and port.isdecimal() and len(port) <= 5 and 0 < int(port) < 65536):
        print(f"--admin must be HOST:PORT, got {args.admin!r}", file=sys.stderr)
        return 2
    try:
        stats = MinerNode(
            admin_host=host,
            admin_port=int(port),
            listen_port=args.listen_port,
            hashpower=args.hashpower,
            delay_range=args.delay_range,
        ).run()
    # a ValueError is a hashpower that is not finite and positive, a listen
    # port out of range, a bad delay range, a mistyped admin frame
    # (ProtocolError), a genesis or result chain that breaks the rules
    # (StructuralError) or a roster total below this miner's own hashpower
    # (InvalidHashpower); a timeout, an absent or a lost admin is an OSError
    except (ValueError, OSError) as exc:
        print(f"miner failed: {exc}", file=sys.stderr)
        return 1
    if args.stats_out:
        write_report(stats, args.stats_out)
    print(
        f"miner {stats['miner_id']}: chain length {stats['final_chain_len']}, "
        f"{'discarded' if stats['discarded'] else 'consensus ok'}"
    )
    return EXIT_DISCARDED if stats["discarded"] else 0


def cmd_harness(args: argparse.Namespace) -> int:
    if args.harness_command == "run":
        try:
            spec = load_spec(args.spec)
            aggregate = run_experiment(spec)
        except (ExperimentFailure, ValueError, OSError) as exc:
            print(f"harness run failed: {exc}", file=sys.stderr)
            return 1
        print(render_experiment_table(aggregate))
        return 0
    try:
        with open(args.aggregate, encoding="utf-8") as fh:
            aggregate = json.load(fh)
        result = fairness_check(aggregate, args.tolerance_pp)
    except (ValueError, OSError) as exc:
        print(f"harness check failed: {exc}", file=sys.stderr)
        return 1
    for row in result["miners"]:
        mark = "ok" if row["ok"] else "FAIL"
        print(
            f"miner {row['slot']}: hash {row['hash_share_pct']:.2f}% "
            f"blocks {row['mean_block_share_pct']:.2f}% "
            f"deviation {row['deviation_pp']:+.2f} pp [{mark}]"
        )
    print(f"fairness within {result['tolerance_pp']} pp: {'yes' if result['ok'] else 'NO'}")
    return 0 if result["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
        force=True,  # main's config, even where a forked child's parent or a wrapper made one
    )
    if args.command == "admin":
        return cmd_admin(args)
    if args.command == "miner":
        return cmd_miner(args)
    return cmd_harness(args)


if __name__ == "__main__":
    sys.exit(main())
