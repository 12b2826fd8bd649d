"""What a run derives from its seed, and the record it reports, in either mode.

The admin server and the logical engine both build a run from these pieces
and report it through emit_report; nothing here touches a socket.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass

from .blocks import ADMIN_ID, Block, StructuralError, derive_block_id
from .timing import check_hashpower, check_hashpowers, sample_hashpower

# Most blocks a run may expect, duration / interval: far more than any
# machine makes in a run, and it keeps mining.depth_limit's count finite.
MAX_EXPECTED_BLOCKS = 1e12


@dataclass(frozen=True)
class SimulationConfig:
    num_miners: int
    duration: float
    interval: float
    seed: int
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.num_miners < 1:
            raise ValueError("need at least one miner")
        for name in ("duration", "interval", "time_scale"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        expected = self.duration / self.interval
        if expected > MAX_EXPECTED_BLOCKS:
            raise ValueError(
                f"duration {self.duration} at interval {self.interval} expects "
                f"{expected:g} blocks, over the {MAX_EXPECTED_BLOCKS:g} a run may make"
            )


def create_genesis() -> Block:
    """The common root block; same on every invocation."""
    return Block(
        id=derive_block_id(ADMIN_ID, 0, 0.0, 0),
        parent_id=None,
        depth=0,
        miner_id=ADMIN_ID,
        blocktime=0.0,
    )


def subseed_for(seed: int, miner_id: int) -> int:
    """Per-miner mining seed: handed out in SIM_START, or seeded by the engine."""
    return seed ^ miner_id


def slot_seed(seed: int, slot: int) -> int:
    """Per-slot seed for a slot's hashpower draw, made before any miner has an id."""
    return seed + 7919 * (slot + 1)


def resolve_hashpowers(config: SimulationConfig, hashpowers: list[float] | None) -> list[float]:
    """Explicit list, or one uniform draw per slot from its slot seed.

    Either way the list passes check_hashpowers, so every miner can draw.
    """
    if hashpowers is not None:
        if len(hashpowers) != config.num_miners:
            raise ValueError("hashpower list length must equal num_miners")
        for hp in hashpowers:
            check_hashpower(hp)
        powers = list(hashpowers)
    else:
        powers = [
            sample_hashpower(random.Random(slot_seed(config.seed, i)))
            for i in range(config.num_miners)
        ]
    check_hashpowers(powers, config.interval)
    return powers


def emit_report(
    final_chain: list[Block] | None,
    miners: list[dict],
    config: SimulationConfig,
    winner_id: int | None,
    reason: str | None = None,
    frame_accounting: dict | None = None,
) -> dict:
    """Machine-readable run record; render_table turns it into text.

    miners holds a row head per miner, in id order: miner_id, hashpower and
    the mode's name for it (ip and port, or slot). No final chain: discarded.
    """
    total = sum(head["hashpower"] for head in miners)
    mined = Counter()
    total_blocks = 0
    if final_chain is not None:
        mined = Counter(b.miner_id for b in final_chain[1:])
        total_blocks = len(final_chain) - 1
        unknown = set(mined) - {head["miner_id"] for head in miners}
        if unknown:
            raise StructuralError(f"chain contains blocks from unknown miners {unknown}")
    rows = []
    for head in miners:
        blocks = mined.get(head["miner_id"], 0)
        rows.append(
            {
                **head,
                "hash_share_pct": 100.0 * head["hashpower"] / total if total else 0.0,
                "blocks": blocks,
                "block_share_pct": 100.0 * blocks / total_blocks if total_blocks else 0.0,
            }
        )
    report = {
        "discarded": final_chain is None,
        "reason": reason,
        "winner_id": winner_id,
        "seed": config.seed,
        "duration": config.duration,
        "interval": config.interval,
        "time_scale": config.time_scale,
        "num_miners": config.num_miners,
        "total_hashpower": total,
        "total_blocks": total_blocks,
        "miners": rows,
        "final_chain_ids": [b.id for b in final_chain] if final_chain else None,
    }
    if frame_accounting is not None:
        report["frame_accounting"] = frame_accounting
    return report


def render_table(report: dict) -> str:
    """Aligned text table of hash share vs block share per miner."""
    lines = [
        f"{'miner':>5}  {'hashpower':>9}  {'hash %':>7}  {'blocks':>6}  {'block %':>7}",
    ]
    for m in report["miners"]:
        lines.append(
            f"{m['miner_id']:>5}  {m['hashpower']:>9.2f}  {m['hash_share_pct']:>7.2f}"
            f"  {m['blocks']:>6}  {m['block_share_pct']:>7.2f}"
        )
    status = "DISCARDED" if report["discarded"] else f"winner: miner {report['winner_id']}"
    lines.append(
        f"total blocks mined: {report['total_blocks']} ({status}, seed {report['seed']})"
    )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    """Write a JSON record (a report, a miner's stats, an aggregate) to path.

    Encoded whole first: json.dump with an indent writes each token apart.
    """
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
