"""Pure mining-step logic shared by the live miner and the logical engine.

`step` is the one place the event order lives: apply every received
block first, then release the own pending block if it is due, then make
sure exactly one own block is pending on the current tip. Applying
receives first means a deeper block that just arrived beats an own block
that came due at the same instant; the own block is then consumed as a
stale drop. A received block that extends the tip discards the own
block pending at that depth outright.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .blocks import Block, StructuralError, derive_block_id
from .chain import (
    ActionKind,
    DuplicateIdConflict,
    LocalChainState,
    UpdateAction,
    apply_created_block,
    apply_received_block,
)
from .timing import HashpowerProfile, compute_block_time

TXS_PER_BLOCK = 10  # pool transactions claimed by each mined block


@dataclass
class MinerTally:
    """Per-miner action counters, reported at end of run."""

    created: int = 0
    appended_own: int = 0
    appended_received: int = 0
    uncled: int = 0
    switches: int = 0
    dropped_stale: int = 0

    def record(self, action: UpdateAction) -> None:
        kind = action.kind
        if kind is ActionKind.APPENDED_OWN:
            self.appended_own += 1
        elif kind is ActionKind.APPENDED_RECEIVED:
            self.appended_received += 1
        elif kind is ActionKind.UNCLED:
            self.uncled += 1
        elif kind is ActionKind.SWITCHED_CHAIN:
            self.switches += 1
        elif kind is ActionKind.DROPPED_STALE:
            self.dropped_stale += 1

    def as_dict(self) -> dict:
        return {
            "created": self.created,
            "appended_own": self.appended_own,
            "appended_received": self.appended_received,
            "uncled": self.uncled,
            "switches": self.switches,
            "dropped_stale": self.dropped_stale,
        }


@dataclass
class MiningContext:
    """Everything one miner needs to draw and release its own blocks."""

    miner_id: int
    profile: HashpowerProfile
    interval: float
    rng: random.Random
    tx_pool_ids: tuple[str, ...] = ()
    counter: int = 0
    tally: MinerTally = field(default_factory=MinerTally)
    pending: Block | None = None  # own block drawn on the tip, not yet due


def next_tx_ids(pool_ids: tuple[str, ...], depth: int) -> tuple[str, ...]:
    """Pool slice claimed by the block at this depth; empty once exhausted."""
    start = (depth - 1) * TXS_PER_BLOCK
    return pool_ids[start : start + TXS_PER_BLOCK]


def draw_own_block(ctx: MiningContext, tip: Block, now: float) -> Block:
    """Draw the miner's next own block on top of the given tip."""
    blocktime = compute_block_time(ctx.profile, ctx.interval, now, ctx.rng)
    depth = tip.depth + 1
    ctx.counter += 1
    return Block(
        id=derive_block_id(ctx.miner_id, depth, blocktime, ctx.counter),
        parent_id=tip.id,
        depth=depth,
        miner_id=ctx.miner_id,
        blocktime=blocktime,
        tx_ids=next_tx_ids(ctx.tx_pool_ids, depth),
    )


def ensure_pending(ctx: MiningContext, state: LocalChainState, now: float) -> Block | None:
    """Keep exactly one own block pending, drawn on the current tip.

    A pending block whose parent is no longer the tip is silently
    replaced (the tip moved before it came due). Returns the new pending
    block if one was drawn.
    """
    if ctx.pending is not None and ctx.pending.parent_id == state.tip.id:
        return None
    ctx.pending = draw_own_block(ctx, state.tip, now)
    return ctx.pending


def depth_limit(duration: float, interval: float) -> int:
    """Deepest block a run of this length can plausibly reach.

    Every real block has its blocktime inside the run and the network
    makes one block per interval on average, so the number of blocks a
    run ever makes is Poisson with mean duration / interval. Whatever the
    mean, a run makes more than twice it plus 64 with probability below
    1e-35, so a deeper block is forged; rejecting it bounds the
    placeholders a switch across a gap pads the chain with.
    """
    return 2 * math.ceil(duration / interval) + 64


def step(
    ctx: MiningContext,
    state: LocalChainState,
    received: Iterable[Block],
    now: float,
    duration: float,
    reject: Callable[[Block, ValueError], None] | None = None,
) -> tuple[list[UpdateAction], Block | None]:
    """One mining step; returns the actions taken and a block to broadcast.

    Received blocks are applied in the order given, then the pending own
    block is released if its blocktime has been reached. Own blocks are
    only due while the simulation clock is inside the run (blocktime past
    the duration never fires), and no new one is drawn once it is over.
    A received block that breaks the chain rules, or sits deeper than
    depth_limit, raises, unless reject is given: then reject(block, error)
    is told and the step goes on, with the state as if the block had
    never arrived.
    """
    actions: list[UpdateAction] = []
    for block in received:
        try:
            limit = depth_limit(duration, ctx.interval)
            if block.depth > limit:
                raise StructuralError(
                    f"depth {block.depth} is beyond {limit}, the deepest this run can reach"
                )
            action = apply_received_block(state, block)
        except (StructuralError, DuplicateIdConflict) as exc:
            if reject is None:
                raise
            reject(block, exc)
            continue
        if action.kind is ActionKind.APPENDED_RECEIVED:
            ctx.pending = None  # a peer block took the depth ours was mining
        ctx.tally.record(action)
        actions.append(action)
    broadcast: Block | None = None
    due = ctx.pending
    if due is not None and due.blocktime <= min(now, duration):
        ctx.pending = None
        ctx.tally.created += 1
        action = apply_created_block(state, due)
        ctx.tally.record(action)
        actions.append(action)
        if action.broadcast:
            broadcast = due
    if now < duration:
        ensure_pending(ctx, state, now)
    return actions, broadcast
