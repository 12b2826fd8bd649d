"""Pure mining-step logic shared by the live miner and the logical engine.

Mining is memoryless: a miner's wait for its next own block is
exponential, so a tip that moves under it leaves the remaining wait
unchanged. Each miner therefore keeps one drawn blocktime, next_time,
that no received block changes. A context draws the first one from 0
when it is built; when it falls due the own block is built on whatever
the tip is then, and the next blocktime is drawn from it.

`take_due` and `step` are the one place the event order lives, for both
modes: a step applies the held blocks due before its instant, in (due,
seq) order, then builds the own block if it is due and returns it, the
one block the step releases.

step runs once per event and draw_own_block once per own block, so both
skip what per-call work they can: an own block's id is hashed on from a
blake2b state over the miner's id prefix, made once per context, its
Block is built from positional arguments on the state's tip, and step
tells each received block's action apart by identity with chain's
shared actions. It counts them in locals and adds them to the tally
once, in a finally, so a step that raises counts exactly what it
applied. A context checks once, when built, that its mean block
interval is finite, so no draw checks it again.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .blocks import Block, StructuralError, block_id_prefix, prefixed_block_id
from .chain import (
    APPENDED_RECEIVED,
    SWITCHED_CHAIN,
    UNCLED,
    DuplicateIdConflict,
    LocalChainState,
    apply_created_block,
    apply_received_block,
)
from .timing import HashpowerProfile, check_block_interval, compute_block_time


@dataclass(slots=True)
class MinerTally:
    """Per-miner counters, reported at end of run: own blocks created, and
    each action chain's update rules took on a received block."""

    created: int = 0
    appended_received: int = 0
    uncled: int = 0
    switches: int = 0

    def as_dict(self) -> dict:
        return {
            "created": self.created,
            "appended_received": self.appended_received,
            "uncled": self.uncled,
            "switches": self.switches,
        }


@dataclass
class MiningContext:
    """Everything one miner needs to time, build and release its own blocks."""

    miner_id: int
    profile: HashpowerProfile
    interval: float
    rng: random.Random
    counter: int = 0  # own blocks built so far; keeps their ids unique
    tally: MinerTally = field(default_factory=MinerTally)
    # blocktime of the next own block; None once the run has no more, as a
    # block due at the duration itself draws no successor
    next_time: float | None = field(init=False)
    id_prefix: object = field(init=False, repr=False)  # blake2b state over the id prefix

    def __post_init__(self) -> None:
        # checked once here, not on every draw
        check_block_interval(self.profile, self.interval)
        self.id_prefix = block_id_prefix(self.miner_id)
        self.next_time = compute_block_time(self.profile, self.interval, 0.0, self.rng)


def draw_own_block(ctx: MiningContext, tip: Block, blocktime: float) -> Block:
    """Build the miner's own block on top of the given tip, at its blocktime.

    Its id is derive_block_id's, hashed on from the context's id prefix.
    """
    depth = tip.depth + 1
    ctx.counter = counter = ctx.counter + 1
    return Block(
        prefixed_block_id(ctx.id_prefix, depth, blocktime, counter),
        tip.id,
        depth,
        ctx.miner_id,
        blocktime,
    )


def depth_limit(duration: float, interval: float) -> int:
    """Deepest block a run of this length can plausibly reach.

    Every real block has its blocktime inside the run and the network
    makes one block per interval on average, so the number of blocks a
    run ever makes is Poisson with mean duration / interval. Whatever the
    mean, a run makes more than twice it plus 64 with probability below
    1e-35, so a deeper block is forged. Rejecting it bounds the list that
    reconstruct_chain allocates, one slot per depth, when the main chain
    is built on a forged deep tip.
    """
    return 2 * math.ceil(duration / interval) + 64


def take_due(inbox: list[tuple], until: tuple) -> list[tuple]:
    """Slice off, sorted, the inbox entries (due, seq, block, ...) before until.

    seq is unique, so no Block is ever compared; later entries stay behind.
    """
    inbox.sort()
    k = bisect.bisect_left(inbox, until)
    due = inbox[:k]
    del inbox[:k]
    return due


def step(
    ctx: MiningContext,
    state: LocalChainState,
    received: Iterable[Block],
    now: float,
    duration: float,
    reject: Callable[[Block, ValueError], None] | None = None,
) -> Block | None:
    """One mining step; returns the own block it releases, or None.

    Received blocks are applied in the order given; they never change
    ctx.next_time. Then, if ctx.next_time has been reached, the own block
    is built on the current tip at that blocktime, appended, and the next
    blocktime is drawn from it. Own blocks are only due while the
    simulation clock is inside the run (a blocktime past the duration
    never fires), and nothing is drawn at or after the duration.
    A received block that breaks the chain rules, or sits deeper than
    depth_limit, raises, unless reject is given: then reject(block, error)
    is told and the step goes on, with the state as if the block had
    never arrived.
    """
    limit = depth_limit(duration, ctx.interval)
    # counted in locals and added to the tally once, also when a block raises
    appended = uncled = switches = 0
    try:
        for block in received:
            try:
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
            # told apart by identity, most frequent first: an ActionKind member
            # read is an Enum class-attribute lookup, several times dearer than
            # the module-global read of a shared action
            if action is APPENDED_RECEIVED:
                appended += 1
            elif action is UNCLED:
                uncled += 1
            elif action is SWITCHED_CHAIN:
                switches += 1
            else:
                raise ValueError(f"{action!r} is not one of chain's shared actions")
    finally:
        tally = ctx.tally
        tally.appended_received += appended
        tally.uncled += uncled
        tally.switches += switches
    blocktime = ctx.next_time
    if blocktime is None or blocktime > min(now, duration):
        return None
    own = draw_own_block(ctx, state.tip, blocktime)
    tally.created += 1
    apply_created_block(state, own)
    ctx.next_time = None
    if blocktime < duration:
        ctx.next_time = compute_block_time(ctx.profile, ctx.interval, blocktime, ctx.rng)
    return own
