"""In-process simulation on a logical clock, for deterministic runs.

Same rules as the live network: every event goes through mining.step,
and every inbox through mining.take_due. One priority queue holds each
miner's next own blocktime, the first drawn from 0 when its context is
built and none moved by a received block, and time jumps from one to
the next. A step returns the own block it releases, and the engine
broadcasts it: the block joins each receiver's inbox, due U(lo, hi)
sim-seconds after its blocktime, drawn per (block, receiver) pair, so
blocks may overtake each other; the live miner draws the same delay,
also from the blocktime, on the one clock its run's miners share. The
fan-out walks the sender's list of the other inboxes' append methods,
made once per run, and one queue seq serves every delivery of a
broadcast: each receiver gets one, so seqs stay unique within an inbox.
An empty inbox is not sorted.
Mining is memoryless, so a miner's state matters only when its own block
falls due and when the run ends: there one step applies every held block
due before, in (time, queue order); blocks due after the duration are
dropped. Each miner then reports its tip and its count of placeholders,
neither of which builds a chain; only the winner's main chain is built.
Every random draw comes from a seeded generator, so a given
configuration replays bit-identically.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter

from .blocks import Block
from .chain import ConsensusEntry, LocalChainState, finalize_state, select_consensus_winner
from .mining import MiningContext, MinerTally, step, take_due
from .simulation import (
    SimulationConfig,
    create_genesis,
    emit_report,
    resolve_hashpowers,
    subseed_for,
)
from .timing import DEFAULT_DELAY_RANGE, HashpowerProfile, check_delay_range

# Bound here though unused: the benchmark's tracer patches these names on this module.
from .chain import apply_created_block, apply_received_block  # noqa: F401
from .mining import draw_own_block  # noqa: F401


@dataclass
class RunResult:
    report: dict
    discarded: bool
    winner_id: int | None
    final_chain: list[Block] | None
    states: list[LocalChainState]
    tallies: list[MinerTally]


def run_events(
    ctxs: list[MiningContext],
    states: list[LocalChainState],
    duration: float,
    delay_range: tuple[float, float],
    net_rng: random.Random,
) -> None:
    """Step every miner through the run, from its first blocktime to the duration."""
    n = len(ctxs)
    next_seq = itertools.count().__next__
    # Random.uniform(lo, hi) written out, bound once: the fan-out draws
    # once per (block, receiver) pair, and the floats come out the same
    lo, hi = delay_range
    span = hi - lo
    random_unit = net_rng.random
    # (time, seq, miner index): a miner's own blocktime coming due
    heap: list[tuple[float, int, int]] = []
    # per miner, (arrival time, seq, block) for each block still on its
    # way, unsorted until take_due drains it
    inboxes: list[list[tuple[float, int, Block]]] = [[] for _ in range(n)]
    appends = [inbox.append for inbox in inboxes]
    # per sender, the other miners' inbox appends, in miner order
    peers_of = [appends[:i] + appends[i + 1 :] for i in range(n)]
    block_of = itemgetter(2)

    for i, ctx in enumerate(ctxs):
        if ctx.next_time is not None:
            heapq.heappush(heap, (ctx.next_time, next_seq(), i))

    while heap:
        t, s, i = heapq.heappop(heap)
        if t > duration:
            break
        inbox = inboxes[i]
        due = map(block_of, take_due(inbox, (t, s))) if inbox else ()
        ctx = ctxs[i]
        broadcast = step(ctx, states[i], due, t, duration)
        if broadcast is not None:
            # the own block came due, and its successor was drawn. One seq
            # serves every delivery: each receiver gets one, so seqs stay
            # unique within an inbox.
            seq = next_seq()
            for deliver in peers_of[i]:
                deliver((t + (lo + span * random_unit()), seq, broadcast))
            if ctx.next_time is not None:
                heapq.heappush(heap, (ctx.next_time, next_seq(), i))
    end = (duration, math.inf)
    for i in range(n):
        due = map(block_of, take_due(inboxes[i], end))
        step(ctxs[i], states[i], due, duration, duration)


def run_logical(
    config: SimulationConfig,
    hashpowers: list[float] | None = None,
    delay_range: tuple[float, float] = DEFAULT_DELAY_RANGE,
) -> RunResult:
    """One full simulation plus consensus, entirely in this process."""
    check_delay_range(delay_range)
    powers = resolve_hashpowers(config, hashpowers)
    total = sum(powers)
    genesis = create_genesis()

    n = config.num_miners
    states = [LocalChainState(genesis) for _ in range(n)]
    ctxs = [
        MiningContext(
            miner_id=i + 1,
            profile=HashpowerProfile(own=powers[i], total=total),
            interval=config.interval,
            rng=random.Random(subseed_for(config.seed, i + 1)),
        )
        for i in range(n)
    ]
    run_events(ctxs, states, config.duration, delay_range, random.Random(f"net:{config.seed}"))

    remaining = [finalize_state(s) for s in states]
    entries = [
        ConsensusEntry(miner_id=i + 1, last_block=states[i].tip) for i in range(n)
    ]
    winner_id = select_consensus_winner(entries)
    discarded = remaining[winner_id - 1] > 0
    # the broadcast result IS final_chain, the one chain the run builds;
    # states keep each miner's own pre-consensus view, its chain built on
    # demand, so callers can inspect divergence
    final_chain = None if discarded else states[winner_id - 1].main_chain

    report = emit_report(
        final_chain,
        [{"miner_id": i + 1, "slot": i, "hashpower": powers[i]} for i in range(n)],
        config=config,
        winner_id=None if discarded else winner_id,
        reason="winning chain still contains placeholder blocks" if discarded else None,
    )
    report["mode"] = "logical"
    report["miner_stats"] = [
        {
            "miner_id": i + 1,
            "hashpower": powers[i],
            "placeholders_remaining": remaining[i],
            "tally": ctxs[i].tally.as_dict(),
        }
        for i in range(n)
    ]
    return RunResult(
        report=report,
        discarded=discarded,
        winner_id=None if discarded else winner_id,
        final_chain=final_chain,
        states=states,
        tallies=[c.tally for c in ctxs],
    )
