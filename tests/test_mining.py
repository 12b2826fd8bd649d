"""Tests for the shared mining-step logic."""

from __future__ import annotations

import random

import pytest

import chainsim.chain as chain

from chainsim.blocks import Block, StructuralError, make_placeholder
from chainsim.chain import ActionKind, LocalChainState, apply_created_block
from chainsim.mining import (
    MiningContext,
    TXS_PER_BLOCK,
    draw_own_block,
    depth_limit,
    ensure_pending,
    next_tx_ids,
    step,
)
from chainsim.timing import HashpowerProfile

GENESIS = Block(id="g", parent_id=None, depth=0, miner_id=0, blocktime=0.0)


def ctx_for(miner_id: int = 1, pool: int = 30, seed: int = 1) -> MiningContext:
    return MiningContext(
        miner_id=miner_id,
        profile=HashpowerProfile(own=10.0, total=20.0),
        interval=5.0,
        rng=random.Random(seed),
        tx_pool_ids=tuple(f"tx{i}" for i in range(pool)),
    )


def mk(bid: str, parent: Block, miner: int = 2, t: float | None = None) -> Block:
    return Block(
        id=bid,
        parent_id=parent.id,
        depth=parent.depth + 1,
        miner_id=miner,
        blocktime=t if t is not None else float(parent.depth + 1),
    )


def test_next_tx_ids_slices_pool_by_depth():
    pool = tuple(f"tx{i}" for i in range(25))
    assert next_tx_ids(pool, 1) == pool[0:10]
    assert next_tx_ids(pool, 2) == pool[10:20]
    assert next_tx_ids(pool, 3) == pool[20:25]  # pool runs dry
    assert next_tx_ids(pool, 4) == ()
    assert TXS_PER_BLOCK == 10


def test_draw_own_block_shape():
    ctx = ctx_for()
    blk = draw_own_block(ctx, GENESIS, now=7.0)
    assert blk.parent_id == GENESIS.id
    assert blk.depth == 1
    assert blk.miner_id == 1
    assert blk.blocktime > 7.0
    assert blk.tx_ids == ctx.tx_pool_ids[:10]
    other = draw_own_block(ctx, GENESIS, now=7.0)
    assert other.id != blk.id  # counter keeps ids unique


def test_ensure_pending_keeps_fresh_block():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    drawn = ensure_pending(ctx, state, now=0.0)
    assert drawn is not None
    assert ctx.pending is drawn
    assert ensure_pending(ctx, state, now=1.0) is None  # still on the tip
    assert ctx.pending is drawn


def test_ensure_pending_replaces_stale_block():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    stale = ensure_pending(ctx, state, now=0.0)
    apply_created_block(state, mk("own1", GENESIS, miner=1, t=1.0))
    fresh = ensure_pending(ctx, state, now=1.0)
    assert fresh is not None and fresh is not stale
    assert ctx.pending is fresh
    assert fresh.parent_id == "own1"


def test_step_releases_due_block_and_broadcasts():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    pending = ensure_pending(ctx, state, now=0.0)
    actions, broadcast = step(ctx, state, [], now=pending.blocktime, duration=1000.0)
    assert [a.kind for a in actions] == [ActionKind.APPENDED_OWN]
    assert broadcast is pending
    assert state.tip is pending
    assert ctx.pending.parent_id == pending.id  # fresh draw followed
    assert ctx.tally.created == 1 and ctx.tally.appended_own == 1


def test_step_without_due_events_is_identity():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    ensure_pending(ctx, state, now=0.0)
    before = (list(state.main_chain), ctx.pending)
    actions, broadcast = step(ctx, state, [], now=0.0, duration=1000.0)
    assert actions == [] and broadcast is None
    assert (list(state.main_chain), ctx.pending) == before


def test_step_switches_then_drops_stale_own_block():
    # a deeper foreign-branch block arrives just as our own block comes due
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    for bid, t in (("a1", 3.0), ("a2", 6.0)):
        apply_created_block(state, mk(bid, state.tip, miner=1, t=t))
    pending = ensure_pending(ctx, state, now=6.0)
    due_at = pending.blocktime
    foreign = [GENESIS]
    for i in range(1, 5):
        foreign.append(mk(f"t{i}", foreign[-1], miner=2, t=1.5 * i))
    actions, broadcast = step(ctx, state, [foreign[4]], now=due_at, duration=1000.0)
    assert [a.kind for a in actions] == [
        ActionKind.SWITCHED_CHAIN,
        ActionKind.DROPPED_STALE,
    ]
    assert broadcast is None
    assert state.tip.id == "t4"
    assert ctx.tally.switches == 1 and ctx.tally.dropped_stale == 1
    assert ctx.pending.parent_id == "t4"  # rescheduled on the new tip


def test_step_honors_duration_gate():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    pending = ensure_pending(ctx, state, now=0.0)
    # clock has run past the end; the block is not released even if due
    actions, broadcast = step(
        ctx, state, [], now=pending.blocktime + 100.0, duration=pending.blocktime - 0.1
    )
    assert actions == [] and broadcast is None
    assert ctx.pending is pending  # still parked, never released


def test_step_does_not_redraw_after_expiry():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    actions, broadcast = step(ctx, state, [], now=50.0, duration=10.0)
    assert actions == [] and broadcast is None
    assert ctx.pending is None  # nothing drawn past the end


def test_step_rejects_rule_breaking_blocks_and_goes_on():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    pending = ensure_pending(ctx, state, now=0.0)
    good = mk("p1", GENESIS, t=pending.blocktime / 2)
    skewed = Block(id="x", parent_id="g", depth=3, miner_id=2, blocktime=0.1)
    bad = [make_placeholder("hole", 1), skewed]
    with pytest.raises(StructuralError):
        step(ctx_for(), LocalChainState(GENESIS), bad, now=0.0, duration=1000.0)
    rejected = []
    actions, _ = step(
        ctx,
        state,
        [bad[0], good, bad[1]],
        now=pending.blocktime / 2,
        duration=1000.0,
        reject=lambda block, exc: rejected.append(block),
    )
    assert rejected == bad
    assert [a.kind for a in actions] == [ActionKind.APPENDED_RECEIVED]
    assert state.main_chain == [GENESIS, good]
    assert set(state.block_store) == {"g", "p1"}
    assert ctx.pending.parent_id == "p1"  # redrawn on the new tip as usual


def test_depth_limit_is_far_above_the_expected_depth():
    assert depth_limit(1000.0, 5.0) == 2 * 200 + 64
    assert depth_limit(0.5, 5.0) == 66


def test_step_rejects_implausibly_deep_blocks_before_padding():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    limit = depth_limit(1000.0, ctx.interval)
    forged = [
        Block(id=f"deep{d}", parent_id="nowhere", depth=d, miner_id=2, blocktime=1.0)
        for d in (limit + 1, 10**12)
    ]
    padded = len(chain._UNKNOWN_RUN)
    with pytest.raises(StructuralError, match="beyond"):
        step(ctx_for(), LocalChainState(GENESIS), forged[-1:], now=0.0, duration=1000.0)
    rejected = []
    actions, _ = step(
        ctx, state, forged, now=0.0, duration=1000.0,
        reject=lambda block, exc: rejected.append(block),
    )
    assert rejected == forged and actions == []
    assert state.main_chain == [GENESIS] and set(state.block_store) == {"g"}
    assert len(chain._UNKNOWN_RUN) == padded
    # the deepest plausible block still switches across its gap
    at_limit = Block(id="edge", parent_id="nowhere", depth=limit, miner_id=2, blocktime=1.0)
    actions, _ = step(ctx, state, [at_limit], now=0.0, duration=1000.0)
    assert [a.kind for a in actions] == [ActionKind.SWITCHED_CHAIN]
    assert state.tip.id == "edge" and len(state.main_chain) == limit + 1
