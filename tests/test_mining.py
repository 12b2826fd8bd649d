"""Tests for the shared mining-step logic."""

from __future__ import annotations

import math
import random

import pytest

import chainsim.mining as mining
from chainsim.blocks import Block, StructuralError, make_placeholder
from chainsim.chain import ActionKind, LocalChainState, UpdateAction, apply_created_block
from chainsim.mining import (
    MiningContext,
    draw_own_block,
    depth_limit,
    step,
    take_due,
)
from chainsim.timing import HashpowerProfile, check_block_interval, compute_block_time

GENESIS = Block(id="g", parent_id=None, depth=0, miner_id=0, blocktime=0.0)


def ctx_for(miner_id: int = 1, seed: int = 1) -> MiningContext:
    return MiningContext(
        miner_id=miner_id,
        profile=HashpowerProfile(own=10.0, total=20.0),
        interval=5.0,
        rng=random.Random(seed),
    )


def mk(bid: str, parent: Block, miner: int = 2, t: float | None = None) -> Block:
    return Block(
        id=bid,
        parent_id=parent.id,
        depth=parent.depth + 1,
        miner_id=miner,
        blocktime=t if t is not None else float(parent.depth + 1),
    )


def test_draw_own_block_shape():
    ctx = ctx_for()
    blk = draw_own_block(ctx, GENESIS, blocktime=7.0)
    assert blk.parent_id == GENESIS.id
    assert blk.depth == 1
    assert blk.miner_id == 1
    assert blk.blocktime == 7.0
    assert ctx.counter == 1
    other = draw_own_block(ctx, GENESIS, blocktime=7.0)
    assert other.id != blk.id  # counter keeps ids unique


def test_new_context_holds_its_first_draw_from_0():
    ctx = ctx_for(seed=4)
    want = random.Random(4)
    assert ctx.next_time == compute_block_time(ctx.profile, ctx.interval, 0.0, want)
    assert ctx.rng.getstate() == want.getstate()  # one draw, and only one
    drawn = ctx.next_time
    rng = ctx.rng.getstate()
    state = LocalChainState(GENESIS)
    assert step(ctx, state, [], now=drawn / 2, duration=1000.0) is None  # not due yet
    assert ctx.next_time == drawn
    assert ctx.rng.getstate() == rng
    assert ctx.counter == 0  # no block is built before it falls due


def foreign_branch(n: int) -> list[Block]:
    branch = [GENESIS]
    for i in range(1, n + 1):
        branch.append(mk(f"t{i}", branch[-1], miner=2, t=0.01 * i))
    return branch


def test_tip_moves_leave_next_time_and_rng_alone():
    # an append, an uncle and a switch each consume no draw
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    drawn, rng = ctx.next_time, ctx.rng.getstate()
    theirs = foreign_branch(3)
    rival = mk("r1", GENESIS, miner=3, t=0.01)
    arrivals = [theirs[1], rival, theirs[3]]
    assert step(ctx, state, arrivals, now=0.05, duration=1000.0) is None
    assert ctx.tally.as_dict() == {
        "created": 0, "appended_received": 1, "uncled": 1, "switches": 1
    }
    assert state.main_chain[2] == make_placeholder("t2", 2)
    assert state.tip is theirs[3] and state.block_store["r1"] is rival
    assert ctx.next_time == drawn
    assert ctx.rng.getstate() == rng
    assert ctx.counter == 0 and ctx.tally.created == 0


def test_step_releases_due_block_and_broadcasts():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    due_at = ctx.next_time
    broadcast = step(ctx, state, [], now=due_at, duration=1000.0)
    assert state.main_chain == [GENESIS, broadcast]
    assert state.block_store[broadcast.id] is broadcast
    assert broadcast.parent_id == GENESIS.id and broadcast.blocktime == due_at
    assert ctx.next_time > due_at  # the next draw starts from the blocktime
    assert ctx.tally.as_dict() == {
        "created": 1, "appended_received": 0, "uncled": 0, "switches": 0
    }


def test_step_without_due_events_is_identity():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    before = (list(state.main_chain), ctx.next_time, ctx.rng.getstate(), ctx.tally.as_dict())
    assert step(ctx, state, [], now=0.0, duration=1000.0) is None
    assert (list(state.main_chain), ctx.next_time, ctx.rng.getstate(), ctx.tally.as_dict()) == before


def test_step_switches_then_builds_own_block_on_the_new_tip():
    # a deeper foreign-branch block arrives just as our own block comes due
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    for bid, t in (("a1", 0.003), ("a2", 0.006)):
        apply_created_block(state, mk(bid, state.tip, miner=1, t=t))
    due_at = ctx.next_time
    theirs = foreign_branch(4)
    broadcast = step(ctx, state, [theirs[4]], now=due_at, duration=1000.0)
    assert broadcast is state.tip and state.main_chain[4] is theirs[4]
    assert broadcast.parent_id == "t4" and broadcast.depth == 5
    assert broadcast.blocktime == due_at
    assert ctx.tally.switches == 1 and ctx.tally.created == 1


def test_step_honors_duration_gate():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    due_at, rng = ctx.next_time, ctx.rng.getstate()
    # clock has run past the end; the block is not released even if due
    assert step(ctx, state, [], now=due_at + 100.0, duration=due_at - 0.1) is None
    assert ctx.next_time == due_at  # still parked, never released
    assert ctx.rng.getstate() == rng  # nothing drawn past the end
    assert state.main_chain == [GENESIS] and ctx.tally.created == 0


def test_step_does_not_redraw_after_expiry():
    # a block due exactly at the end is released, and nothing drawn after it
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    due_at = ctx.next_time
    rng = ctx.rng.getstate()
    broadcast = step(ctx, state, [], now=due_at, duration=due_at)
    assert broadcast is state.tip and broadcast.blocktime == due_at
    assert ctx.next_time is None and ctx.rng.getstate() == rng
    # None means no more own blocks this run: a later step releases none
    assert step(ctx, state, [], now=due_at + 50.0, duration=due_at) is None
    assert state.main_chain == [GENESIS, broadcast] and ctx.rng.getstate() == rng


def test_step_rejects_rule_breaking_blocks_and_goes_on():
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    drawn = ctx.next_time
    good = mk("p1", GENESIS, t=drawn / 2)
    skewed = Block(id="x", parent_id="g", depth=3, miner_id=2, blocktime=0.1)
    bad = [make_placeholder("hole", 1), skewed]
    with pytest.raises(StructuralError):
        step(ctx_for(), LocalChainState(GENESIS), bad, now=0.0, duration=1000.0)
    rejected = []
    broadcast = step(
        ctx,
        state,
        [bad[0], good, bad[1]],
        now=drawn / 2,
        duration=1000.0,
        reject=lambda block, exc: rejected.append(block),
    )
    assert rejected == bad and broadcast is None
    assert ctx.tally.as_dict() == {
        "created": 0, "appended_received": 1, "uncled": 0, "switches": 0
    }
    assert state.main_chain == [GENESIS, good]
    assert set(state.block_store) == {"g", "p1"}
    assert ctx.next_time == drawn  # the new tip moved no draw


def test_a_step_that_raises_counts_what_it_applied():
    # counted in locals, the actions reach the tally in a finally
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    drawn = ctx.next_time
    p1 = mk("p1", GENESIS, t=drawn / 4)
    p2 = mk("p2", p1, t=drawn / 3)
    too_deep = Block(id="x", parent_id="p2", depth=4, miner_id=2, blocktime=drawn / 2)
    with pytest.raises(StructuralError, match="parent p2 at depth 2, expected 3"):
        step(ctx, state, [p1, p2, too_deep], now=drawn, duration=1000.0)
    assert ctx.tally.as_dict() == {
        "created": 0, "appended_received": 2, "uncled": 0, "switches": 0
    }
    assert state.main_chain == [GENESIS, p1, p2]
    assert state.block_store == {"g": GENESIS, "p1": p1, "p2": p2}
    assert ctx.next_time == drawn and ctx.counter == 0


@pytest.mark.parametrize(
    "own, total", [(1e308, math.inf), (5e-324, 10.0)], ids=["total-overflows", "mean-overflows"]
)
def test_a_context_refuses_a_mean_block_interval_that_is_not_finite(own, total):
    with pytest.raises(ValueError, match="mean block interval .* is not finite"):
        MiningContext(
            miner_id=1,
            profile=HashpowerProfile(own=own, total=total),
            interval=5.0,
            rng=random.Random(1),
        )


@pytest.mark.parametrize(
    "own, total", [(1.0, 1.0), (0.4, 0.4)], ids=["rate-overflows", "mean-underflows"]
)
def test_an_interval_too_small_to_have_a_rate_is_refused(own, total):
    # the check alone, no context: a context built past a missing check would draw for ever
    with pytest.raises(ValueError, match="at interval 5e-324 is .*too small to have a finite rate"):
        check_block_interval(HashpowerProfile(own=own, total=total), 5e-324)


def test_a_context_checks_its_mean_interval_once_not_per_draw(monkeypatch):
    checks = []
    check = mining.check_block_interval
    monkeypatch.setattr(
        mining, "check_block_interval", lambda *args: checks.append(args) or check(*args)
    )
    ctx = ctx_for()
    state = LocalChainState(GENESIS)
    for _ in range(5):
        assert step(ctx, state, (), now=ctx.next_time, duration=1000.0) is not None
    assert ctx.tally.created == 5 and len(checks) == 1


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
    with pytest.raises(StructuralError, match="beyond"):
        step(ctx_for(), LocalChainState(GENESIS), forged[-1:], now=0.0, duration=1000.0)
    rejected = []
    step(
        ctx, state, forged, now=0.0, duration=1000.0,
        reject=lambda block, exc: rejected.append(block),
    )
    assert rejected == forged
    assert state.block_store == {"g": GENESIS} and state.tip is GENESIS and state.waiting == {}
    # the deepest plausible block still switches across its gap
    at_limit = Block(id="edge", parent_id="nowhere", depth=limit, miner_id=2, blocktime=1.0)
    step(ctx, state, [at_limit], now=0.0, duration=1000.0)
    assert ctx.tally.switches == 1 and ctx.tally.as_dict()["appended_received"] == 0
    assert state.tip.id == "edge" and len(state.main_chain) == limit + 1


def state_before(kind: ActionKind) -> tuple[LocalChainState, list[Block]]:
    """A state after an own block a1, and the arrival that makes a step of kind."""
    state = LocalChainState(GENESIS)
    a1 = mk("a1", GENESIS, miner=1, t=0.003)
    apply_created_block(state, a1)
    theirs = foreign_branch(2)
    arrivals = {
        ActionKind.APPENDED_RECEIVED: [mk("b2", a1, miner=2, t=0.004)],
        ActionKind.UNCLED: [theirs[1]],
        ActionKind.SWITCHED_CHAIN: [theirs[2]],
    }
    return state, arrivals[kind]


@pytest.mark.parametrize("kind", list(ActionKind))
def test_step_counts_each_kind_once_in_its_own_counter(kind):
    ctx = ctx_for()
    state, arrivals = state_before(kind)
    assert step(ctx, state, arrivals, now=0.003, duration=1000.0) is None
    want = {name: 0 for name in ctx.tally.as_dict()}
    want["switches" if kind is ActionKind.SWITCHED_CHAIN else kind.value] = 1
    assert ctx.tally.as_dict() == want


@pytest.mark.parametrize("kind", list(ActionKind))
def test_step_refuses_a_received_action_that_is_not_shared(monkeypatch, kind):
    # step tells actions apart by identity, so a copy would go uncounted
    monkeypatch.setattr(mining, "apply_received_block", lambda state, block: UpdateAction(kind))
    ctx = ctx_for()
    state, arrivals = state_before(kind)
    with pytest.raises(ValueError, match="shared"):
        step(ctx, state, arrivals, now=0.003, duration=1000.0)
    assert ctx.tally.as_dict() == {name: 0 for name in ctx.tally.as_dict()}


def test_take_due_slices_off_the_prefix_before_until_in_due_seq_order():
    a, b, c, d = (mk(x, GENESIS) for x in "abcd")  # Blocks do not order: seq must
    # a is read first with a long delay, b later with a shorter one: b overtakes a;
    # c ties with b on due and comes after it by seq
    inbox = [(3.0, 0, a), (1.5, 1, b), (1.5, 2, c), (4.0, 3, d)]
    assert [e[2] for e in take_due(inbox, (1.5, 2))] == [b]  # the entry at until stays
    assert [e[2] for e in take_due(inbox, (3.0,))] == [c]  # due at 3.0 is not before it
    assert [e[2] for e in take_due(inbox, (4.0, math.inf))] == [a, d]
    assert inbox == []
    assert take_due(inbox, (9.0, math.inf)) == []
