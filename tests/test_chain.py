"""Unit tests for the chain update rules, reconstruction and consensus pick."""

from __future__ import annotations

import dataclasses
import random

import pytest

from chainsim.blocks import Block, StructuralError, UNKNOWN_ID, UNKNOWN_MINER, make_placeholder
from chainsim.chain import (
    ActionKind,
    ConsensusEntry,
    DuplicateIdConflict,
    LocalChainState,
    NoParticipants,
    UpdateAction,
    apply_created_block,
    apply_received_block,
    fill_empty_blocks,
    finalize_state,
    reconstruct_chain,
    select_consensus_winner,
    validate_chain,
    verify_state_invariants,
)
from chainsim.mining import MiningContext, step
from chainsim.timing import HashpowerProfile

GENESIS = Block(id="g", parent_id=None, depth=0, miner_id=0, blocktime=0.0)


def snapshot(state: LocalChainState) -> tuple:
    """Everything a state holds: its store, its tip and its waiting index."""
    return dict(state.block_store), state.tip, {k: list(v) for k, v in state.waiting.items()}


def chain_and_store(state) -> tuple:
    """What a state and the list-backed oracle state must agree on."""
    return list(state.main_chain), dict(state.block_store)


def mk(bid: str, parent: Block, miner: int = 1, t: float | None = None) -> Block:
    return Block(
        id=bid,
        parent_id=parent.id,
        depth=parent.depth + 1,
        miner_id=miner,
        blocktime=t if t is not None else float(parent.depth + 1),
    )


def build_line(n: int, prefix: str = "b", miner: int = 1) -> list[Block]:
    chain = [GENESIS]
    for i in range(1, n + 1):
        chain.append(mk(f"{prefix}{i}", chain[-1], miner=miner))
    return chain


def fresh_state(chain: list[Block]) -> LocalChainState:
    state = LocalChainState(chain[0])
    for blk in chain[1:]:
        apply_created_block(state, blk)
    return state


def test_fresh_state_starts_at_genesis():
    state = LocalChainState(GENESIS)
    assert state.tip is GENESIS
    assert state.block_store == {"g": GENESIS}
    verify_state_invariants(state)


def test_created_block_appends_when_deeper():
    chain = build_line(5)
    state = fresh_state(chain[:5])  # tip depth 4
    assert apply_created_block(state, chain[5]) is None
    assert len(state.main_chain) == 6
    assert state.block_store["b5"] is chain[5]
    assert state.tip.id == "b5"
    verify_state_invariants(state)


def test_created_block_must_extend_the_tip():
    state = fresh_state(build_line(5))  # tip depth 5
    rival = mk("mine5", state.main_chain[4], miner=2)  # also depth 5
    skewed = Block(id="mine7", parent_id="b5", depth=7, miner_id=2, blocktime=7.0)
    before = snapshot(state)
    for bad in (rival, skewed, make_placeholder("b5", 6)):
        with pytest.raises(StructuralError):
            apply_created_block(state, bad)
    assert snapshot(state) == before
    verify_state_invariants(state)


def test_created_block_on_fresh_genesis():
    state = LocalChainState(GENESIS)
    first = mk("b1", GENESIS)
    apply_created_block(state, first)
    assert state.main_chain == [GENESIS, first]
    assert state.block_store == {"g": GENESIS, "b1": first}


def test_received_same_depth_becomes_uncle():
    state = fresh_state(build_line(7))
    rival = mk("r7", state.main_chain[6], miner=2)
    action = apply_received_block(state, rival)
    assert action.kind is ActionKind.UNCLED
    assert state.tip.id == "b7"
    assert state.block_store["r7"] is rival
    assert rival not in state.main_chain
    verify_state_invariants(state)


def test_received_child_of_tip_appends_then_own_block_extends_it():
    state = fresh_state(build_line(7))
    ctx = MiningContext(
        miner_id=1,
        profile=HashpowerProfile(own=1.0, total=2.0),
        interval=5.0,
        rng=random.Random(1),
    )
    ctx.next_time = 7.5  # due right now, the last instant of the run
    peer = mk("p8", state.tip, miner=2, t=7.5)
    broadcast = step(ctx, state, [peer], now=7.5, duration=7.5)
    assert state.main_chain[8] is peer
    assert broadcast is state.tip and broadcast.parent_id == "p8" and broadcast.depth == 9
    assert ctx.tally.created == 1 and ctx.tally.appended_received == 1
    verify_state_invariants(state)


def test_received_deeper_branch_switches_chain():
    # two branches by hand: ours depth 7, theirs depth 9
    ours = build_line(7, prefix="a", miner=1)
    theirs = build_line(9, prefix="t", miner=2)
    state = fresh_state(ours)
    for blk in theirs[1:8]:  # t1..t7 arrive while our tip is still deeper or equal
        action = apply_received_block(state, blk)
        assert action.kind is ActionKind.UNCLED
    action = apply_received_block(state, theirs[9])
    assert action.kind is ActionKind.SWITCHED_CHAIN
    assert len(state.main_chain) == 10
    assert state.main_chain[8].is_empty and state.main_chain[8].id == "t8"
    apply_received_block(state, theirs[8])  # late ancestor fills in
    assert [b.id for b in state.main_chain] == [b.id for b in theirs]
    # displaced blocks stay in the store, off the main chain
    assert set(state.block_store) == {b.id for b in ours + theirs}
    assert state.main_chain == brute_force_deepest(state.block_store)
    verify_state_invariants(state)


def test_duplicate_delivery_is_noop():
    state = fresh_state(build_line(3))
    rival = mk("r3", state.main_chain[2], miner=2)
    apply_received_block(state, rival)
    before = snapshot(state)
    action = apply_received_block(state, rival)
    assert action.kind is ActionKind.UNCLED
    assert snapshot(state) == before


def actions_of_every_kind(suffix: str) -> dict[ActionKind, UpdateAction]:
    """One fresh call per kind, on blocks named apart by suffix."""
    state = fresh_state(build_line(3, prefix=f"b{suffix}-"))
    appended = apply_received_block(state, mk(f"p{suffix}", state.tip, miner=2))
    uncle = apply_received_block(state, mk(f"u{suffix}", state.main_chain[2], miner=3))
    side = build_line(7, prefix=f"s{suffix}-", miner=4)
    switched = apply_received_block(state, side[-1])
    return {
        ActionKind.APPENDED_RECEIVED: appended,
        ActionKind.UNCLED: uncle,
        ActionKind.SWITCHED_CHAIN: switched,
    }


def test_each_kind_returns_one_shared_frozen_action():
    first, again = actions_of_every_kind("x"), actions_of_every_kind("y")
    for kind in ActionKind:
        action = first[kind]
        assert action.kind is kind
        assert again[kind] is action  # the same object on every call
        assert action == UpdateAction(kind)
        with pytest.raises(dataclasses.FrozenInstanceError):
            action.kind = ActionKind.UNCLED
        assert action.kind is kind
    # traces and reports name actions by these strings
    assert {k: a.kind.value for k, a in first.items()} == {
        ActionKind.APPENDED_RECEIVED: "appended_received",
        ActionKind.UNCLED: "uncled",
        ActionKind.SWITCHED_CHAIN: "switched_chain",
    }


def test_conflicting_block_id_rejected():
    state = fresh_state(build_line(3))
    rival = mk("r3", state.main_chain[2], miner=2, t=3.0)
    apply_received_block(state, rival)
    forged = mk("r3", state.main_chain[2], miner=4, t=3.0)
    with pytest.raises(DuplicateIdConflict):
        apply_received_block(state, forged)


def test_received_genesis_level_block_rejected():
    state = fresh_state(build_line(3))
    root = Block(id="g2", parent_id=None, depth=0, miner_id=0, blocktime=0.0)
    for blk in (root, GENESIS):
        with pytest.raises(StructuralError):
            apply_received_block(state, blk)
    assert "g2" not in state.block_store
    verify_state_invariants(state)


def test_invariants_demand_exactly_one_genesis_in_store():
    state = fresh_state(build_line(2))
    state.block_store["g2"] = Block(id="g2", parent_id=None, depth=0, miner_id=0, blocktime=0.0)
    with pytest.raises(StructuralError):
        verify_state_invariants(state)


def forge_skewed_parent(state: LocalChainState, line: list[Block]) -> None:
    state.block_store["w4"] = Block(id="w4", parent_id="b1", depth=4, miner_id=2, blocktime=4.0)


def forge_missing_waiting_entry(state: LocalChainState, line: list[Block]) -> None:
    state.block_store["o3"] = Block(id="o3", parent_id="o2", depth=3, miner_id=2, blocktime=3.0)


def forge_extra_waiting_entry(state: LocalChainState, line: list[Block]) -> None:
    state.waiting["b2"] = [line[3]]


def forge_unstored_tip(state: LocalChainState, line: list[Block]) -> None:
    state.tip = mk("t6", line[5], miner=2)


def forge_shallow_tip(state: LocalChainState, line: list[Block]) -> None:
    state.tip = line[4]


def test_invariants_refuse_a_forged_store_tip_or_waiting():
    line = build_line(5)
    for forge, message in (
        (forge_skewed_parent, "w4 at depth 4 names parent b1 at depth 1"),
        (forge_missing_waiting_entry, "waiting must list exactly"),
        (forge_extra_waiting_entry, "waiting must list exactly"),
        (forge_unstored_tip, "tip t6 is not stored"),
        (forge_shallow_tip, "b5 is deeper than the tip"),
    ):
        state = fresh_state(line)
        verify_state_invariants(state)
        forge(state, line)
        with pytest.raises(StructuralError, match=message):
            verify_state_invariants(state)


@pytest.mark.parametrize(
    "bad",
    [
        make_placeholder("b4", 4),
        mk("b2", GENESIS, miner=9),  # id of a main-chain block, other content
        Block(id="deep", parent_id="x5", depth=7, miner_id=2, blocktime=7.0),  # child of tip
        Block(id="sw", parent_id="b1", depth=6, miner_id=2, blocktime=6.0),  # b1 is depth 1
        Block(id="fill", parent_id="b1", depth=4, miner_id=2, blocktime=4.0),  # fills x4
        Block(id="loop", parent_id="loop", depth=6, miner_id=2, blocktime=6.0),  # names itself
    ],
    ids=[
        "placeholder", "conflicting-id", "tip-child-depth", "branch-depth", "fill-depth",
        "self-parent",
    ],
)
def test_rejected_block_leaves_state_unchanged(bad):
    chain = build_line(3)
    state = fresh_state(chain)
    x5 = Block(id="x5", parent_id="fill", depth=5, miner_id=3, blocktime=5.0)
    apply_received_block(state, x5)  # switch across a gap: placeholder "fill" at depth 4
    assert state.main_chain[4] == make_placeholder("fill", 4)
    before = snapshot(state)
    with pytest.raises((StructuralError, DuplicateIdConflict)):
        apply_received_block(state, bad)
    assert snapshot(state) == before
    verify_state_invariants(state)


def test_received_block_fills_main_chain_placeholder():
    # deliver a deep tip first so its missing parent becomes a placeholder
    line = build_line(3, prefix="x", miner=2)
    state = LocalChainState(GENESIS)
    apply_received_block(state, line[1])
    apply_received_block(state, line[3])  # x2 missing -> switch
    assert state.main_chain[2].is_empty and state.main_chain[2].id == "x2"
    action = apply_received_block(state, line[2])
    assert action.kind is ActionKind.UNCLED  # depth 2 <= tip depth 3
    assert state.main_chain == line  # slotted in, not an uncle
    verify_state_invariants(state)


def test_reconstruct_full_ancestry():
    g, a, b = build_line(2)
    store = {blk.id: blk for blk in (g, a, b)}
    assert reconstruct_chain(store, b) == [g, a, b]


def test_reconstruct_missing_parent_yields_placeholder():
    g, a, b = build_line(2)
    store = {g.id: g, b.id: b}  # a missing
    chain = reconstruct_chain(store, b)
    assert chain == [g, make_placeholder("b1", 1), b]
    assert chain[1].is_empty


def test_reconstruct_genesis_tip_is_identity():
    assert reconstruct_chain({"g": GENESIS}, GENESIS) == [GENESIS]


def test_reconstruct_long_gap_cascades_unknown_placeholders():
    chain = build_line(5)
    store = {chain[0].id: chain[0], chain[5].id: chain[5]}  # only genesis and tip
    got = reconstruct_chain(store, chain[5])
    assert len(got) == 6
    assert got[0] == GENESIS and got[5] == chain[5]
    assert got[4].is_empty and got[4].id == "b4"  # id known from tip's parent link
    assert all(got[d].is_empty and got[d].id == UNKNOWN_ID for d in (1, 2, 3))


def test_reconstruct_depth_mismatch_rejected():
    bad_parent = Block(id="p", parent_id="g", depth=3, miner_id=1, blocktime=3.0)
    tip = Block(id="t", parent_id="p", depth=5, miner_id=1, blocktime=5.0)
    store = {"g": GENESIS, "p": bad_parent, "t": tip}
    with pytest.raises(StructuralError):
        reconstruct_chain(store, tip)


def test_fill_replaces_placeholder_when_present():
    g, a, b = build_line(2)
    chain = [g, make_placeholder("b1", 1), b]
    filled, remaining = fill_empty_blocks(chain, {g.id: g, a.id: a, b.id: b})
    assert filled == [g, a, b]
    assert remaining == 0


def test_fill_keeps_placeholder_when_absent():
    g, a, b = build_line(2)
    chain = [g, make_placeholder("b1", 1), b]
    filled, remaining = fill_empty_blocks(chain, {g.id: g, b.id: b})
    assert filled == chain
    assert remaining == 1


def test_fill_without_placeholders_is_identity():
    chain = build_line(4)
    filled, remaining = fill_empty_blocks(chain, {b.id: b for b in chain})
    assert filled == chain
    assert remaining == 0


def test_fill_resolves_unknown_ids_top_down():
    chain = build_line(5)
    store = {b.id: b for b in chain}
    holey = [chain[0]] + [make_placeholder(UNKNOWN_ID, d) for d in (1, 2, 3)]
    holey += [make_placeholder("b4", 4), chain[5]]
    filled, remaining = fill_empty_blocks(holey, store)
    assert filled == chain
    assert remaining == 0


def test_invariants_reject_a_stored_block_left_off_its_placeholder():
    line = build_line(3, prefix="x", miner=2)
    state = LocalChainState(GENESIS)
    apply_received_block(state, line[1])
    apply_received_block(state, line[3])  # placeholder for x2
    state.block_store["x2"] = line[2]  # by hand: an arrival would have filled it
    with pytest.raises(StructuralError):
        verify_state_invariants(state)


def test_a_tip_child_that_a_stored_block_waits_on_at_the_wrong_depth_is_refused():
    chain = build_line(5)
    waiter = Block(id="w3", parent_id="c6", depth=3, miner_id=2, blocktime=3.0)
    child = mk("c6", chain[5], miner=1)
    for apply in (apply_created_block, apply_received_block):
        state = fresh_state(chain)
        apply_received_block(state, waiter)  # an uncle waiting on c6
        before = snapshot(state)
        with pytest.raises(StructuralError, match="parent c6 at depth 6, expected 2"):
            apply(state, child)
        assert snapshot(state) == before
        verify_state_invariants(state)


def test_late_parent_at_the_wrong_depth_is_refused():
    chain = build_line(5)
    child = Block(id="B", parent_id="X", depth=10, miner_id=3, blocktime=10.0)
    parent = Block(id="X", parent_id="b2", depth=3, miner_id=3, blocktime=3.0)
    for first, second in ((child, parent), (parent, child)):
        state = fresh_state(chain)
        apply_received_block(state, first)  # a switch across a gap, or an uncle
        before = snapshot(state)
        with pytest.raises(StructuralError, match="parent X at depth 3, expected 9"):
            apply_received_block(state, second)
        assert snapshot(state) == before
        verify_state_invariants(state)
        if first is child:
            assert state.main_chain[9] == make_placeholder("X", 9)
            assert finalize_state(state) == 9
            assert snapshot(state) == before  # finalize only counts
        else:
            assert state.main_chain == chain and finalize_state(state) == 0


def test_a_gap_off_the_main_chain_counts_no_placeholder():
    chain = build_line(5)
    state = fresh_state(chain)
    side = Block(id="s4", parent_id="s3", depth=4, miner_id=2, blocktime=4.0)
    assert apply_received_block(state, side).kind is ActionKind.UNCLED
    assert state.waiting == {"s3": [side]}  # so finalize walks the main chain
    assert finalize_state(state) == 0
    assert state.main_chain == chain
    verify_state_invariants(state)


def entry(miner: int, depth: int, t: float) -> ConsensusEntry:
    blk = Block(id=f"m{miner}", parent_id="x", depth=depth, miner_id=miner, blocktime=t)
    return ConsensusEntry(miner_id=miner, last_block=blk)


def test_winner_deeper_chain():
    assert select_consensus_winner([entry(1, 75, 990.0), entry(2, 74, 980.0)]) == 1


def test_winner_earliest_blocktime_on_tie():
    assert select_consensus_winner([entry(1, 75, 990.2), entry(2, 75, 981.7)]) == 2


def test_winner_lowest_id_on_full_tie():
    assert select_consensus_winner([entry(5, 75, 990.2), entry(3, 75, 990.2)]) == 3


def test_winner_requires_entries():
    with pytest.raises(NoParticipants):
        select_consensus_winner([])


def test_winner_matches_sort_oracle_and_permutation_invariant():
    rng = random.Random(1234)
    for _ in range(300):
        entries = [
            entry(m, rng.randint(1, 20), round(rng.uniform(0, 100), 1))
            for m in rng.sample(range(1, 50), rng.randint(1, 8))
        ]
        want = sorted(entries, key=lambda e: (-e.last_block.depth, e.last_block.blocktime, e.miner_id))[0]
        assert select_consensus_winner(entries) == want.miner_id
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert select_consensus_winner(shuffled) == want.miner_id


# randomized equivalence against a brute-force deepest-chain oracle

def random_dag(
    rng: random.Random, n: int, miners: int, unique_deepest: bool, recent: int = 0
) -> list[Block]:
    """Random block tree rooted at genesis, blocktimes increasing with index.

    recent > 0 draws each parent from the last `recent` blocks only, which
    grows deep chains with short forks instead of a bushy tree.
    """
    blocks = [GENESIS]
    t = 0.0
    for i in range(1, n + 1):
        parent = rng.choice(blocks[-recent:] if recent else blocks)
        t += rng.uniform(0.1, 2.0)
        blocks.append(mk(f"n{i}", parent, miner=rng.randrange(1, miners + 1), t=t))
    if unique_deepest:
        deepest = max(b.depth for b in blocks)
        tied = [b for b in blocks if b.depth == deepest]
        if len(tied) > 1:
            t += 1.0
            blocks.append(mk("cap", tied[0], miner=1, t=t))
    return blocks


def brute_force_deepest(store: dict[str, Block]) -> list[Block]:
    """Deepest chain in the store; ties broken by earliest tip blocktime."""
    tip = min(store.values(), key=lambda b: (-b.depth, b.blocktime))
    chain = [tip]
    while chain[-1].parent_id is not None:
        chain.append(store[chain[-1].parent_id])
    return chain[::-1]


def deliver_and_check(blocks: list[Block], order: list[Block]) -> None:
    state = LocalChainState(GENESIS)
    last_depth = 0
    for blk in order:
        apply_received_block(state, blk)
        assert state.tip.depth >= last_depth  # monotone tip
        last_depth = state.tip.depth
        verify_state_invariants(state)
    remaining = finalize_state(state)
    assert remaining == 0  # complete store fills every placeholder
    want = brute_force_deepest(state.block_store)
    assert state.main_chain == want
    validate_chain(state.main_chain, allow_empty=False)
    # every delivered block is stored, and the main chain is made of stored blocks
    assert set(state.block_store) == {b.id for b in blocks}
    assert all(state.block_store[b.id] is b for b in state.main_chain)


def test_random_delivery_matches_oracle_unique_deepest():
    rng = random.Random(20260819)
    for _ in range(200):
        blocks = random_dag(rng, rng.randint(1, 50), miners=5, unique_deepest=True)
        order = blocks[1:]
        rng.shuffle(order)
        deliver_and_check(blocks, order)


def test_blocktime_ordered_delivery_matches_oracle_with_ties():
    rng = random.Random(777)
    for _ in range(200):
        blocks = random_dag(rng, rng.randint(1, 50), miners=5, unique_deepest=False)
        order = sorted(blocks[1:], key=lambda b: b.blocktime)
        deliver_and_check(blocks, order)


def test_reconstruct_then_fill_round_trip_identity():
    rng = random.Random(4321)
    for _ in range(100):
        chain = build_line(rng.randint(1, 40))
        store = {b.id: b for b in chain}
        rebuilt = reconstruct_chain(store, chain[-1])
        filled, remaining = fill_empty_blocks(rebuilt, store)
        assert filled == chain
        assert remaining == 0


# differential test against the switch and fill path the chain core had
# before a state was a store and a tip: a main chain held as a list, rebuilt
# whole with reconstruct_chain on a switch, refilled whole with
# fill_empty_blocks when a missing block arrives


class OracleState:
    """The reference state: the main chain as a list, and the store."""

    def __init__(self, chain: list[Block]):
        self.main_chain = list(chain)
        self.block_store = {b.id: b for b in chain}

    @property
    def tip(self) -> Block:
        return self.main_chain[-1]


def oracle_fill(state: OracleState) -> int:
    state.main_chain, remaining = fill_empty_blocks(state.main_chain, state.block_store)
    return remaining


def oracle_receive(state: OracleState, block: Block) -> ActionKind:
    """The update rule as written before the append was decided first.

    Its checks come in their old order, each with its old error, but for
    a child of the tip at the wrong depth, which takes the parent-depth
    message; a refused block changes nothing.
    """
    if block.is_empty:
        raise StructuralError("received placeholders are not valid blocks")
    if block.depth <= 0:
        raise StructuralError("received block must sit above genesis")
    tip = state.tip
    existing = state.block_store.get(block.id)
    if existing is not None:
        if existing != block:
            raise DuplicateIdConflict(f"conflicting blocks for id {block.id}")
        return ActionKind.UNCLED
    if block.depth <= tip.depth:
        state.block_store[block.id] = block
        slot = state.main_chain[block.depth]
        if slot.is_empty and slot.id == block.id:
            oracle_fill(state)
        return ActionKind.UNCLED
    if block.parent_id == tip.id:
        if block.depth != tip.depth + 1:
            raise StructuralError(
                f"parent {tip.id} at depth {tip.depth}, expected {block.depth - 1}"
            )
        state.block_store[block.id] = block
        state.main_chain.append(block)
        return ActionKind.APPENDED_RECEIVED
    state.block_store[block.id] = block
    state.main_chain = reconstruct_chain(state.block_store, block)
    return ActionKind.SWITCHED_CHAIN


def rule_breaker(state: LocalChainState, k: int) -> Block:
    """A block of kind k % 5 that the rule refuses in this state.

    The kinds: a placeholder naming the tip as parent one deeper, a
    depth-0 block, a stored id with other content, a stored id naming the
    tip as parent one deeper, a child of the tip two deeper. The stored
    blocks take turns lending their ids.
    """
    tip = state.tip
    stored = list(state.block_store.values())
    lender = stored[k % len(stored)]
    kind = k % 5
    if kind == 0:  # an append in every field but is_empty
        return Block(f"hole{k}", tip.id, tip.depth + 1, UNKNOWN_MINER, 0.0, True)
    if kind == 1:
        return Block(id=f"root{k}", parent_id=None, depth=0, miner_id=9, blocktime=0.0)
    if kind == 2:
        if lender.depth == 0:  # genesis lends no content to change
            lender = tip
        return Block(
            id=lender.id,
            parent_id=lender.parent_id,
            depth=lender.depth,
            miner_id=lender.miner_id + 100,
            blocktime=lender.blocktime,
        )
    if kind == 3:
        return Block(
            id=lender.id,
            parent_id=tip.id,
            depth=tip.depth + 1,
            miner_id=lender.miner_id,
            blocktime=tip.blocktime + 1.0,
        )
    return Block(
        id=f"deep{k}", parent_id=tip.id, depth=tip.depth + 2, miner_id=9,
        blocktime=tip.blocktime + 1.0,
    )


class CountingStore(dict):
    """A block store that counts its lookups: one per parent link a walk takes."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def counted_state() -> LocalChainState:
    state = LocalChainState(GENESIS)
    state.block_store = CountingStore(state.block_store)
    return state


def checked_delivery(state: LocalChainState, oracle: OracleState, blk: Block) -> ActionKind | None:
    """Deliver blk to both states, check they agree, and return the action kind.

    A block the oracle refuses must be refused with the same error and
    message, and change nothing; that returns None.
    """
    before = snapshot(state)
    try:
        want = oracle_receive(oracle, blk)
    except (StructuralError, DuplicateIdConflict) as exc:
        with pytest.raises(ValueError) as refused:
            apply_received_block(state, blk)
        assert type(refused.value) is type(exc) and str(refused.value) == str(exc)
        assert snapshot(state) == before
        assert chain_and_store(state) == chain_and_store(oracle)
        verify_state_invariants(state)
        return None
    action = apply_received_block(state, blk)
    assert action.kind is want
    assert chain_and_store(state) == chain_and_store(oracle)
    verify_state_invariants(state)
    return action.kind


def differential_run(rng: random.Random, blocks: list[Block]) -> tuple[int, int]:
    """Deliver blocks out of order, some withheld until after a finalize.

    Half the time the order is a full shuffle, otherwise blocktime order
    under a random delivery delay. Returns how many switches there were,
    and how many of them met a missing ancestor.
    """
    order = blocks[1:]
    if rng.random() < 0.5:
        rng.shuffle(order)
    else:
        order.sort(key=lambda b: b.blocktime + rng.uniform(0.0, 1.5))
    withheld = [b for b in order if rng.random() < 0.2]
    first = [b for b in order if b not in withheld]
    state, oracle = counted_state(), OracleState([GENESIS])
    switches = gaps = refused = 0
    for batch in (first, withheld):
        for blk in batch:
            # a block the rule refuses before each one it takes, every kind in turn
            assert checked_delivery(state, oracle, rule_breaker(state, refused)) is None
            refused += 1
            old = state.main_chain
            if checked_delivery(state, oracle, blk) is ActionKind.SWITCHED_CHAIN:
                # the branch sits right on a placeholder: it met a missing ancestor
                new = state.main_chain
                h = sum(b.is_empty for b in new)
                switches += 1
                gaps += h > 0 and (h + 1 >= len(old) or old[h + 1] is not new[h + 1])
        assert finalize_state(state) == oracle_fill(oracle)
        assert chain_and_store(state) == chain_and_store(oracle)
    assert state.main_chain == brute_force_deepest(state.block_store)
    assert not state.waiting
    return switches, gaps


def test_fork_point_splice_matches_full_rebuild_oracle():
    rng = random.Random(20261018)
    switches = gaps = 0
    for trial in range(300):
        recent = (0, 2, 3, 6)[trial % 4]
        blocks = random_dag(rng, rng.randint(1, 80), miners=4, unique_deepest=True, recent=recent)
        s, g = differential_run(rng, blocks)
        switches += s
        gaps += g
    assert gaps > 500 and switches - gaps > 200  # both the gap and the gapless path


@pytest.mark.parametrize("second_on_first", [True, False], ids=["stacked", "side-by-side"])
@pytest.mark.parametrize("first_fill_first", [True, False], ids=["in-order", "reversed"])
def test_chained_gaps_close_at_the_chain_the_first_gap_replaced(second_on_first, first_fill_first):
    ours = build_line(4, prefix="a")
    b = [ours[1]]  # b2..b6 fork off a1; b5 is the first missing block
    for d in range(2, 7):
        b.append(mk(f"b{d}", b[-1], miner=2))
    c = [b[-1]] if second_on_first else [ours[2]]  # c7 (or c3..c7) and c8; c7 goes missing
    for d in range(c[0].depth + 1, 9):
        c.append(mk(f"c{d}", c[-1], miner=3))
    first_gap, second_gap = b[4], c[-2]
    state, oracle = counted_state(), OracleState(ours)
    for blk in ours[1:]:
        apply_created_block(state, blk)
    for blk in b[1:4]:
        checked_delivery(state, oracle, blk)
    assert checked_delivery(state, oracle, b[5]) is ActionKind.SWITCHED_CHAIN  # gap at b5
    for blk in c[1:-2]:  # no deeper than b6: uncles
        checked_delivery(state, oracle, blk)
    assert checked_delivery(state, oracle, c[-1]) is ActionKind.SWITCHED_CHAIN  # gap at c7
    assert state.main_chain[second_gap.depth] == make_placeholder(second_gap.id, second_gap.depth)
    fills = [first_gap, second_gap] if first_fill_first else [second_gap, first_gap]
    for blk in fills:
        checked_delivery(state, oracle, blk)
    assert state.main_chain == brute_force_deepest(state.block_store)
    assert finalize_state(state) == 0 and not state.waiting


def fork_costs(n: int, k: int = 10) -> list[tuple[ActionKind, int]]:
    """Kind and store lookups of a switch, a gap-opening switch and its fill.

    The state is an n-block line. The switch goes to a k-block branch that
    forks below its tip; the gap-opening switch then skips a block above
    that branch, and the fill brings it.
    """
    line = build_line(n)
    state = counted_state()
    for blk in line[1:]:
        apply_created_block(state, blk)
    branch = [line[n - k + 1]]  # the fork point: the branch sits one deeper than the tip
    for _ in range(k):
        branch.append(mk(f"f{branch[-1].depth + 1}", branch[-1], miner=2))
    branch = branch[1:]
    for blk in branch[:-1]:  # no deeper than the tip: uncles
        apply_received_block(state, blk)
    missing = mk("m", branch[-1], miner=2)
    top = mk("x", missing, miner=2)
    costs = []
    for blk in (branch[-1], top, missing):
        lookups = state.block_store.lookups
        kind = apply_received_block(state, blk).kind
        costs.append((kind, state.block_store.lookups - lookups))
        if blk is top:
            assert state.main_chain[missing.depth] == make_placeholder("m", missing.depth)
    chain = state.main_chain
    assert all(a is b for a, b in zip(chain, line[: n - k + 2]))  # the shared prefix
    assert chain[n - k + 2 :] == branch + [missing, top]
    assert set(state.block_store) == {b.id for b in line + branch + [missing, top]}
    verify_state_invariants(state)
    return costs


def test_switch_and_gap_fill_cost_the_fork_not_the_chain_depth():
    # the id check, then the parent link: no walk, so the chain depth costs nothing
    want = [(ActionKind.SWITCHED_CHAIN, 2), (ActionKind.SWITCHED_CHAIN, 2), (ActionKind.UNCLED, 2)]
    assert fork_costs(20) == fork_costs(20_000) == want
