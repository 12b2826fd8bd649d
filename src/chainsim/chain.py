"""Local chain state and the block update rules.

Everything here is pure and deterministic: no clocks, no sockets, no
threads. One logical activity owns a LocalChainState and is its only
mutator; the surrounding node decides when blocks are due and who to
tell about them.

Both update rules run once per block per miner, so they read each piece
of state once. A received block is first tested for the common case, a
new real block built on the tip one deeper, and appended at once; only
other blocks pay for the full checks, which keep their order and their
errors.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

from .blocks import Block, StructuralError, UNKNOWN_ID, make_placeholder


class DuplicateIdConflict(ValueError):
    """Two different blocks claim the same id."""


class NoParticipants(ValueError):
    """Consensus asked to pick a winner from no entries."""


class ActionKind(enum.Enum):
    APPENDED_RECEIVED = "appended_received"
    UNCLED = "uncled"
    SWITCHED_CHAIN = "switched_chain"


@dataclass(frozen=True)
class UpdateAction:
    """Outcome of feeding one received block through the update rules."""

    kind: ActionKind


# The one UpdateAction of each kind, returned by every received update. An
# action is frozen and carries only its kind, so sharing it changes no
# result and a delivery allocates none. Plain names rather than a dict keyed by
# ActionKind: an Enum hashes in Python, which costs about what building a
# new action does, while a module name reads in one lookup.
APPENDED_RECEIVED = UpdateAction(ActionKind.APPENDED_RECEIVED)
UNCLED = UpdateAction(ActionKind.UNCLED)
SWITCHED_CHAIN = UpdateAction(ActionKind.SWITCHED_CHAIN)


@dataclass(frozen=True)
class ConsensusEntry:
    """A miner's end-of-run report: the tip of its longest local chain."""

    miner_id: int
    last_block: Block

    def __post_init__(self) -> None:
        if self.last_block.is_empty:
            raise StructuralError("consensus entries must carry a real block")


class LocalChainState:
    """A miner's view of the world.

    main_chain goes genesis to tip with depth equal to list index; any
    placeholders sit at depths 1..h, below every real block but genesis.
    A switch, and so a fill of the topmost placeholder, splices the list
    in place at the fork point: it cuts the list above the fork and puts
    the branch on top. Only a switch that opens a gap builds a new list.
    block_store remembers every real block ever created or received, so
    a chain switch can be rebuilt locally instead of shipped over the
    wire; the uncles are the stored blocks that are not on the main
    chain.

    below_gap is the last main chain without placeholders, kept while
    the current one has any: the list a switch that opened a gap
    replaced, held by reference and never mutated while held. A walk
    that would otherwise pass the placeholders down to genesis splices
    onto it at its fork point instead, and it becomes the main chain, so
    closing a gap costs the branch above the old chain, not the chain.
    It is None whenever main_chain has no placeholders, and it is never
    main_chain itself, so a state holds at most one stale list.
    """

    def __init__(self, genesis: Block):
        if genesis.depth != 0 or genesis.is_empty:
            raise StructuralError("state must start from a real genesis block")
        self.main_chain: list[Block] = [genesis]
        self.block_store: dict[str, Block] = {genesis.id: genesis}
        self.below_gap: list[Block] | None = None

    @property
    def tip(self) -> Block:
        return self.main_chain[-1]

    @property
    def genesis(self) -> Block:
        return self.main_chain[0]


def apply_created_block(state: LocalChainState, block: Block) -> None:
    """Append one of our own blocks, built on the tip when it fell due.

    Own blocks are built on the current tip, so one that does not extend
    it breaks the rules and raises before anything changes.
    """
    if block.is_empty:
        raise StructuralError("created blocks are never placeholders")
    chain = state.main_chain
    tip = chain[-1]
    if block.parent_id != tip.id or block.depth != tip.depth + 1:
        raise StructuralError("created block does not extend the current tip")
    store = state.block_store
    existing = store.get(block.id)
    if existing is None:
        store[block.id] = block
    elif existing != block:
        raise DuplicateIdConflict(f"conflicting blocks for id {block.id}")
    chain.append(block)


def apply_received_block(state: LocalChainState, block: Block) -> UpdateAction:
    """Handle one peer block, in arrival order.

    Not deeper than the tip: uncle. Built on the tip: append. Deeper on
    another branch: switch, splicing the branch onto the main chain at
    the fork point, with placeholders for whatever has not arrived yet.
    The block a placeholder stands for fills it on arrival, by the same
    walk. A block that breaks the chain rules raises before anything
    changes.
    """
    # runs once per (block, receiver) pair, so each attribute is read once.
    # The common case comes first: a new real block built on the tip, one
    # deeper, is appended at once. Any other block takes the checks below,
    # in their order, so it raises or lands exactly as it always did.
    chain = state.main_chain
    tip = chain[-1]
    store = state.block_store
    block_id = block.id
    depth = block.depth
    if (
        block.parent_id == tip.id
        and depth == tip.depth + 1
        and block_id not in store
        and not block.is_empty
    ):
        store[block_id] = block
        chain.append(block)
        return APPENDED_RECEIVED
    if block.is_empty:
        raise StructuralError("received placeholders are not valid blocks")
    if depth <= 0:
        raise StructuralError("received block must sit above genesis")
    existing = store.get(block_id)
    if existing is not None:
        if existing != block:
            raise DuplicateIdConflict(f"conflicting blocks for id {block_id}")
        # retransmission of a known block: harmless no-op
        return UNCLED
    tip_depth = tip.depth
    if depth <= tip_depth:
        slot = chain[depth]
        if slot.is_empty and slot.id == block_id:
            # The block fills the topmost placeholder: walk its ancestry as
            # a switch to it would, then put the chain above it back on top.
            above = chain[depth + 1 :]
            _switch(state, block)
            state.main_chain += above
        store[block_id] = block
        return UNCLED
    if block.parent_id == tip.id:
        # one deeper, it was appended above
        raise StructuralError("child of tip must sit exactly one deeper")
    _switch(state, block)
    return SWITCHED_CHAIN


# _UNKNOWN_RUN[d - 1] is the unknown-id placeholder at depth d, made once
# per process up to the deepest gap seen. Placeholders are frozen and equal
# by value, so sharing them between chains and runs changes no result; it
# saves building one Block per depth on every switch across a gap. Its
# length stays within mining.depth_limit, as step rejects deeper blocks.
# It is process-wide on purpose: a 150 000 s, 7-miner run needs some
# 11 600 of them (about 1 MB), and a list per run or per state would build
# them again on every run, about 9 ms each time on a 2-core x86 host, some
# 7 % of such a run; kept, a run in a warm process builds none.
_UNKNOWN_RUN: list[Block] = []


def _switch(state: LocalChainState, block: Block) -> None:
    """Make block the top of the main chain, spliced on at the fork point.

    Walks parent links back through the store only until a parent is the
    block at its depth on the main chain or, while a gap is open, on
    below_gap (the fork point). That list is cut above the fork in place,
    the branch goes on top, and it is the main chain: the work grows with
    the fork, not the chain. If an ancestor is missing first, a new list
    pads the chain below the gap with placeholders exactly as
    reconstruct_chain pads it, and a replaced main chain without
    placeholders is kept as below_gap. Raises before anything changes if
    the branch breaks the chain rules.
    """
    chain = state.main_chain
    kept = state.below_gap
    branch = [block]
    cur = block
    while True:
        depth = cur.depth - 1
        parent = state.block_store.get(cur.parent_id)
        if parent is None:
            if depth <= 0:
                raise StructuralError("ancestry does not reach the stored genesis")
            while len(_UNKNOWN_RUN) < depth - 1:
                _UNKNOWN_RUN.append(make_placeholder(UNKNOWN_ID, len(_UNKNOWN_RUN) + 1))
            gap = make_placeholder(cur.parent_id, depth)
            if kept is None:  # no gap was open, so chain has no placeholders
                kept = chain
            chain = [state.genesis, *_UNKNOWN_RUN[: depth - 1], gap]
            break
        if parent.depth != depth:
            raise StructuralError(
                f"parent {parent.id} at depth {parent.depth}, expected {depth}"
            )
        if depth < len(chain) and chain[depth].id == parent.id:
            del chain[depth + 1 :]
            break
        if kept is not None and depth < len(kept) and kept[depth].id == parent.id:
            chain = kept
            del chain[depth + 1 :]
            break
        branch.append(parent)
        cur = parent
    branch.reverse()
    state.block_store[block.id] = block
    chain += branch
    state.main_chain = chain
    # placeholders sit at depths 1..h, so chain[1] says whether a gap is open
    state.below_gap = kept if chain[1].is_empty else None


def reconstruct_chain(store: dict[str, Block], tip: Block) -> list[Block]:
    """Trace parent links from tip back to genesis using the local store.

    The first missing ancestor breaks the walk; from there down to depth 1
    the chain is padded with placeholders (only the topmost of which has a
    known id), and the stored genesis closes the bottom.
    """
    if tip.is_empty:
        raise StructuralError("cannot reconstruct from a placeholder tip")
    chain: list[Block] = [tip] * (tip.depth + 1)
    seen = {tip.id}
    cur = tip
    while cur.depth > 0:
        pid = cur.parent_id
        parent = store.get(pid) if pid else None
        if parent is None or parent.is_empty:
            gap_top = cur.depth - 1
            if gap_top == 0:
                raise StructuralError("ancestry does not reach the stored genesis")
            chain[gap_top] = make_placeholder(pid or UNKNOWN_ID, gap_top)
            for d in range(gap_top - 1, 0, -1):
                chain[d] = make_placeholder(UNKNOWN_ID, d)
            roots = [b for b in store.values() if b.depth == 0 and not b.is_empty]
            if len(roots) != 1:
                raise StructuralError(f"store holds {len(roots)} genesis blocks, expected 1")
            chain[0] = roots[0]
            return chain
        if parent.depth != cur.depth - 1:
            raise StructuralError(
                f"parent {parent.id} at depth {parent.depth}, expected {cur.depth - 1}"
            )
        if parent.id in seen:
            raise StructuralError("cycle in parent links")
        seen.add(parent.id)
        chain[parent.depth] = parent
        cur = parent
    return chain


def fill_empty_blocks(chain: list[Block], store: dict[str, Block]) -> tuple[list[Block], int]:
    """Replace placeholders with real blocks now present in the store.

    Walks tip-down so that each recovered block's parent link names the id
    of the slot below it, letting one known id resolve a whole run of
    unknown placeholders. Returns the repaired chain and how many
    placeholders are still unresolved.
    """
    if not chain:
        raise StructuralError("cannot fill an empty chain")
    out = list(chain)
    remaining = 0
    want: str | None = None  # id the block above demands for this slot
    for i in range(len(out) - 1, -1, -1):
        blk = out[i]
        if blk.depth != i:
            raise StructuralError(f"chain slot {i} holds depth {blk.depth}")
        if not blk.is_empty:
            want = blk.parent_id
            continue
        if blk.id != UNKNOWN_ID and want and blk.id != want:
            raise StructuralError(f"slot {i} id {blk.id} disagrees with child link {want}")
        slot_id = blk.id if blk.id != UNKNOWN_ID else (want or UNKNOWN_ID)
        repl = store.get(slot_id) if slot_id != UNKNOWN_ID else None
        if repl is not None and not repl.is_empty:
            if repl.depth != i:
                raise StructuralError(
                    f"replacement for slot {i} has depth {repl.depth}"
                )
            out[i] = repl
            want = repl.parent_id
        else:
            if slot_id != UNKNOWN_ID and blk.id == UNKNOWN_ID:
                out[i] = make_placeholder(slot_id, i)  # remember the id we learned
            remaining += 1
            want = None
    return out, remaining


def finalize_state(state: LocalChainState) -> int:
    """Count the placeholders left on the main chain at the end of a run.

    Nothing is filled here, because a block that fills a placeholder does
    so on arrival. Placeholders only ever sit at depths 1..h, so h is
    found by bisection.
    """
    chain = state.main_chain
    return bisect.bisect_left(chain, True, 1, key=lambda b: not b.is_empty) - 1


def select_consensus_winner(entries: list[ConsensusEntry]) -> int:
    """Pick the miner with the deepest tip.

    Equal depths go to the earliest blocktime; a residual tie goes to the
    lowest miner id so the choice is a total order.
    """
    if not entries:
        raise NoParticipants("no consensus entries")
    best = min(
        entries,
        key=lambda e: (-e.last_block.depth, e.last_block.blocktime, e.miner_id),
    )
    return best.miner_id


def validate_chain(chain: list[Block], allow_empty: bool = True) -> None:
    """Check main-chain shape: genesis root, depth = index, parent links."""
    if not chain:
        raise StructuralError("empty chain")
    head = chain[0]
    if head.depth != 0 or head.is_empty or head.parent_id is not None:
        raise StructuralError("chain must start at a real genesis")
    for i, blk in enumerate(chain):
        if blk.depth != i:
            raise StructuralError(f"slot {i} holds depth {blk.depth}")
        if blk.is_empty and not allow_empty:
            raise StructuralError(f"placeholder at depth {i}")
    for lower, upper in zip(chain, chain[1:]):
        if not lower.is_empty and not upper.is_empty and upper.parent_id != lower.id:
            raise StructuralError(f"broken parent link at depth {upper.depth}")


def verify_state_invariants(state: LocalChainState) -> None:
    """Assert LocalChainState invariants; used by tests and debug runs."""
    if state.below_gap is state.main_chain:
        raise StructuralError("below_gap must be a list apart from the main chain")
    validate_chain(state.main_chain, allow_empty=True)
    holes = [b.depth for b in state.main_chain if b.is_empty]
    if holes != list(range(1, len(holes) + 1)):
        raise StructuralError(f"placeholders sit at depths other than 1..{len(holes)}")
    if holes:
        top = state.main_chain[len(holes)]
        stored = state.block_store.get(top.id)
        if stored is not None and stored.depth == top.depth:
            raise StructuralError(f"stored block {top.id} was not filled in at depth {top.depth}")
    if (state.below_gap is not None) != bool(holes):
        raise StructuralError("below_gap must be kept exactly while placeholders remain")
    if state.below_gap is not None:
        validate_chain(state.below_gap, allow_empty=False)
        for blk in state.below_gap:
            if state.block_store.get(blk.id) != blk:
                raise StructuralError(f"below_gap block {blk.id} missing from store")
    roots = sum(1 for b in state.block_store.values() if b.depth == 0)
    if roots != 1:
        raise StructuralError(f"store holds {roots} depth-0 blocks, expected 1")
    for blk in state.main_chain:
        if not blk.is_empty and state.block_store.get(blk.id) != blk:
            raise StructuralError(f"main-chain block {blk.id} missing from store")
    for bid, blk in state.block_store.items():
        if blk.is_empty or blk.id != bid:
            raise StructuralError("store may only hold real blocks keyed by id")
