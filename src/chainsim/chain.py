"""Local chain state and the block update rules.

Everything here is pure and deterministic: no clocks, no sockets, no
threads. One logical activity owns a LocalChainState and is its only
mutator; the surrounding node decides when blocks are due and who to
tell about them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .blocks import Block, StructuralError, UNKNOWN_ID, make_placeholder


class DuplicateIdConflict(ValueError):
    """Two different blocks claim the same id."""


class NoParticipants(ValueError):
    """Consensus asked to pick a winner from no entries."""


class ActionKind(enum.Enum):
    APPENDED_OWN = "appended_own"
    APPENDED_RECEIVED = "appended_received"
    UNCLED = "uncled"
    SWITCHED_CHAIN = "switched_chain"
    DROPPED_STALE = "dropped_stale"


@dataclass(frozen=True)
class UpdateAction:
    """Outcome of feeding one block through the update rules."""

    kind: ActionKind
    broadcast: bool
    new_tip_id: str

    def __post_init__(self) -> None:
        if self.broadcast and self.kind is not ActionKind.APPENDED_OWN:
            raise ValueError("only own appended blocks are broadcast")


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

    main_chain goes genesis to tip with depth equal to list index.
    uncles holds valid blocks that lost out on the main chain.
    block_store remembers every real block ever created or received, so a
    chain switch can be rebuilt locally instead of shipped over the wire.
    """

    def __init__(self, genesis: Block):
        if genesis.depth != 0 or genesis.is_empty:
            raise StructuralError("state must start from a real genesis block")
        self.main_chain: list[Block] = [genesis]
        self.uncles: dict[str, Block] = {}
        self.block_store: dict[str, Block] = {genesis.id: genesis}

    @property
    def tip(self) -> Block:
        return self.main_chain[-1]

    @property
    def genesis(self) -> Block:
        return self.main_chain[0]


def _store(state: LocalChainState, block: Block) -> bool:
    """Insert a block into the store; False if it was already known."""
    existing = state.block_store.get(block.id)
    if existing is not None:
        if existing != block:
            raise DuplicateIdConflict(f"conflicting blocks for id {block.id}")
        return False
    state.block_store[block.id] = block
    return True


def apply_created_block(state: LocalChainState, block: Block) -> UpdateAction:
    """Handle one of our own blocks whose blocktime has been reached.

    The block extends the chain only if it is still deeper than the tip;
    a block outrun by the network meanwhile is dropped (it stays in the
    store but is never broadcast and never becomes an uncle).
    """
    if block.is_empty:
        raise StructuralError("created blocks are never placeholders")
    if block.depth <= 0:
        raise StructuralError("created block must sit above genesis")
    _store(state, block)
    tip = state.tip
    if tip.depth < block.depth:
        if block.parent_id != tip.id or block.depth != tip.depth + 1:
            raise StructuralError("created block does not extend the current tip")
        state.main_chain.append(block)
        return UpdateAction(ActionKind.APPENDED_OWN, broadcast=True, new_tip_id=block.id)
    return UpdateAction(ActionKind.DROPPED_STALE, broadcast=False, new_tip_id=tip.id)


def apply_received_block(state: LocalChainState, block: Block) -> UpdateAction:
    """Handle one peer block, in arrival order.

    Not deeper than the tip: uncle. Built on the tip: append. Deeper on
    another branch: switch, rebuilding the chain from the local store
    with placeholders for whatever has not arrived yet.
    """
    if block.is_empty:
        raise StructuralError("received placeholders are not valid blocks")
    tip = state.tip
    if not _store(state, block):
        # retransmission of a known block: harmless no-op
        return UpdateAction(ActionKind.UNCLED, broadcast=False, new_tip_id=tip.id)
    if block.depth <= tip.depth:
        # A block whose main-chain slot is still a placeholder belongs on
        # the chain, not in the uncle set; slot it in right away.
        if _fills_placeholder(state, block):
            _absorb_fill(state)
        else:
            state.uncles[block.id] = block
        return UpdateAction(ActionKind.UNCLED, broadcast=False, new_tip_id=tip.id)
    if block.parent_id == tip.id:
        if block.depth != tip.depth + 1:
            raise StructuralError("child of tip must sit exactly one deeper")
        state.main_chain.append(block)
        return UpdateAction(ActionKind.APPENDED_RECEIVED, broadcast=False, new_tip_id=block.id)
    new_chain = reconstruct_chain(state.block_store, block)
    new_ids = {b.id for b in new_chain if not b.is_empty}
    for old in state.main_chain:
        if old.depth > 0 and not old.is_empty and old.id not in new_ids:
            state.uncles[old.id] = old
    for nid in new_ids:
        state.uncles.pop(nid, None)
    state.main_chain = new_chain
    return UpdateAction(ActionKind.SWITCHED_CHAIN, broadcast=False, new_tip_id=block.id)


def _fills_placeholder(state: LocalChainState, block: Block) -> bool:
    slot = state.main_chain[block.depth] if block.depth < len(state.main_chain) else None
    return slot is not None and slot.is_empty and slot.id == block.id


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
            chain[0] = _find_genesis(store)
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


def _find_genesis(store: dict[str, Block]) -> Block:
    roots = [b for b in store.values() if b.depth == 0 and not b.is_empty]
    if len(roots) != 1:
        raise StructuralError(f"store holds {len(roots)} genesis blocks, expected 1")
    return roots[0]


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


def _absorb_fill(state: LocalChainState) -> int:
    """Run fill over the main chain; blocks it recovers stop being uncles."""
    filled, remaining = fill_empty_blocks(state.main_chain, state.block_store)
    state.main_chain = filled
    for b in filled:
        if not b.is_empty:
            state.uncles.pop(b.id, None)
    return remaining


def finalize_state(state: LocalChainState) -> int:
    """End-of-run repair: fill placeholders and prune uncles now on-chain."""
    return _absorb_fill(state)


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
    validate_chain(state.main_chain, allow_empty=True)
    for blk in state.main_chain:
        if not blk.is_empty and state.block_store.get(blk.id) != blk:
            raise StructuralError(f"main-chain block {blk.id} missing from store")
    main_ids = {b.id for b in state.main_chain if b.id != UNKNOWN_ID}
    for uid, blk in state.uncles.items():
        if uid != blk.id or blk.is_empty:
            raise StructuralError("uncle set corrupted")
        if state.block_store.get(uid) != blk:
            raise StructuralError(f"uncle {uid} missing from store")
        if uid in main_ids:
            raise StructuralError(f"block {uid} on both main chain and uncle set")
    for bid, blk in state.block_store.items():
        if blk.is_empty or blk.id != bid:
            raise StructuralError("store may only hold real blocks keyed by id")
