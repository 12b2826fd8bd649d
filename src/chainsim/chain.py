"""Local chain state and the block update rules.

Everything here is pure and deterministic: no clocks, no sockets, no
threads. One logical activity owns a LocalChainState and is its only
mutator; the surrounding node decides when blocks are due and who to
tell about them.

A state is a store and a tip. The fork choice needs only the tip: a
received block is appended when it names the tip one deeper, uncled when
it is no deeper, and switched to otherwise. The main chain is built from
the store, down from the tip, only when it is asked for: for CHAIN, for
the winner's final chain, and by tests.

Both update rules run once per block per miner, so they read each piece
of state once. A received block is first tested for the common case, a
new real block built on the tip one deeper, and appended at once; every
other new block is checked against its stored parent and the stored
children waiting on it before anything changes.
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
    """A miner's view of the world: a store of blocks and its tip.

    block_store remembers every real block ever created or received, so
    a chain switch is rebuilt locally instead of shipped over the wire.
    tip is the deepest stored block to arrive first: the top of the main
    chain, which is its ancestry, built from the store only when it is
    read. The uncles are the stored blocks off it.

    waiting maps each parent id that is not stored to the stored blocks
    that name it, in their order of arrival. A late parent is checked
    against its children through it, and a state whose waiting is empty
    has no gap in any ancestry.
    """

    def __init__(self, genesis: Block):
        if genesis.depth != 0 or genesis.is_empty:
            raise StructuralError("state must start from a real genesis block")
        self.block_store: dict[str, Block] = {genesis.id: genesis}
        self.tip = genesis
        self.waiting: dict[str, list[Block]] = {}

    @property
    def main_chain(self) -> list[Block]:
        """Genesis to tip, depth equal to index, built anew on every read.

        A missing ancestor and every depth below it down to 1 are
        placeholders, as reconstruct_chain pads them.
        """
        return reconstruct_chain(self.block_store, self.tip)


def apply_created_block(state: LocalChainState, block: Block) -> None:
    """Make one of our own blocks, built on the tip when it fell due, the new tip.

    Own blocks are built on the current tip, so one that does not extend
    it breaks the rules and raises before anything changes.
    """
    if block.is_empty:
        raise StructuralError("created blocks are never placeholders")
    tip = state.tip
    if block.parent_id != tip.id or block.depth != tip.depth + 1:
        raise StructuralError("created block does not extend the current tip")
    if block.id in state.block_store:
        # no stored block is deeper than the tip, so the stored one differs
        raise DuplicateIdConflict(f"conflicting blocks for id {block.id}")
    _store(state, block)
    state.tip = block


def apply_received_block(state: LocalChainState, block: Block) -> UpdateAction:
    """Handle one peer block, in arrival order.

    Built on the tip one deeper: append. No deeper than the tip: uncle.
    Deeper on another branch: switch, and the block is the tip. A block
    that breaks the chain rules raises before anything changes; a parent
    and its child at depths that do not follow are refused whichever
    arrives first.
    """
    # runs once per (block, receiver) pair, so each attribute is read once.
    # The common case comes first: a new real block built on the tip, one
    # deeper, that no stored block waits on, is appended at once.
    tip = state.tip
    store = state.block_store
    block_id = block.id
    depth = block.depth
    if (
        block.parent_id == tip.id
        and depth == tip.depth + 1
        and block_id not in store
        and block_id not in state.waiting
        and not block.is_empty
    ):
        store[block_id] = block
        state.tip = block
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
    _store(state, block)
    if depth <= tip.depth:
        return UNCLED
    state.tip = block
    return SWITCHED_CHAIN


def _store(state: LocalChainState, block: Block) -> None:
    """Store a new real block above genesis and keep waiting up to date.

    The block must sit one deeper than its parent, if that is stored, and
    one shallower than each stored block waiting on it. A depth-1 block
    must name the stored genesis, and no block may name itself. Raises
    before anything changes otherwise.
    """
    store = state.block_store
    waiting = state.waiting
    block_id = block.id
    parent_id = block.parent_id
    depth = block.depth
    parent = store.get(parent_id)
    if parent is None:
        if depth == 1:
            raise StructuralError("ancestry does not reach the stored genesis")
        if parent_id == block_id:
            raise StructuralError(f"block {block_id} names itself as its parent")
    elif parent.depth != depth - 1:
        raise StructuralError(f"parent {parent_id} at depth {parent.depth}, expected {depth - 1}")
    children = waiting.get(block_id)
    if children is not None:
        for child in children:
            if child.depth != depth + 1:
                raise StructuralError(
                    f"parent {block_id} at depth {depth}, expected {child.depth - 1}"
                )
        del waiting[block_id]
    if parent is None:
        waiting.setdefault(parent_id, []).append(block)
    store[block_id] = block


def reconstruct_chain(store: dict[str, Block], tip: Block) -> list[Block]:
    """Trace parent links from tip back to genesis using the local store.

    The first missing ancestor breaks the walk; from there down to depth 1
    the chain is padded with placeholders (only the topmost of which has a
    known id), and the stored genesis closes the bottom. Each parent must
    sit one shallower than its child, so the walk ends within tip.depth
    steps.
    """
    if tip.is_empty:
        raise StructuralError("cannot reconstruct from a placeholder tip")
    chain: list[Block] = [tip] * (tip.depth + 1)
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
    """Count the placeholders on the main chain at the end of a run.

    Nothing is filled here: a stored block is on its chain from the moment
    it arrives. With no block waiting on a parent no ancestry has a gap,
    so the count is 0 without a walk. Otherwise the walk goes down from
    the tip to the first missing parent, and every depth from there to 1
    is a placeholder.
    """
    if not state.waiting:
        return 0
    store = state.block_store
    cur = state.tip
    while cur.depth > 0:
        parent = store.get(cur.parent_id)
        if parent is None:
            return cur.depth - 1
        cur = parent
    return 0


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
    """Assert LocalChainState invariants; used by tests and debug runs.

    The store holds real blocks keyed by id, one of them at depth 0, each
    other one a level below a stored parent or listed in waiting under its
    missing one; waiting lists nothing else. The tip is stored and no
    stored block is deeper. The main chain built on the tip is a valid
    chain whose placeholders sit at depths 1..h, and h is what
    finalize_state counts.
    """
    store = state.block_store
    tip = state.tip
    roots = 0
    waiting: dict[str, list[Block]] = {}
    for bid, blk in store.items():
        if blk.is_empty or blk.id != bid:
            raise StructuralError("store may only hold real blocks keyed by id")
        if blk.depth > tip.depth:
            raise StructuralError(f"stored block {bid} is deeper than the tip")
        if blk.depth == 0:
            roots += 1
            continue
        parent = store.get(blk.parent_id)
        if parent is None:
            waiting.setdefault(blk.parent_id, []).append(blk)
        elif parent.depth != blk.depth - 1:
            raise StructuralError(
                f"stored block {bid} at depth {blk.depth} names parent {parent.id} "
                f"at depth {parent.depth}"
            )
    if roots != 1:
        raise StructuralError(f"store holds {roots} depth-0 blocks, expected 1")
    if store.get(tip.id) != tip:
        raise StructuralError(f"tip {tip.id} is not stored")
    if waiting != state.waiting:
        raise StructuralError("waiting must list exactly the stored blocks missing their parent")
    chain = state.main_chain
    validate_chain(chain, allow_empty=True)
    holes = [b.depth for b in chain if b.is_empty]
    if holes != list(range(1, len(holes) + 1)):
        raise StructuralError(f"placeholders sit at depths other than 1..{len(holes)}")
    if finalize_state(state) != len(holes):
        raise StructuralError(f"finalize_state does not count the {len(holes)} placeholders")
