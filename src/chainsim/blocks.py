"""Block primitives shared by every simulator component."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

ADMIN_ID = 0          # creator id stamped on the genesis block
UNKNOWN_MINER = -1    # miner id carried by placeholder blocks
UNKNOWN_ID = ""       # id of a placeholder whose real block id is not known yet


class StructuralError(ValueError):
    """A block or chain violates a structural invariant."""


def block_id_prefix(miner_id: int):
    """blake2b state over the id material one miner's ids all start with.

    prefixed_block_id copies it per block, so a miner hashes its prefix once.
    """
    return hashlib.blake2b(f"{miner_id}|".encode(), digest_size=16)


def prefixed_block_id(prefix, depth: int, blocktime: float, counter: int) -> str:
    """Id of the block the prefix's miner builds at (depth, blocktime, counter)."""
    h = prefix.copy()
    h.update(f"{depth}|{blocktime!r}|{counter}".encode())
    return h.hexdigest()


def derive_block_id(miner_id: int, depth: int, blocktime: float, counter: int) -> str:
    """Deterministic 16-byte block id as lowercase hex.

    The blake2b digest of "miner_id|depth|repr(blocktime)|counter". Ids
    only identify blocks; there is no proof-of-work puzzle behind them.
    The per-miner counter keeps ids unique even if two draws land on the
    same (depth, blocktime) pair.
    """
    return prefixed_block_id(block_id_prefix(miner_id), depth, blocktime, counter)


@dataclass(frozen=True, slots=True, init=False)
class Block:
    """One chain element.

    ``is_empty`` marks a temporary placeholder standing in for a block that
    is not in the local store yet; placeholders carry an unknown creator,
    and may even have an unknown id when they sit below a known gap in the
    ancestry.

    The constructor is written out: it runs every structural check, then
    fills the slots through their descriptors, where the generated frozen
    __init__ goes through object.__setattr__ once per field and then calls
    a __post_init__. Slots rather than a tuple: CPython 3.11 specializes a
    slot read but not a namedtuple field read, and every delivery reads
    several fields.
    """

    id: str
    parent_id: str | None
    depth: int
    miner_id: int
    blocktime: float
    is_empty: bool

    def __init__(
        self,
        id: str,
        parent_id: str | None,
        depth: int,
        miner_id: int,
        blocktime: float,
        is_empty: bool = False,
    ) -> None:
        if depth < 0:
            raise StructuralError(f"negative depth {depth}")
        if is_empty:
            if depth == 0:
                raise StructuralError("genesis can never be a placeholder")
            if miner_id != UNKNOWN_MINER:
                raise StructuralError("placeholder blocks have an unknown creator")
        else:
            if not id:
                raise StructuralError("real blocks need an id")
            if (depth == 0) != (parent_id is None):
                raise StructuralError("parent link must be absent exactly for genesis")
            if depth > 0 and blocktime <= 0:
                raise StructuralError("non-genesis blocktime must be positive")
        _set_id(self, id)
        _set_parent_id(self, parent_id)
        _set_depth(self, depth)
        _set_miner_id(self, miner_id)
        _set_blocktime(self, blocktime)
        _set_is_empty(self, is_empty)


# The setters of Block's slot descriptors: the frozen class's __setattr__
# refuses every assignment, so the constructor fills each slot through these.
(
    _set_id,
    _set_parent_id,
    _set_depth,
    _set_miner_id,
    _set_blocktime,
    _set_is_empty,
) = (vars(Block)[f.name].__set__ for f in fields(Block))


def make_placeholder(block_id: str, depth: int) -> Block:
    """Placeholder for a block missing from the local store."""
    return Block(block_id, UNKNOWN_ID, depth, UNKNOWN_MINER, 0.0, True)
