"""Block and transaction primitives shared by every simulator component."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

ADMIN_ID = 0          # creator id stamped on the genesis block
UNKNOWN_MINER = -1    # miner id carried by placeholder blocks
UNKNOWN_ID = ""       # id of a placeholder whose real block id is not known yet


class StructuralError(ValueError):
    """A block or chain violates a structural invariant."""


def derive_block_id(miner_id: int, depth: int, blocktime: float, counter: int) -> str:
    """Deterministic 16-byte block id as lowercase hex.

    Ids only identify blocks; there is no proof-of-work puzzle behind them.
    The per-miner counter keeps ids unique even if two draws land on the
    same (depth, blocktime) pair.
    """
    material = f"{miner_id}|{depth}|{blocktime!r}|{counter}".encode()
    return hashlib.blake2b(material, digest_size=16).hexdigest()


@dataclass(frozen=True)
class Transaction:
    id: str
    size_bytes: int
    fee: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("transaction size must be positive")
        if self.fee < 0:
            raise ValueError("transaction fee must be non-negative")


@dataclass(frozen=True, slots=True)
class Block:
    """One chain element.

    ``is_empty`` marks a temporary placeholder standing in for a block that
    is not in the local store yet; placeholders carry no transactions and an
    unknown creator, and may even have an unknown id when they sit below a
    known gap in the ancestry.
    """

    id: str
    parent_id: str | None
    depth: int
    miner_id: int
    blocktime: float
    tx_ids: tuple[str, ...] = ()
    is_empty: bool = False

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise StructuralError(f"negative depth {self.depth}")
        if self.is_empty:
            if self.depth == 0:
                raise StructuralError("genesis can never be a placeholder")
            if self.tx_ids:
                raise StructuralError("placeholder blocks carry no transactions")
            if self.miner_id != UNKNOWN_MINER:
                raise StructuralError("placeholder blocks have an unknown creator")
            return
        if not self.id:
            raise StructuralError("real blocks need an id")
        if (self.depth == 0) != (self.parent_id is None):
            raise StructuralError("parent link must be absent exactly for genesis")
        if self.depth > 0 and self.blocktime <= 0:
            raise StructuralError("non-genesis blocktime must be positive")


def make_placeholder(block_id: str, depth: int) -> Block:
    """Placeholder for a block missing from the local store."""
    return Block(
        id=block_id,
        parent_id=UNKNOWN_ID,
        depth=depth,
        miner_id=UNKNOWN_MINER,
        blocktime=0.0,
        tx_ids=(),
        is_empty=True,
    )
