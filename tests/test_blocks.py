"""Tests for the Block record and for block ids."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim.blocks import (
    ADMIN_ID,
    UNKNOWN_ID,
    UNKNOWN_MINER,
    Block,
    StructuralError,
    block_id_prefix,
    derive_block_id,
    make_placeholder,
    prefixed_block_id,
)
from chainsim.mining import MiningContext, draw_own_block
from chainsim.timing import HashpowerProfile


def reference_block_id(miner_id: int, depth: int, blocktime: float, counter: int) -> str:
    """The id rule as one blake2b call over the whole material."""
    material = f"{miner_id}|{depth}|{blocktime!r}|{counter}".encode()
    return hashlib.blake2b(material, digest_size=16).hexdigest()


# ids as the one-call rule gave them, before ids were hashed on from a prefix
PINNED_IDS = [
    ((0, 0, 0.0, 0), "478b8250cacbd33fb3421d797d208b05"),  # the genesis
    ((1, 1, 12.42, 1), "12b0d67d992a7cb18d3b1d0af339e7c5"),
    ((7, 11828, 149987.53125, 2503), "02c6013e8bb5fda8dfa837d030ff079b"),
    ((3, 5, 5e-324, 1), "3d9d3de8911f1d8ef5ab4fa2888c9469"),
    ((50, 2, 1e300, 9), "fae46ab4c3503795782fa2879921e939"),
    ((2, 40, math.nextafter(1.0, 0.0), 3), "cb94c6842a5eeff311d84c15e50da6d1"),
    ((-1, 1, 1.0, 1), "c0f9c6949a6646af32d95372b688edfd"),
]


@pytest.mark.parametrize("args, want", PINNED_IDS)
def test_ids_keep_their_pinned_values(args, want):
    assert derive_block_id(*args) == want
    assert reference_block_id(*args) == want


EDGE_TIMES = (5e-324, 1e-300, 1.0, 12.42, 149_999.99, 1e300, 1.7976931348623157e308)
POSITIVE_TIMES = st.one_of(
    st.sampled_from(EDGE_TIMES),
    st.sampled_from(EDGE_TIMES).map(lambda t: math.nextafter(t, math.inf)),
    st.sampled_from(EDGE_TIMES[1:]).map(lambda t: math.nextafter(t, 0.0)),
    st.floats(min_value=5e-324, allow_infinity=False),
)
MINER_IDS = st.integers(-1, 10**6)
DEPTHS = st.integers(1, 10**7)
COUNTERS = st.integers(1, 10**9)


@settings(max_examples=300, deadline=None)
@given(
    miner_id=MINER_IDS,
    depth=st.integers(0, 10**7),
    blocktime=st.one_of(st.just(0.0), POSITIVE_TIMES),
    counter=st.integers(0, 10**9),
)
def test_ids_from_a_prefix_equal_the_one_call_rule(miner_id, depth, blocktime, counter):
    want = reference_block_id(miner_id, depth, blocktime, counter)
    assert derive_block_id(miner_id, depth, blocktime, counter) == want
    prefix = block_id_prefix(miner_id)
    assert prefixed_block_id(prefix, depth, blocktime, counter) == want
    assert prefixed_block_id(prefix, depth, blocktime, counter) == want  # copied, not used up


@settings(max_examples=200, deadline=None)
@given(miner_id=MINER_IDS, depth=DEPTHS, blocktime=POSITIVE_TIMES, counter=COUNTERS)
def test_own_blocks_carry_the_one_call_rule_id(miner_id, depth, blocktime, counter):
    ctx = MiningContext(
        miner_id=miner_id,
        profile=HashpowerProfile(own=1.0, total=2.0),
        interval=12.42,
        rng=random.Random(0),
        genesis=Block("g", None, 0, 0, 0.0),
        duration=1500.0,
        counter=counter - 1,
    )
    tip = Block("tip", "below", depth - 1, 4, 1.0) if depth > 1 else Block("g", None, 0, 0, 0.0)
    own = draw_own_block(ctx, tip, blocktime)
    assert own.id == reference_block_id(miner_id, depth, blocktime, counter)
    assert ctx.counter == counter
    assert own == Block(own.id, tip.id, depth, miner_id, blocktime)


# every check the frozen dataclass's __post_init__ made, with its message
# (every field, in order, so that the values also serve as positional arguments)
REAL = dict(id="b", parent_id="g", depth=1, miner_id=2, blocktime=1.5, is_empty=False)
HOLE = dict(
    id="h", parent_id=UNKNOWN_ID, depth=3, miner_id=UNKNOWN_MINER, blocktime=0.0, is_empty=True
)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({**REAL, "depth": -1}, "negative depth -1"),
        ({**HOLE, "depth": -2}, "negative depth -2"),
        ({**HOLE, "depth": 0}, "genesis can never be a placeholder"),
        ({**HOLE, "miner_id": ADMIN_ID}, "placeholder blocks have an unknown creator"),
        ({**HOLE, "miner_id": 2}, "placeholder blocks have an unknown creator"),
        ({**REAL, "id": ""}, "real blocks need an id"),
        ({**REAL, "depth": 0, "blocktime": 0.0}, "parent link must be absent exactly for genesis"),
        ({**REAL, "parent_id": None}, "parent link must be absent exactly for genesis"),
        ({**REAL, "blocktime": 0.0}, "non-genesis blocktime must be positive"),
        ({**REAL, "blocktime": -1.0}, "non-genesis blocktime must be positive"),
    ],
)
def test_each_structural_check_raises(fields, message):
    with pytest.raises(StructuralError, match=f"^{message}$"):
        Block(**fields)
    with pytest.raises(StructuralError, match=f"^{message}$"):
        Block(*fields.values())
    with pytest.raises(StructuralError, match=f"^{message}$"):
        dataclasses.replace(Block(**(HOLE if fields["is_empty"] else REAL)), **fields)


def test_valid_blocks_build_by_keyword_and_by_position():
    assert Block(**REAL) == Block("b", "g", 1, 2, 1.5) == Block(*REAL.values())
    assert Block(**HOLE) == make_placeholder("h", 3)
    assert Block("g", None, 0, 0, 0.0).depth == 0
    assert make_placeholder(UNKNOWN_ID, 1).id == UNKNOWN_ID  # a hole below a known gap


def test_blocks_refuse_attribute_assignment():
    block = Block(**REAL)
    for field in dataclasses.fields(Block):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(block, field.name, getattr(make_placeholder("h", 3), field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(block, field.name)
    # a new name is refused too; CPython 3.11's slotted frozen __setattr__
    # raises TypeError for it, from its super() call
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        block.note = "x"
    assert not hasattr(block, "__dict__")
    assert block == Block(**REAL)


def test_blocks_are_equal_and_hash_equal_only_when_every_field_is():
    base = Block(**REAL)
    twin = Block(**REAL)
    assert base == twin and hash(base) == hash(twin) and base is not twin
    others = {"id": "c", "parent_id": "f", "depth": 2, "miner_id": 3, "blocktime": 1.25}
    for name, value in others.items():
        other = dataclasses.replace(base, **{name: value})
        assert other != base, name
    assert make_placeholder("h", 3) != make_placeholder("h", 4)
    assert base != tuple(getattr(base, f.name) for f in dataclasses.fields(Block))
    assert len({base, twin, make_placeholder("h", 3), make_placeholder("h", 3)}) == 2


def test_blocks_keep_their_repr_and_survive_copy_and_pickle():
    block = Block(**REAL)
    assert repr(block) == (
        "Block(id='b', parent_id='g', depth=1, miner_id=2, blocktime=1.5, is_empty=False)"
    )
    for clone in (copy.copy(block), copy.deepcopy(block), pickle.loads(pickle.dumps(block))):
        assert clone == block and type(clone) is Block
