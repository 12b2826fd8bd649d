"""Random wire-message generator shared by protocol and acceptance tests."""

from __future__ import annotations

import random

from chainsim.blocks import Block, Transaction, make_placeholder
from chainsim.protocol import (
    MinerRecord,
    WireMessage,
    msg_block,
    msg_chain,
    msg_chain_request,
    msg_consensus_result,
    msg_discard,
    msg_genesis,
    msg_last_block,
    msg_miner_info,
    msg_register,
    msg_sim_start,
    msg_tx_pool,
)


def rand_hex(rng: random.Random) -> str:
    return f"{rng.getrandbits(128):032x}"


def rand_block(rng: random.Random, allow_empty: bool = True) -> Block:
    roll = rng.random()
    if roll < 0.1:
        return Block(id=rand_hex(rng), parent_id=None, depth=0, miner_id=0, blocktime=0.0)
    if allow_empty and roll < 0.25:
        return make_placeholder(rand_hex(rng), rng.randint(1, 100))
    return Block(
        id=rand_hex(rng),
        parent_id=rand_hex(rng),
        depth=rng.randint(1, 500),
        miner_id=rng.randint(1, 20),
        blocktime=rng.uniform(0.001, 1500.0),
        tx_ids=tuple(rand_hex(rng) for _ in range(rng.randint(0, 10))),
    )


def rand_tx(rng: random.Random) -> Transaction:
    return Transaction(
        id=rand_hex(rng),
        size_bytes=rng.randint(250, 1000),
        fee=rng.random(),
    )


def rand_record(rng: random.Random) -> MinerRecord:
    return MinerRecord(
        miner_id=rng.randint(1, 20),
        hashpower=rng.uniform(0.01, 30.0),
        ip=f"10.0.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
        port=rng.randint(1024, 65535),
    )


def rand_real_chain(rng: random.Random, max_len: int = 8) -> list[Block]:
    chain = [Block(id=rand_hex(rng), parent_id=None, depth=0, miner_id=0, blocktime=0.0)]
    for d in range(1, rng.randint(1, max_len) + 1):
        chain.append(
            Block(
                id=rand_hex(rng),
                parent_id=chain[-1].id,
                depth=d,
                miner_id=rng.randint(1, 20),
                blocktime=d * rng.uniform(1.0, 20.0),
            )
        )
    return chain


def random_message(rng: random.Random) -> WireMessage:
    builders = [
        lambda: msg_register(rng.randint(1024, 65535), rng.uniform(0.01, 30.0)),
        lambda: msg_miner_info(
            rng.randint(1, 20),
            [rand_record(rng) for _ in range(rng.randint(0, 7))],
            rng.uniform(0.01, 210.0),
        ),
        lambda: msg_sim_start(
            rng.uniform(1.0, 1500.0),
            rng.uniform(0.1, 60.0),
            rng.choice([1.0, 10.0, 100.0]),
            rng.getrandbits(64),
        ),
        lambda: msg_genesis(
            Block(id=rand_hex(rng), parent_id=None, depth=0, miner_id=0, blocktime=0.0)
        ),
        lambda: msg_tx_pool([rand_tx(rng) for _ in range(rng.randint(0, 20))]),
        lambda: msg_block(rand_block(rng, allow_empty=False)),
        lambda: msg_last_block(rng.randint(1, 20), rand_block(rng, allow_empty=False)),
        msg_chain_request,
        lambda: msg_chain(rng.randint(1, 20), [rand_block(rng) for _ in range(rng.randint(1, 10))]),
        lambda: msg_consensus_result(rng.randint(1, 20), rand_real_chain(rng)),
        lambda: msg_discard(rng.choice(["placeholders remain", "timeout", "invalid chain"])),
    ]
    return rng.choice(builders)()
