"""Span tracing around chainsim's layer boundaries, from outside the package.

Every wrapper is installed at the name its caller looks up: a function
bound by ``from ... import`` in another module is patched in that module,
a method is patched on its class. Spans stay in memory as small lists
``[name, start, end, child_s, extra]`` and are written out only when the
traced process is done. Each thread keeps its own span stack, so spans
recorded by the miners' reader threads never parent spans of the main
thread. A span's self time is its duration minus the time of its direct
child spans.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict

NAME, START, END, CHILD, EXTRA = range(5)

ADMIN_PHASES = {
    "_run_registration": "admin.registration",
    "_bootstrap": "admin.bootstrap",
    "_mining_wait": "admin.mining_wait",
    "_run_consensus": "admin.consensus",
}


class Tracer:
    """In-memory span recorder plus a few plain counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def wrap(self, fn, name: str, before=None, after=None):
        """Wrap fn in a span; ``after(span, args, result, token)`` may
        rename the span or set its extra field from what ``before(args)``
        returned."""
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            token = before(args) if before is not None else None
            span = [name, 0.0, 0.0, 0.0, None]
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[END] = end
                if stack:
                    stack[-1][CHILD] += end - span[START]
                spans.append(span)
            if after is not None:
                after(span, args, result, token)
            return result

        return traced

    def counter(self, fn, name: str):
        """Count calls only: for functions called too often to keep a span each."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def _fork_length(old: list, new: list) -> int:
    """Real blocks a switch put above the slot where the chains still agree.

    Walks down from the new tip and stops at the first slot that holds the
    same block as the old chain, or a placeholder.
    """
    depth = len(new) - 1
    while depth > 0:
        blk = new[depth]
        if blk.is_empty or (depth < len(old) and old[depth].id == blk.id):
            break
        depth -= 1
    return len(new) - 1 - depth


def _received_before(args):
    return args[0].main_chain


def _received_after(span, args, action, old_chain) -> None:
    span[NAME] = f"chain.apply_received_block.{action.kind.value}"
    if action.kind.value == "switched_chain":
        span[EXTRA] = _fork_length(old_chain, args[0].main_chain)


def _set_extra(fn):
    def after(span, args, result, token) -> None:
        span[EXTRA] = fn(args, result, token)

    return after


def _inbox_len(args):
    return len(args[0].inbox)


def patch_points(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every layer boundary the bench traces."""
    import chainsim.admin as admin
    import chainsim.chain as chain
    import chainsim.engine as engine
    import chainsim.harness as harness
    import chainsim.miner as miner
    import chainsim.mining as mining
    import chainsim.netio as netio
    import chainsim.protocol as protocol

    received = tracer.wrap(
        chain.apply_received_block,
        "chain.apply_received_block",
        before=_received_before,
        after=_received_after,
    )
    created = tracer.wrap(chain.apply_created_block, "chain.apply_created_block")
    draw = tracer.wrap(mining.draw_own_block, "mining.draw_own_block")
    encode = tracer.wrap(
        protocol.encode, "protocol.encode", after=_set_extra(lambda a, r, t: len(r))
    )
    from_payload = tracer.wrap(protocol.block_from_payload, "protocol.block_from_payload")

    def count_threads(args) -> None:
        # sampled as mining ends, while every peer thread is still alive
        tracer.counts["miner.threads"] = threading.active_count()

    points = [
        (harness, "run_logical", tracer.wrap(harness.run_logical, "engine.run_logical")),
        (engine, "apply_received_block", received),
        (mining, "apply_received_block", received),
        (engine, "apply_created_block", created),
        (mining, "apply_created_block", created),
        (engine, "draw_own_block", draw),
        (mining, "draw_own_block", draw),
        (
            chain,
            "reconstruct_chain",
            tracer.wrap(
                chain.reconstruct_chain,
                "chain.reconstruct_chain",
                after=_set_extra(lambda a, r, t: len(r)),
            ),
        ),
        (
            chain,
            "fill_empty_blocks",
            tracer.wrap(
                chain.fill_empty_blocks,
                "chain.fill_empty_blocks",
                after=_set_extra(lambda a, r, t: len(a[0])),
            ),
        ),
        (
            chain,
            "make_placeholder",
            tracer.counter(chain.make_placeholder, "blocks.make_placeholder.calls"),
        ),
        (
            miner,
            "step",
            tracer.wrap(
                miner.step, "mining.step", after=_set_extra(lambda a, r, t: int(not r[0]))
            ),
        ),
        (
            netio.BufferedConn,
            "pump",
            tracer.wrap(
                netio.BufferedConn.pump,
                "netio.BufferedConn.pump",
                before=_inbox_len,
                after=_set_extra(lambda a, r, t: int(len(a[0].inbox) == t)),
            ),
        ),
        (
            protocol.FrameReader,
            "feed",
            tracer.wrap(
                protocol.FrameReader.feed,
                "protocol.FrameReader.feed",
                after=_set_extra(lambda a, r, t: len(a[1])),
            ),
        ),
        (netio, "encode", encode),
        (miner, "encode", encode),
        (protocol, "block_from_payload", from_payload),
        (admin, "block_from_payload", from_payload),
        (miner, "block_from_payload", from_payload),
        (
            miner.MinerNode,
            "_consensus",
            tracer.wrap(miner.MinerNode._consensus, "miner.consensus", before=count_threads),
        ),
    ]
    for attr, name in ADMIN_PHASES.items():
        wrapper = tracer.wrap(getattr(admin.AdminServer, attr), name)
        points.append((admin.AdminServer, attr, wrapper))
    return points


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every trace point for the duration of the block, then restore."""
    points = patch_points(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in points]
    for owner, attr, wrapper in points:
        setattr(owner, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
