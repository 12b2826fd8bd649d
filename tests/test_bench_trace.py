"""The benchmark's tracer still finds every name it patches.

perfbench/tracing.py patches chainsim's layer boundaries by name, and
raises KeyError for a name a refactor removed. perfbench's own tests
sit outside this suite, so this runs its tracer over one logical run.
"""

from __future__ import annotations

import json
import os

from chainsim import harness
from chainsim.simulation import SimulationConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TABLE_POWERS = [17.0, 15.8, 12.9, 11.0, 6.6, 6.3, 30.4]


def test_traced_logical_run_records_spans_and_keeps_its_report_bytes(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    cfg = SimulationConfig(num_miners=7, duration=1500.0, interval=12.42, seed=1)
    untraced = harness.run_logical(cfg, TABLE_POWERS).report
    with tracing.installed(tracing.Tracer()) as tracer:
        traced = harness.run_logical(cfg, TABLE_POWERS).report
    assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert "engine.run_logical" in names
    assert "mining.draw_own_block" in names
    assert "chain.apply_created_block" in names
    assert {"appended_received", "uncled"} <= {
        name.rsplit(".", 1)[1] for name in names if name.startswith("chain.apply_received_block.")
    }
    # every delivery passes through the patched name, whichever path it takes
    delivered = sum(
        row["tally"]["appended_received"] + row["tally"]["uncled"] + row["tally"]["switches"]
        for row in traced["miner_stats"]
    )
    received = [
        span for span in tracer.spans if span[tracing.NAME].startswith("chain.apply_received_block.")
    ]
    assert len(received) == delivered
    # restored on exit: the next run goes untraced
    count = len(tracer.spans)
    harness.run_logical(cfg, TABLE_POWERS)
    assert len(tracer.spans) == count
