"""Run one chainsim admin or miner process with the trace points installed.

Takes exactly the arguments of ``python -m chainsim``. When the process is
done it writes its spans, call counts and CPU time to
``$PERFBENCH_TRACE_DIR/<role>-<pid>.json``. worker.py starts the traced
network runs' processes through this file.
"""

from __future__ import annotations

import os
import resource
import sys

from tracing import Tracer, installed


def main(argv: list[str]) -> int:
    from chainsim.cli import main as chainsim_main

    tracer = Tracer()
    try:
        with installed(tracer):
            return chainsim_main(argv)
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        path = os.path.join(os.environ["PERFBENCH_TRACE_DIR"], f"{argv[0]}-{os.getpid()}.json")
        tracer.dump(path, role=argv[0], cpu_s=usage.ru_utime + usage.ru_stime)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
