"""Start ``repro serve`` for the serve workload, optionally traced.

Usage: ``python3 perfbench/daemon.py --trace {0,1} serve [serve options]``.

With ``--trace 0`` this is exactly ``python -m repro serve``.  With
``--trace 1`` the per-layer wrappers of :mod:`tracer` are installed
before the daemon starts, and when it exits (SIGTERM drains it) one JSON
line with the span totals and the shared cache's artifact counters is
printed on stdout.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace" or argv[1] not in ("0", "1"):
        print("usage: daemon.py --trace {0,1} serve [options]", file=sys.stderr)
        return 2
    traced = argv[1] == "1"
    from repro.cli import main as repro_main

    tracer = None
    if traced:
        import repro.service.jobs  # noqa: F401 - load the names to wrap
        import repro.service.server  # noqa: F401
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    code = repro_main(argv[2:])
    if tracer is not None:
        from cachestats import cache_counters

        print(json.dumps({"trace": tracer.snapshot(), "cache": cache_counters()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
