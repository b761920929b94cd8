"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_JSON serve [serve args]``

The daemon is the real CLI entry point, unchanged; this launcher only
installs :mod:`layers` first.  Spans opened while a request is handled
are tagged with that request's trace id (the server installs it as the
ambient trace context), so the load generator can join them to its own
requests.  The spans are written to ``SPANS_JSON`` once the daemon has
drained and returned.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    import layers
    from repro.cli import main as cli_main
    from repro.congest.engine import PhaseProfiler
    from repro.obs.tracing import current_trace

    def request_trace_id():
        context = current_trace()
        return context.trace_id if context is not None else None

    out = Path(sys.argv[1])
    tracer = layers.Tracer(tag_fn=request_trace_id)
    undo = layers.install(tracer, PhaseProfiler())
    try:
        return cli_main(sys.argv[2:])
    finally:
        layers.uninstall(undo)
        out.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
