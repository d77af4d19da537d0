"""Start ``repro serve`` from this checkout, optionally traced.

Usage::

    python3 perfbench/server.py TRACE_OUT serve --port 0 ...

Everything after ``TRACE_OUT`` is handed to the program's own command
line (``repro.cli.main``), so the server is exactly ``repro serve``.
With ``TRACE_OUT`` other than ``-``, the layer wrappers of
``layers.py`` are installed first, and when the server stops (SIGINT)
its per-layer totals and spans are written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    tracer = None
    if trace_out != "-":
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    if tracer is not None:
        tracer.uninstall()
        with open(trace_out, "w") as handle:
            json.dump({"totals": tracer.totals(),
                       "store_gets": tracer.store_gets,
                       "store_hits": tracer.store_hits,
                       "events": tracer.chrome_events(os.getpid(), 0.0)},
                      handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
