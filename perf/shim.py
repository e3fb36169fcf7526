"""Run the program's CLI with the benchmark's layer wrappers installed.

    python -m perf.shim --trace-out PATH --pass-id N -- sweep CHECKPOINT ...

Installs :class:`perf.tracing.Instrumentation`, calls ``repro.cli.main``
with the argv after ``--``, and on the way out writes the driver-side
spans as Chrome-trace JSON to PATH, with per-layer totals, the wrapper
status, the import time and the CPU time of waited-for children in
``otherData``. Worker processes forked by the CLI inherit the wrappers,
but their spans die with them: only the driver's spans are written.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

from perf import config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.shim")
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    started = time.perf_counter()
    config.use_checkout_source()
    import repro.cli

    import_s = time.perf_counter() - started

    from perf.tracing import Instrumentation, Tracer, chrome_trace, layer_totals
    from perf.worker import write_trace

    tracer = Tracer()
    tracer.pass_id = args.pass_id
    instrumentation = Instrumentation(tracer)
    status = instrumentation.install()
    try:
        return repro.cli.main(command)
    finally:
        instrumentation.remove()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        # a scrape still in flight on a server thread has no end yet
        spans = [span for span in tracer.spans if span.end]
        write_trace(args.trace_out, chrome_trace(spans, os.getpid(), {
            "status": status,
            "import_s": import_s,
            "child_cpu_s": children.ru_utime + children.ru_stime,
            "totals": layer_totals(spans),
        }))


if __name__ == "__main__":
    sys.exit(main())
