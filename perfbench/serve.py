"""Benchmark-owned launcher of the verification server.

Imports ``repro.service``, optionally installs the span wrappers of
:mod:`tracing` (pool workers are forked from this process and inherit
them; ``SIGUSR1``/``SIGUSR2`` switch them on and off), then serves until a
``shutdown`` request.  Spans of the server process are flushed when
serving ends; workers flush after every job.

    python3 perfbench/serve.py --socket S --store DIR [--trace-dir DIR]

The pool keeps one worker, which is the server's default on a 2-core host;
pinning it keeps runs comparable across hosts with more cores.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC  # noqa: E402

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)

    from repro.service import VerificationService

    tracer = None
    if args.trace_dir:
        import tracing

        tracer = tracing.Tracer()
        tracer.flush_dir = args.trace_dir
        tracing.install_server(tracer)
        # SIGUSR1 / SIGUSR2 switch the wrappers on and off, so one server
        # can serve untraced and traced windows.  Tracing starts on.
        signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
        signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    service = VerificationService(args.socket, store_dir=args.store, workers=1)
    try:
        service.run()
    finally:
        if tracer is not None:
            tracer.flush(args.trace_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
