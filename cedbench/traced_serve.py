"""``repro-ced serve`` with layer spans recorded in the daemon and its pool.

Usage::

    python cedbench/traced_serve.py SPAN_DIR [serve options...]

The wrappers are installed before the daemon forks its pool, so pool
workers inherit them.  Each process writes ``SPAN_DIR/spans-<pid>.json``
when it exits: pool workers when the daemon shuts its pool down, the
daemon itself after its SIGTERM drain.  Pool workers must be forked
(the default start method on Linux up to Python 3.13).
"""

from __future__ import annotations

import atexit
import multiprocessing.util
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SpanRecorder, install  # noqa: E402


def main() -> int:
    span_dir = Path(sys.argv[1])
    recorder = SpanRecorder()
    install(recorder)

    def dump() -> None:
        recorder.dump(span_dir / f"spans-{os.getpid()}.json")

    def in_worker(recorder: SpanRecorder) -> None:
        recorder.reset()
        multiprocessing.util.Finalize(None, dump, exitpriority=100)

    multiprocessing.util.register_after_fork(recorder, in_worker)
    atexit.register(dump)

    from repro.cli import main as cli_main

    return cli_main(["serve", *sys.argv[2:]])


if __name__ == "__main__":
    sys.exit(main())
