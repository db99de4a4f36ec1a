"""Run one hoftrace CLI call in this process with the per-layer tracer installed.

Usage: python perfbench/launch.py SNAPSHOT_PATH OP_ID -- hoftrace-arguments...

The wrappers go in before ``hoftrace.cli.main`` is called, so the child
behaves like ``python -m hoftrace`` plus tracing.  The spans and counters
are written to SNAPSHOT_PATH when the call ends, also when it raises.
"""

import sys

from tracer import Tracer, write_snapshot


def run() -> int:
    snapshot_path, op_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launch.py SNAPSHOT_PATH OP_ID -- ARGS...")
    import hoftrace.cli

    tracer = Tracer()
    tracer.op = int(op_id)
    tracer.install()
    try:
        return hoftrace.cli.main(argv)
    finally:
        tracer.uninstall()
        write_snapshot(tracer.snapshot(), snapshot_path)


if __name__ == "__main__":
    sys.exit(run())
