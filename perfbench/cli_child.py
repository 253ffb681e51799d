"""Traced stand-in for ``python -m spinpoint.cli``.

Usage: python -X importtime cli_child.py --record PATH -- <cli arguments>

Times ``import spinpoint.cli`` and ``cli.main(argv)`` separately, traces
the spinpoint layers during ``main``, writes the timings and the span
sums to PATH as JSON and exits with the status ``main`` returned. The
CLI's own stdout and stderr pass through unchanged.
"""

import json
import sys
from time import perf_counter

import tracer


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--record" or sys.argv[3] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 64
    record_path, argv = sys.argv[2], sys.argv[4:]
    t0 = perf_counter()
    import spinpoint.cli as cli
    t1 = perf_counter()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        t2 = perf_counter()
        code = cli.main(argv)
        t3 = perf_counter()
    finally:
        recorder.uninstall()
    sys.stdout.flush()
    with open(record_path, "w") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t3 - t2,
                   "totals": tracer.totals(recorder.spans), "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
