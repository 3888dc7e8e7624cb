"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the engine is imported from the
checkout's ``src`` directory.  Output: one JSON line with the run record
(raw and calibrated values, sample counts, exact counters), then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, from a run with spans around every layer's public
entry point.  Temporary databases live under ``.perfbench/`` in the
checkout and are removed at exit; span files stay in ``.perfbench/traces``.
"""

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.exit("perfbench: no engine source at {}; run inside a full checkout".format(source))
    sys.path[:0] = [source, ROOT]
    # a terminated run still removes its temporary databases
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))

    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of {}".format(", ".join(WORKLOADS)))
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         os.path.join(ROOT, ".perfbench"))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
