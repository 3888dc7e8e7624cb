"""Run one workload on several seeds and report medians and quartile spreads.

    python3 perfbench/spread.py --workload point_read --runs 10 [--seconds 6] [--first-seed 1]

Each run is ``perfbench/run.py`` with its own seed, one after another.  For
every end-to-end metric it prints the median and the quartile spread
(``(Q3 - Q1) / median``, quartiles as ``statistics.quantiles(n=4)`` gives
them) of the calibrated values and, where the run record keeps one, of the
raw wall-clock values.  ``--json PATH`` also writes every run's output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, check=True, text=True)
        lines = completed.stdout.strip().splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"seed": seed, "record": record, "result": result})
        print("seed {}: correct={} failed={} {}".format(
            seed, result["correct"], result["failed"],
            " ".join("{}={:.4g}".format(name, metric["value"])
                     for name, metric in result["metrics"].items())), flush=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(runs, handle)
    print("{:<28} {:>12} {:>8} {:>12} {:>8}".format(
        "metric", "median", "spread", "raw median", "spread"))
    for name in runs[0]["result"]["metrics"]:
        calibrated = spread([run["result"]["metrics"][name]["value"] for run in runs])
        raw_values = [run["record"]["raw"][name] for run in runs if name in run["record"]["raw"]]
        raw = spread(raw_values) if len(raw_values) == len(runs) else None
        print("{:<28} {:>12.5g} {:>8.4f} {:>12} {:>8}".format(
            name, calibrated[0], calibrated[1],
            "{:.5g}".format(raw[0]) if raw else "-", "{:.4f}".format(raw[1]) if raw else "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
