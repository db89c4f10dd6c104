"""Run a workload once per seed and report each metric's median and quartiles.

    python3 perfbench/spread.py --workload certify --seeds 1-10

Runs perfbench/run.py untraced, for BENCHMARK.json's run_seconds, in
sequence, one process at a time, and prints one line per run and then,
per metric, the median, the first and third quartiles
(statistics.quantiles with n=4) and their distance as a share of the
median.  This is how the reference figures in README.md were made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()

    values, shares = {}, set()
    for seed in args.seeds:
        done = subprocess.run([sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(SECONDS), "--trace", "0"],
                              capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed={seed} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"failed/attempted: {sorted({f / a for f, a in shares})}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{args.workload} {name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} iqr/median={spread:.4f}")


if __name__ == "__main__":
    main()
