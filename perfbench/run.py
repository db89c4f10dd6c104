"""Run one benchmark workload for one seed, in this process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
src/.  Set-up builds the workload's inputs from the seed (several times,
so its time is a median), then one untimed warm-up round runs, then the
round repeats until --seconds have passed.  Every operation's output is
checked in every round.  Every time reported is scaled to the reference
speed of a calibration kernel run beside it (see speed.py); the raw
figures go to stderr.  The last line of stdout is one JSON object:
correct, attempted, failed and metrics; with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics taken from spans (per
set-up build plus per timed round), which are also written to
perfbench/out/.
"""

import os

# The reference machine has 2 cores: keep BLAS to one thread in this
# process and in the import probes it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("certify", "refute", "census", "numeric")
IMPORT_REPEATS = 15
SETUP_REPEATS = 9
FIRST_READ_S = 0.1   # sizes a gauge reading taken before work of unknown length


def time_imports():
    """(raw, scaled) seconds to import semiheap.cli in fresh interpreters, as every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "import_probe.py")], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(tuple(map(float, done.stdout.split())))
    return samples


def run_round(ops, tracer, failures, gauge):
    """Run every operation once; return the (raw, scaled) seconds spent inside them.

    The gauge is read before the first operation and after each one, so
    every operation's time is scaled by the readings on either side.
    """
    busy = scaled = 0.0
    before = gauge.read(FIRST_READ_S)
    for op in ops:
        tracer.begin(op.name)
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:   # an exception no API documents fails the operation
            out, why = None, f"raised {type(exc).__name__}: {exc}"
        else:
            why = None
        seconds = time.perf_counter() - start
        after = gauge.read(seconds)
        busy += seconds
        scaled += gauge.scale(seconds, before, after)
        before = after
        if why is None:
            why = op.check(out)
        if why is not None:
            failures.append((op, why))
    return busy, scaled


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semiheap" / "__init__.py").is_file():
        print(f"error: no semiheap package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import_samples = time_imports()
    import semiheap.cli  # noqa: F401  (the import the probes timed)

    import common
    from spans import NullTracer, Tracer, layer_metrics
    from speed import numeric_gauge
    workload = __import__(f"wl_{args.workload}")

    gauge = numeric_gauge()
    tracer = Tracer() if args.trace else NullTracer()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        input_samples = []
        tracer.enter("setup")
        before = gauge.read(FIRST_READ_S)
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            ctx = common.Context(args.seed, tracer, workdir)
            start = time.perf_counter()
            ops = workload.build(ctx)
            seconds = time.perf_counter() - start
            after = gauge.read(seconds)
            input_samples.append((seconds, gauge.scale(seconds, before, after)))
            before = after

        failures = []
        attempted = 0
        tracer.enter("warm-up")
        run_round(ops, tracer, failures, gauge)   # checked but not timed
        attempted += len(ops)
        tracer.enter("round")
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            gc.collect()
            rounds.append(run_round(ops, tracer, failures, gauge))
            attempted += len(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unexpected = [(op, why) for op, why in failures if not op.known_fault]
    for op, why in dict((op.name, (op, why)) for op, why in failures).values():
        tag = "known fault" if op.known_fault else "FAILED"
        print(f"{tag}: {op.name}: {why}", file=sys.stderr)
    for why in ctx.problems:
        print(f"FAILED set-up: {why}", file=sys.stderr)

    def medians(samples):
        """(raw, scaled) medians of (raw, scaled) samples."""
        return tuple(statistics.median(column) for column in zip(*samples))

    import_raw, import_s = medians(import_samples)
    inputs_raw, inputs_s = medians(input_samples)
    round_raw, round_s = medians(rounds)
    ops_per_s = len(ops) / round_s
    summary = (f"workload={args.workload} seed={args.seed} ops/round={len(ops)} "
               f"rounds={len(rounds)} median_round_s={round_s:.4f} (raw {round_raw:.4f}) "
               f"ops_per_s={ops_per_s:.3f} (raw {len(ops) / round_raw:.3f}) "
               f"setup_s={import_s + inputs_s:.4f} (raw {import_raw + inputs_raw:.4f}) "
               f"peak_rss_mib={peak_rss_mib:.1f}")
    print(summary, file=sys.stderr)

    if args.trace:
        totals = tracer.totals({"setup": SETUP_REPEATS, "round": len(rounds)})
        totals["setup"] = {"import_s": import_s, "inputs_s": inputs_s}
        metrics = layer_metrics(totals)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "ops_per_round": len(ops),
                     "rounds": [{"raw_s": raw, "scaled_s": scaled} for raw, scaled in rounds],
                     "traced_ops_per_s": ops_per_s})
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "setup_s": {"value": import_s + inputs_s, "unit": "s"},
        }
    print(json.dumps({"correct": not unexpected and not ctx.problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
