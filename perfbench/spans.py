"""Spans around the benchmark's calls into semiheap, and the per-layer metrics.

A span is recorded in the benchmark's own code, around one call into a
public function of a semiheap module; nothing inside the package is
wrapped or patched.  Spans are kept in memory and written out once, when
the run ends.  Each span carries the phase it ran in ("setup", "warm-up"
or "round") and the operation it belongs to (or "setup"), so the spans of
one operation share that identifier.
"""

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class NullTracer:
    """The untraced run: every span is a no-op."""

    def enter(self, phase):
        pass

    def begin(self, op):
        pass

    def span(self, name, **counts):
        return nullcontext(counts)


class Tracer:
    def __init__(self):
        self.spans = []     # (name, phase, op, start, end, counts)
        self.phase = "setup"
        self.op = "setup"

    def enter(self, phase):
        self.phase = self.op = phase

    def begin(self, op):
        self.op = op

    @contextmanager
    def span(self, name, **counts):
        """Time the enclosed call; the caller may add counts to the yielded dict."""
        start = perf_counter()
        try:
            yield counts
        finally:
            self.spans.append((name, self.phase, self.op, start, perf_counter(), counts))

    def totals(self, per_phase):
        """Per span name: calls, busy seconds and summed counts.

        per_phase maps a phase to how many times it ran; each span counts
        1 / that, so the totals are per set-up build plus per timed round.
        Spans of a phase not in per_phase (the warm-up) are left out.
        """
        out = {}
        for name, phase, _, start, end, counts in self.spans:
            if phase not in per_phase:
                continue
            w = 1.0 / per_phase[phase]
            agg = out.setdefault(name, {"calls": 0.0, "busy_s": 0.0})
            agg["calls"] += w
            agg["busy_s"] += w * (end - start)
            for key, value in counts.items():
                agg[key] = agg.get(key, 0.0) + w * value
        return out

    def dump(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        record = dict(meta, spans=[list(s) for s in self.spans])
        path.write_text(json.dumps(record))


def layer_metrics(totals):
    """Every per_layer metric of BENCHMARK.json; a layer the workload never called reads 0.

    A metric is named <span>.<field>.  A field ending in "_per_s" is the
    count before it divided by the span's busy time.
    """
    out = {}
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        span, _, field = metric["name"].rpartition(".")
        agg = totals.get(span, {})
        if field.endswith("_per_s"):
            busy = agg.get("busy_s", 0.0)
            value = agg.get(field[:-len("_per_s")], 0) / busy if busy > 0 else 0.0
        else:
            value = agg.get(field, 0)
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out
