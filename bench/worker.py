"""One fresh benchmark worker: set up a workload, then measure it.

Usage: python bench/worker.py WORKLOAD SEED SECONDS {setup,measure,trace}

The worker prints READY once set-up (imports, input generation and one
untimed warm-up op) is done; in ``setup`` mode it then exits.  In the other
modes its last line of output is a JSON summary for bench/run.py.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from collections import Counter

import workloads
from tracing import Tracer

# the traced replay keeps every span in memory; this caps it near 10^5-10^6
TRACE_OPS = 100


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Loop:
    """Closed-loop client: one op in flight, next op after the previous ends."""

    def __init__(self, w: workloads.Workload, tracer: Tracer | None = None) -> None:
        self.w = w
        self.tracer = tracer
        self.raw: list[float] = []  # wall seconds of each op
        # speed factor measured before each op and once after the last (clock.py)
        self.factors: list[float] = []
        self.verdicts: Counter[str] = Counter()
        self.wrong: list[str] = []

    def one(self, i: int, item) -> str:
        if self.tracer is not None:
            self.tracer.op_id = i
        self.factors.append(self.w.speed_factor())
        t0 = time.perf_counter()
        try:
            out = self.w.run(item)
        except Exception as exc:  # noqa: BLE001 - an op that raises is recorded, not fatal
            self.raw.append(time.perf_counter() - t0)
            return f"raised {type(exc).__name__}"
        self.raw.append(time.perf_counter() - t0)
        try:
            return self.w.check(item, out)
        except workloads.WrongValue as exc:
            self.wrong.append(str(exc))
            return "wrong value"

    def run(self, seconds: float, count: int | None = None) -> "Loop":
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            self.verdicts[self.one(i, self.w.item(i))] += 1
            i += 1
            if time.perf_counter() >= deadline or (count is not None and i >= count):
                break
        self.factors.append(self.w.speed_factor())
        return self

    @property
    def times(self) -> list[float]:
        """Calibrated seconds of each op: wall time over the mean of the
        calibration times measured just before and just after it."""
        f = self.factors
        return [t * 2 / (1 / f[i] + 1 / f[i + 1]) for i, t in enumerate(self.raw)]

    def summary(self) -> dict:
        times = self.times
        ms = [t * 1e3 for t in times]
        raw = [t * 1e3 for t in self.raw]
        return {
            "ops": len(ms),
            "p50_ms": percentile(ms, 0.5),
            "p90_ms": percentile(ms, 0.9),
            "ops_per_s": len(ms) / sum(times),
            "wall_p50_ms": percentile(raw, 0.5),
            "wall_p90_ms": percentile(raw, 0.9),
            "verdicts": dict(self.verdicts),
            "wrong": self.wrong[:3],
        }


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def trace(w: workloads.Workload, seconds: float, seed: int) -> dict:
    """Untraced ops, then the same ops traced, then the per-layer suite."""
    import layers

    plain = Loop(w).run(seconds / 2)
    replay = min(plain.summary()["ops"], TRACE_OPS)
    tracer = Tracer()
    w.enable_tracing(tracer)
    try:
        traced = Loop(w, tracer).run(seconds / 2, count=replay)
    finally:
        w.disable_tracing()
    ops = len(traced.raw)
    tracer.write(workloads.ROOT / ".bench_out" / f"spans-{w.name}.jsonl")
    base = percentile([t * 1e3 for t in plain.times[:ops]], 0.5)
    top = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][1])[:8]
    metrics = layers.all_layers(seed)
    metrics["trace.overhead_ms"] = percentile([t * 1e3 for t in traced.times], 0.5) - base
    metrics["trace.spans_per_op"] = len(tracer) / ops
    return {
        "ops": ops,
        "verdicts": dict(plain.verdicts + traced.verdicts),
        "wrong": (plain.wrong + traced.wrong)[:3],
        "top_self": [[k, c / ops, 1e3 * s / ops] for k, (c, s) in top],
        "layers": metrics,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    w = workloads.make(name, seed)
    warm = Loop(w)
    warmup_verdict = warm.one(0, w.warmup_item())
    w.margins.clear()
    print("READY", flush=True)
    if mode == "setup":
        return 0
    if mode == "trace":
        result = trace(w, seconds, seed)
    else:
        loop = Loop(w).run(seconds)
        result = loop.summary()
        result["peak_rss_mb"] = peak_rss_mb(name)
        if w.margins:
            result["residual_margin_p50"] = statistics.median(w.margins)
    result["warmup_verdict"] = warmup_verdict
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
