"""surface-lab benchmark: one workload, one seed, one closed-loop client.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {cli_cold,algebra_warm,numeric_sweep} \
        --seed N --seconds S --trace {0,1}

With --trace 0 a fresh worker process sets the workload up and runs it for
S seconds, with no tracing; six more fresh workers only set up, so that
setup_s is a median of seven.  The end-to-end metrics of BENCHMARK.json are
printed, one per line, then provenance, then a last line of JSON:
{"correct", "attempted", "failed", "metrics"}.

With --trace 1 the worker runs the workload for S/2 seconds untraced, then
replays the same ops with spans around the package's public functions
(spans are written to .bench_out/), then times every layer on its own; the
per-layer metrics of BENCHMARK.json are printed instead.

The benchmark needs only the standard library and the package under src/;
it exits with status 2, printing no result, when src/surface_lab is absent.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import clock
from workloads import FALSE_ALARM, ROOT, WORKLOADS, package_env

BENCH = ROOT / "bench"
SETUP_RUNS = 7


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, spec: dict) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def launch(args, mode: str) -> tuple[subprocess.Popen, float]:
    """Start a fresh worker; return it with its calibrated set-up seconds."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        args.workload, str(args.seed), str(args.seconds), mode,
    ]
    factor = clock.spawn_factor()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=package_env(), cwd=ROOT
    )
    line = proc.stdout.readline()
    setup = (time.perf_counter() - t0) * factor
    if line.strip() != "READY":
        finish(proc, 30)
        raise BenchError(f"{mode} worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker, killing it after timeout; return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


def end_to_end(args) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, setup = launch(args, "setup")
        finish(proc, 30)
        setups.append(setup)
    proc, setup = launch(args, "measure")
    setups.append(setup)
    result = json.loads(finish(proc, args.seconds + 90).splitlines()[-1])
    passed = result["verdicts"].get("pass", 0)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms.p50": result["p50_ms"],
        "op_ms.p90": result["p90_ms"],
        "ops_per_s": result["ops_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_rate": passed / result["ops"],
    }
    return metrics, result


def per_layer(args) -> tuple[dict, dict]:
    proc, _ = launch(args, "trace")
    result = json.loads(finish(proc, args.seconds + 120).splitlines()[-1])
    return result["layers"], result


def report(args, spec: dict, metrics: dict, result: dict) -> dict:
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    attempted = sum(result["verdicts"].values())
    passed = result["verdicts"].get("pass", 0)
    errors = {k: v for k, v in result["verdicts"].items() if k != "pass"}
    failed = sum(v for k, v in errors.items() if not k.startswith(FALSE_ALARM))
    correct = not result["wrong"] and result["warmup_verdict"] == "pass" and not failed

    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}")
    for name in units:
        print(f"  {name:<64} {metrics[name]:>14.6g} {units[name]}")
    print(f"  error_rate {(attempted - passed) / attempted:.6g} ({attempted - passed}/{attempted})")
    for verdict, n in sorted(errors.items()):
        print(f"    {n:>6}  {verdict}")
    print(f"  failed ops {failed}")
    for wrong in result["wrong"]:
        print(f"  wrong value: {wrong}")
    if "wall_p50_ms" in result:
        print(f"  uncalibrated wall op_ms.p50 {result['wall_p50_ms']:.6g} ms, "
              f"op_ms.p90 {result['wall_p90_ms']:.6g} ms")
    if "residual_margin_p50" in result:
        print(f"  residual_margin.p50 {result['residual_margin_p50']:.6g} digits")
    for name, calls, self_ms in result.get("top_self", []):
        print(f"  self time per op {self_ms:10.4f} ms  calls {calls:10.2f}  {name}")
    print("provenance " + json.dumps(provenance(args, spec), sort_keys=True))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured seconds; 0 runs a single op")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "surface_lab" / "__init__.py").is_file():
        print(f"error: no surface_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    clock.pin_to_one_cpu()
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1)
    try:
        metrics, result = per_layer(args) if args.trace else end_to_end(args)
        line = report(args, spec, metrics, result)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
