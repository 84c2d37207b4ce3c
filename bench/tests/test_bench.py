"""Tests of the benchmark itself (run: python -m pytest bench/tests)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_numeric_inputs_are_seeded_and_cover_both_im_tau_ends():
    a = workloads.numeric_inputs(7, 3)
    assert a == workloads.numeric_inputs(7, 3)
    assert a != workloads.numeric_inputs(8, 3)
    lo, hi = workloads.IM_TAU_RANGE
    slice_ratio = (hi / lo) ** (1 / workloads.IM_STRATA)
    per_round = workloads.IM_STRATA * len(workloads.EPS_GRID)
    for r in range(3):
        batch = a[r * per_round : (r + 1) * per_round]
        ims = [m.tau.imag for m in batch]
        assert lo <= min(ims) < lo * slice_ratio
        assert hi / slice_ratio < max(ims) <= hi
        assert all(-0.5 <= m.tau.real < 0.5 for m in batch)
        for eps in workloads.EPS_GRID:
            assert sum(m.eps == eps for m in batch) == workloads.IM_STRATA


def test_theta_reference_matches_package_up_to_parameter_swap():
    from surface_lab.legendre_numerics import legendre_params

    for tau in (1j, (1 + 3j) / 2, complex(-0.4, 0.2)):
        a = legendre_params(tau).a
        ref = workloads.theta_reference_a(tau)
        assert min(abs(a - ref) / abs(ref), abs(a * ref - 1)) < 1e-10


def test_numeric_false_alarms_are_verdicts_not_failures():
    from surface_lab.legendre_numerics import IdentityFailure

    w = workloads.make("numeric_sweep", 1)
    verdict = w.check(w.item(0), IdentityFailure("b^2 = a violated"))
    assert verdict.startswith(workloads.FALSE_ALARM)
    assert w.check(w.warmup_item(), w.run(w.warmup_item())) == "pass"


def test_tracer_restores_bindings_and_splits_self_time():
    import surface_lab
    from surface_lab import checks, integer_algebra

    original = checks.abelianize_extension
    tracer = Tracer()
    tracer.install()
    try:
        assert checks.abelianize_extension is not original
        assert surface_lab.abelianize_extension is checks.abelianize_extension
        checks.run(checks.RunConfig(checks=("homology_h1",), taus=()))
    finally:
        tracer.uninstall()
    assert checks.abelianize_extension is original
    assert integer_algebra.smith_normal_form.__module__ == "surface_lab.integer_algebra"
    stats = tracer.self_times()
    assert stats["integer_algebra.smith_normal_form"][0] == 1
    outer = [i for i, p in enumerate(tracer.parent) if p < 0]
    total = sum(tracer.end[i] - tracer.start[i] for i in outer) * 1e-9
    assert math.isclose(sum(s for _, s in stats.values()), total, rel_tol=1e-9)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_run_prints_the_declared_metrics(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    out = bench("--workload", "algebra_warm", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
