"""The three benchmark workloads: inputs, one operation, and its output check.

Each workload is driven by one client in a closed loop: the next operation
starts only after the previous one has returned.  An operation is split into
``run`` (timed) and ``check`` (untimed); ``check`` returns the op's verdict,
``"pass"`` or a short reason for counting it as an error.

surface_lab is imported lazily, inside ``setup``, so that the cold-CLI
worker never imports the package it measures.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# scripts/run_verification.py sweeps these tolerances for every modulus
EPS_GRID = (1e-6, 1e-9, 1e-12)
SAMPLES = 200
IM_TAU_RANGE = (0.1, 8.0)
# one round of the numeric sweep visits every (Im tau stratum, eps) pair once,
# in a seeded order, so each run sees the same mix of cheap and expensive,
# passing and false-alarm moduli whatever the seed
IM_STRATA = 16

NUMERIC_CHECKS = ("legendre_identities", "pencil_two_invariants")

# prefix of a verdict in which the package rejects an identity that holds
# (ROADMAP item 3): the op returned the package's answer, so it is counted in
# pass_rate but not as a failed op
FALSE_ALARM = "false alarm: "


def package_env() -> dict[str, str]:
    """Environment in which child interpreters import surface_lab from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass(frozen=True)
class Modulus:
    tau: complex
    eps: float
    sample_seed: int


def numeric_inputs(seed: int, rounds: int) -> list[Modulus]:
    """Seeded moduli for the numeric sweep.

    Re tau is uniform in [-0.5, 0.5) and Im tau log-uniform in [0.1, 8],
    stratified: each round draws one Im tau from each of IM_STRATA equal
    slices of log Im tau for each eps of EPS_GRID, then shuffles the round.
    """
    rng = random.Random(seed)
    lo, hi = (math.log(v) for v in IM_TAU_RANGE)
    width = (hi - lo) / IM_STRATA
    out: list[Modulus] = []
    for _ in range(rounds):
        batch = []
        for k in range(IM_STRATA):
            for eps in EPS_GRID:
                im = math.exp(lo + (k + rng.random()) * width)
                re = rng.random() - 0.5
                batch.append(Modulus(complex(re, im), eps, rng.randrange(2**31)))
        rng.shuffle(batch)
        out.extend(batch)
    return out


def theta_reference_a(tau: complex) -> complex:
    """a = (theta3(0|2tau) / theta2(0|2tau))^2, independent of the package.

    legendre_params may return this a or 1/a (the curve-parameter swap its
    selection rule settles), so checks accept either.
    """
    q = cmath.exp(2j * math.pi * tau)
    t2 = t3 = 0j
    for n in range(200):
        half = q ** ((n + 0.5) ** 2)
        full = q ** ((n + 1) ** 2)
        t2 += 2 * half
        t3 += 2 * full
        if abs(half) < 1e-18 and abs(full) < 1e-18:
            break
    b = (1 + t3) / t2
    return b * b


def residual_margin(report, gap: float) -> float:
    """Digits between each identity's residual and its threshold, worst case."""
    eps = report.eps
    margins = []
    for name, value in report.residuals.items():
        threshold = eps ** (2.0 / 3.0) if name == "half_period_derivative" else eps
        margins.append(math.log10(threshold / max(value, 1e-300)))
    margins.append(math.log10(eps / max(gap, 1e-300)))
    return min(margins)


@dataclass
class Workload:
    """One workload bound to a seed; ``items[i]`` is the input of op i."""

    # calibration of op times, see clock.py
    speed_factor = staticmethod(clock.loop_factor)
    tracer = None

    name: str
    seed: int
    items: list = field(default_factory=list)
    margins: list[float] = field(default_factory=list)

    def setup(self) -> None:
        raise NotImplementedError

    def item(self, i: int):
        return self.items[i % len(self.items)]

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> str:
        raise NotImplementedError

    def warmup_item(self):
        return self.item(0)

    def enable_tracing(self, tracer) -> None:
        self.tracer = tracer
        tracer.install()

    def disable_tracing(self) -> None:
        self.tracer.uninstall()
        self.tracer = None


class CliCold(Workload):
    """A fresh `python -m surface_lab.cli verify all --format json` per op."""

    speed_factor = staticmethod(clock.spawn_factor)

    def setup(self) -> None:
        self.env = package_env()
        self.items = [["verify", "all", "--format", "json", "--seed", str(self.seed)]]
        self.reference: bytes | None = None

    def run(self, args):
        # a traced op runs the CLI under a tracer in the child, which
        # sends its spans back on stderr
        if self.tracer is None:
            entry = ["-m", "surface_lab.cli"]
        else:
            entry = [str(ROOT / "bench" / "traced_cli.py")]
        cmd = [sys.executable, *entry, *args]
        return subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT)

    def enable_tracing(self, tracer) -> None:
        self.tracer = tracer

    def disable_tracing(self) -> None:
        self.tracer = None

    def check(self, item, out) -> str:
        if self.tracer is not None and out.stderr:
            spans = json.loads(out.stderr.splitlines()[-1])
            self.tracer.absorb(spans, self.tracer.op_id)
        if out.returncode != 0:
            return f"exit {out.returncode}"
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            return "invalid JSON"
        statuses = [r["status"] for r in doc["results"]]
        if len(statuses) != 22 or set(statuses) != {"pass"}:
            return "not 22 pass"
        if self.reference is None:
            self.reference = out.stdout
        elif out.stdout != self.reference:
            return "output differs between ops"
        return "pass"


class AlgebraWarm(Workload):
    """run(RunConfig(taus=())) in a warm process: the 20 exact checks."""

    def setup(self) -> None:
        from surface_lab.checks import RunConfig, run

        self._run = run
        self.items = [RunConfig(taus=())]

    def run(self, item):
        return self._run(item)

    def check(self, item, out) -> str:
        skipped = sorted(r.name for r in out if r.status == "skipped")
        passed = sum(r.status == "pass" for r in out)
        if passed != 20 or tuple(skipped) != tuple(sorted(NUMERIC_CHECKS)):
            return "not 20 pass + 2 skipped"
        return "pass"


class WrongValue(Exception):
    """An output disagrees with the benchmark's independent reference."""


class NumericSweep(Workload):
    """legendre_params -> verify_identities -> evaluator_agreement per modulus."""

    ROUNDS = 100

    def setup(self) -> None:
        from surface_lab import legendre_numerics as ln

        self.ln = ln
        self.items = numeric_inputs(self.seed, self.ROUNDS)

    def warmup_item(self):
        # fixed, so set-up time does not depend on where the seed starts
        return Modulus(1j, 1e-9, 0)

    def run(self, item: Modulus):
        ln = self.ln
        tol = ln.Tolerance(eps=item.eps, samples=SAMPLES, seed=item.sample_seed)
        try:
            params = ln.legendre_params(item.tau, tol)
            report = ln.verify_identities(params, tol)
            gap = ln.evaluator_agreement(item.tau, tol)
        except ln.IdentityFailure as exc:
            return exc
        return params, report, gap

    def check(self, item: Modulus, out) -> str:
        # every identity checked here is a theorem for every tau in the
        # upper half-plane, so each rejection is a false alarm
        if isinstance(out, self.ln.IdentityFailure):
            return FALSE_ALARM + "raised IdentityFailure"
        params, report, gap = out
        self.margins.append(residual_margin(report, gap))
        a_ref = theta_reference_a(item.tau)
        mismatch = min(
            abs(params.a - a_ref) / abs(a_ref), abs(params.a * a_ref - 1)
        )
        if not mismatch < 1e-6:
            raise WrongValue(f"a = {params.a} at tau = {item.tau}; theta gives {a_ref}")
        if not report.ok:
            return FALSE_ALARM + "identity fail"
        if gap > item.eps:
            return FALSE_ALARM + "evaluator disagreement"
        return "pass"


WORKLOADS: dict[str, type[Workload]] = {
    "cli_cold": CliCold,
    "algebra_warm": AlgebraWarm,
    "numeric_sweep": NumericSweep,
}


def make(name: str, seed: int) -> Workload:
    w = WORKLOADS[name](name=name, seed=seed)
    w.setup()
    return w
