#!/usr/bin/env python3
"""Residual-scaling experiment for the elliptic identity suite.

Runs the full algebraic check battery once, then sweeps the identity
verifier over a grid of tolerances and moduli and prints how the worst
residuals behave, ending with the pencil constant of the chosen triple.

Usage:
    python3 scripts/run_verification.py
    python3 scripts/run_verification.py --tau 0+1i --tau 0+2i --tau 0.5+1.5i \
        --samples 200 --seed 3
"""

import argparse
import sys

from surface_lab.checks import DEFAULT_TAUS, RunConfig, exit_code, run
from surface_lab.cli import format_tau, parse_tau, render_text
from surface_lab.legendre_numerics import (
    Tolerance,
    evaluator_agreement,
    invariant_pencil_constant,
    legendre_params,
    verify_identities,
)

EPS_GRID = (1e-6, 1e-9, 1e-12)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", action="append", metavar="RE+IMi")
    ap.add_argument("--samples", type=int, default=RunConfig.samples)
    ap.add_argument("--seed", type=int, default=RunConfig.seed)
    args = ap.parse_args()
    taus = tuple(parse_tau(t) for t in args.tau) if args.tau else DEFAULT_TAUS
    if len(taus) < 3:
        ap.error("need at least three moduli for the pencil constant")

    print("== full check battery ==")
    config = RunConfig(taus=taus, samples=args.samples, seed=args.seed)
    results = run(config)
    print(render_text(results))
    code = exit_code(results)

    print("\n== residual scaling ==")
    header = f"{'tau':<22} {'eps':>8} {'worst residual':>15} {'evaluator gap':>14}"
    print(header)
    print("-" * len(header))
    for tau in taus:
        # fixed precision, so long moduli keep the columns aligned
        label = f"{tau.real:.6f}{tau.imag:+.6f}i"
        for eps in EPS_GRID:
            tol = Tolerance(eps=eps, samples=args.samples, seed=args.seed)
            params = legendre_params(tau, tol)
            report = verify_identities(params, tol)
            gap = evaluator_agreement(params, tol)
            flag = "" if report.ok else "  FAILED"
            print(
                f"{label:<22} {eps:>8.0e} "
                f"{report.worst_residual:>15.3e} {gap:>14.3e}{flag}"
            )
            if not report.ok:
                code = 1

    tol = Tolerance(samples=args.samples, seed=args.seed)
    parts = [legendre_params(t, tol) for t in taus[:3]]
    constant = invariant_pencil_constant(parts, tol)
    moduli = ", ".join(format_tau(t) for t in taus[:3])
    print(f"\npencil constant for ({moduli}): {constant:.12g}")
    b_product = parts[0].b * parts[1].b * parts[2].b
    print(f"product of square roots b1 b2 b3:  {b_product:.12g}")
    print(f"|{'(b1 b2 b3)^2 - A':>16}| = {abs(b_product**2 - constant):.3e}")
    return code


if __name__ == "__main__":
    sys.exit(main())
