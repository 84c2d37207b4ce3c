"""Command line front end: `surface-lab verify [CHECK ...|all] [options]`.

Exit codes: 0 all requested checks pass (or are skipped), 1 any check
fails, 2 usage or configuration error (reported before any check runs),
3 any check raised an exception (status "error"; the report is still
complete).  With --format json the output is a single document
{schema_version, config, results}; the same configuration always
produces byte-identical output (pass --timings to trade that away for
per-check wall times).
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys

from .checks import (
    DEFAULT_EPS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TAUS,
    SCHEMA_VERSION,
    CheckResult,
    RunConfig,
    UnknownCheck,
    canonical_names,
    exit_code,
    resolve_names,
    run,
)


def parse_tau(text: str) -> complex:
    """Parse a modulus written RE+IMi, e.g. 0+1i, 0.5+1.5i, 2i."""
    try:
        value = complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError:
        raise ValueError(f"cannot parse modulus {text!r}; expected RE+IMi") from None
    if not cmath.isfinite(value):
        raise ValueError(f"modulus {text!r} is not finite")
    if not value.imag > 0:
        raise ValueError(f"modulus {text!r} must have positive imaginary part")
    return value


def format_tau(tau: complex) -> str:
    sign = "+" if tau.imag >= 0 else "-"
    return f"{tau.real!r}{sign}{abs(tau.imag)!r}i"


def render_text(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        if r.status == "fail":
            detail = f"expected {r.expected}; got {r.actual}"
        elif r.status == "error":
            detail = f"expected {r.expected}; raised {r.actual}"
        else:
            detail = r.actual
        timing = f"  [{r.elapsed_ms:.1f} ms]" if r.elapsed_ms is not None else ""
        lines.append(f"{r.name:<26} {r.status:<8} {detail}{timing}")
    passed = sum(r.status == "pass" for r in results)
    failed = sum(r.status == "fail" for r in results)
    skipped = sum(r.status == "skipped" for r in results)
    errored = sum(r.status == "error" for r in results)
    summary = f"{len(results)} checks: {passed} passed, {failed} failed"
    if skipped:
        summary += f", {skipped} skipped"
    if errored:
        summary += f", {errored} errored"
    lines.append(summary)
    return "\n".join(lines)


def render_json(config: RunConfig, results: list[CheckResult]) -> str:
    document = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "checks": list(config.checks),
            "taus": [format_tau(t) for t in config.taus],
            "eps": config.eps,
            "samples": config.samples,
            "seed": config.seed,
            "format": config.output_format,
        },
        "results": [vars(r) for r in results],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surface-lab",
        description="Recompute and verify the quantitative claims about the "
        "bidouble-cover surface with K^2 = 7.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run verification checks")
    verify.add_argument(
        "checks",
        nargs="*",
        default=["all"],
        metavar="CHECK",
        help="check names, or 'all' (default)",
    )
    verify.add_argument(
        "--tau",
        action="append",
        metavar="RE+IMi",
        help="modulus for numeric checks; repeatable",
    )
    verify.add_argument("--eps", type=float, default=DEFAULT_EPS, metavar="F")
    verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, metavar="N")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="N")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument(
        "--list", action="store_true", help="list check names and exit"
    )
    verify.add_argument(
        "--timings",
        action="store_true",
        help="include per-check wall time (breaks byte determinism)",
    )
    verify.add_argument(
        "--no-default-taus",
        action="store_true",
        help="without explicit --tau, skip numeric checks instead of "
        "using the built-in moduli",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(canonical_names()))
        return 0

    try:
        if args.tau:
            taus = tuple(parse_tau(t) for t in args.tau)
        elif args.no_default_taus:
            taus = ()
        else:
            taus = DEFAULT_TAUS
        config = RunConfig(
            checks=tuple(args.checks) or ("all",),
            taus=taus,
            eps=args.eps,
            samples=args.samples,
            seed=args.seed,
            output_format=args.format,
            timings=args.timings,
        )
        resolve_names(config.checks)
    except (UnknownCheck, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    results = run(config)
    if config.output_format == "json":
        rendered = render_json(config, results)
    else:
        rendered = render_text(results)
    try:
        print(rendered, flush=True)
    except BrokenPipeError:
        # the reader closed stdout (`surface-lab verify | head -1`): point
        # stdout at devnull so the interpreter's final flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return exit_code(results)


if __name__ == "__main__":
    sys.exit(main())
