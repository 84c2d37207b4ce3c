"""Command line front end: `surface-lab verify`; USAGE gives its grammar and exit
codes.  parse_args reads a command line against the OPTIONS table: argparse, with
the gettext and locale it imports, cost a cold run more than the parse itself."""

from __future__ import annotations

import cmath
import json
import os
import sys
from types import SimpleNamespace

from .checks import (
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

USAGE = """\
usage: surface-lab verify [CHECK ...|all] [--list] [--format text|json] [--timings]
           [--tau RE+IMi]... [--no-default-taus] [--eps F] [--samples N] [--seed N]

Options and check names mix in any order.  A value follows its option after a
space or "=" (--seed -3, --seed=-3), and an option may be cut to a unique
prefix.  --timings breaks the byte identity of the output; --no-default-taus
skips the numeric checks unless --tau is given; -h, --help print this text.
Exit codes: 0 all pass or are skipped, 1 a check fails, 2 usage or
configuration error (before any check runs), 3 a check raised (status error)."""


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


# option -> converter; None marks a flag, list the repeatable --tau
OPTIONS = {"--tau": list, "--eps": float, "--samples": int, "--seed": int,
           "--format": {"text": "text", "json": "json"}.__getitem__, "--list": None,
           "--timings": None, "--no-default-taus": None, "--help": None}


def build_parser() -> SimpleNamespace:
    """argparse's calling shape, build_parser().parse_args(argv), as bench/ uses it."""
    return SimpleNamespace(parse_args=parse_args)


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """Read a `verify` command line against OPTIONS; see USAGE."""
    args = SimpleNamespace(command="verify", tau=None, eps=RunConfig.eps,
                           samples=RunConfig.samples, seed=RunConfig.seed, format="text",
                           list=False, timings=False, no_default_taus=False)
    words, names = iter(sys.argv[1:] if argv is None else argv), []
    try:
        for word in words:
            if word == "--":
                names += words
            elif word[:1] != "-":
                names.append(word)
            else:
                name, eq, value = word.partition("=")
                found = ["--help"] if name == "-h" else [o for o in OPTIONS if o.startswith(name)]
                if len(found) != 1:
                    raise ValueError(f"option {name} matches {', '.join(found) or 'no option'}")
                option, convert = found[0], OPTIONS[found[0]]
                if option == "--help":
                    print(USAGE)
                    raise SystemExit(0)
                if not eq:
                    value = next(words, None) if convert else None
                if (convert is None) != (value is None):
                    raise ValueError(f"option {option} takes {'one' if convert else 'no'} value")
                try:
                    value = convert(value) if convert not in (None, list) else value
                except (KeyError, ValueError):
                    raise ValueError(f"option {option}: invalid value {value!r}") from None
                if convert is list:
                    value = [*(args.tau or ()), value]
                setattr(args, option[2:].replace("-", "_"), True if convert is None else value)
        if names[:1] != ["verify"]:
            raise ValueError("the command must be verify")
    except ValueError as err:
        print(USAGE.split("\n\n")[0], f"surface-lab: error: {err}", sep="\n", file=sys.stderr)
        raise SystemExit(2) from None
    args.checks = names[1:] or ["all"]
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)

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
            checks=tuple(args.checks),
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
