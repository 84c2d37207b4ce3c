#!/usr/bin/env python3
"""Mutation sweep: which single-site changes to the package can a default
`surface-lab verify` run not see?

Each mutant changes one site of one module:

* a comparison: `<` and `<=`, `>` and `>=`, `==` and `!=`, `in` and
  `not in` swap;
* an arithmetic operator (also in `+=` and the like): `+` and `-` swap,
  `*` becomes `+`, `/` and `//` become `*`, `%` becomes `//`;
* `and` and `or` swap;
* an int constant gains 1; a float constant is scaled by 1.5.

The mutant is written into a temporary copy of the package, outside the
source tree, and judged in a fresh interpreter with a 20 s timeout by
one judge, whatever the module: `main(["verify", "all", "--format",
"json"])`.  The mutant survives only if that exits 0 and prints the bytes
of tests/data/verify_all.json, so a mutant that changes only what a
passing claim prints is killed too.  A crash or a timeout kills it.
Mutants run one at a time.  The script prints, per module, the killed
and survived counts and the line of each survivor.  It uses the standard
library only.

Usage:
    python3 scripts/mutation_sweep.py affine_groups character_calculus
    python3 scripts/mutation_sweep.py --src path/to/src checks
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = SRC.parent / "tests" / "data" / "verify_all.json"
TIMEOUT_S = 20
JUDGE = (
    "import io, sys\n"
    "from contextlib import redirect_stdout\n"
    "from surface_lab.cli import main\n"
    "out = io.StringIO()\n"
    "try:\n"
    "    with redirect_stdout(out):\n"
    "        code = main(['verify', 'all', '--format', 'json'])\n"
    "except SystemExit:\n"
    "    code = 'exit'\n"
    f"sys.exit(code != 0 or out.getvalue().encode() != open({str(GOLDEN)!r}, 'rb').read())\n"
)

SWAP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
    ast.Div: ast.Mult, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Add: "+",
    ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.And: "and", ast.Or: "or",
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every mutable site as (node, index of the operator in a comparison,
    else None), in ast.walk order, which is the same for equal sources."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAP]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAP:
                found.append((node, None))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node, None))
    return found


def mutate(node: ast.AST, index: int | None) -> str:
    """Apply the mutation of one site in place; return what it did."""
    if isinstance(node, ast.Constant):
        old = node.value
        node.value = old + 1 if type(old) is int else old * 1.5
        return f"{old!r} -> {node.value!r}"
    if isinstance(node, ast.Compare):
        op = node.ops[index]
        node.ops[index] = SWAP[type(op)]()
    else:
        op = node.op
        node.op = SWAP[type(op)]()
    return f"{SYMBOL[type(op)]} -> {SYMBOL[SWAP[type(op)]]}"


def killed(package: Path) -> bool:
    """True if the judge script, run in a fresh interpreter, does not exit 0."""
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-c", JUDGE],
            cwd=package.parent, env={**os.environ, "PYTHONPATH": str(package.parent)},
            capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return True
    return proc.returncode != 0


def sweep(module: str, src: Path) -> tuple[int, list[tuple[int, str, str]]]:
    """(killed count, survivors as (line, mutation, source line))."""
    path = src / "surface_lab" / f"{module}.py"
    source = path.read_text()
    lines = source.splitlines()
    count = len(sites(ast.parse(source)))
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        package = Path(tmp) / "surface_lab"
        shutil.copytree(src / "surface_lab", package, ignore=shutil.ignore_patterns("__pycache__"))
        target = package / path.name
        target.write_text(ast.unparse(ast.parse(source)))
        if killed(package):
            raise SystemExit(f"{module}: the unmutated run does not pass")
        n_killed, survivors = 0, []
        for k in range(count):
            tree = ast.parse(source)
            node, index = sites(tree)[k]
            what = mutate(node, index)
            target.write_text(ast.unparse(tree))
            if killed(package):
                n_killed += 1
            else:
                survivors.append((node.lineno, what, lines[node.lineno - 1].strip()))
    return n_killed, survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names under surface_lab")
    parser.add_argument("--src", type=Path, default=SRC, help="the src directory to mutate")
    args = parser.parse_args(argv)
    for module in args.modules:
        n_killed, survivors = sweep(module, args.src.resolve())
        print(f"{module}: {n_killed} killed, {len(survivors)} survived")
        for line, what, text in sorted(survivors):
            print(f"  line {line}: {what}    {text}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
