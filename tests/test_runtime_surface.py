"""The runtime package holds only what `surface-lab verify` and the
benchmark call.  A fresh interpreter, profiled from before the package
import, runs a handful of command lines, the process entry (as the
`surface-lab` script runs it) and the calls that bench/ makes; every
function defined under src/surface_lab must be entered.  A function
that only the tests reach belongs in tests/oracles.py.

This module imports no surface_lab at its top, so that the fresh
interpreter can import probe() from it before the profiler is on.
"""

import ast
import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = SRC / "surface_lab"

ARGVS = (
    ["verify"],
    ["verify", "all", "--format", "json", "--timings"],
    ["verify", "--list"],
    ["verify", "--no-default-taus"],
    ["verify", "legendre_identities", "--tau", "1.2+1i"],
    ["verify", "legendre_identities", "--tau", "0+0.05i"],
)

# a record's immutability guards: no run assigns to, deletes or prints a
# record, yet they are what keeps every record frozen; and its __hash__,
# which no run needs, but == of a value type needs a hash that agrees with it
GUARDS = {
    "_record.record.__repr__",
    "_record.record.__setattr__",
    "_record.record.__delattr__",
    "_record.record.__hash__",
}

TAU = 0.1 + 0.3j  # bench/layers.py's im_low probe


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> module.qualified.name for
    every def in the package; a decorated def starts at its decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{prefix}.{child.name}"
                walk(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return found


def bench_calls() -> None:
    """The package calls of tests/test_bench_interface.py, and a
    package-level lookup as bench/tests makes one."""
    import surface_lab
    from surface_lab import cli
    from surface_lab import legendre_numerics as ln
    from surface_lab.affine_groups import abelianization_relations, standard_generators
    from surface_lab.integer_algebra import smith_normal_form

    tol = ln.Tolerance(eps=1e-9, samples=200, seed=7)
    assert tol.series_eps > 0
    for fn in (ln.weierstrass_p, ln.weierstrass_p_theta, ln.weierstrass_p_prime):
        fn(0.3 + 0.2j, TAU, eps=1e-12)
    ln.sample_points(TAU, ln.Tolerance(samples=16, seed=7))
    ln.verify_identities(ln.legendre_params(TAU, tol), tol)
    ln.evaluator_agreement(TAU, tol)
    ln.invariant_pencil_constant((TAU, TAU + 0.2, TAU - 0.2), tol)
    smith_normal_form(abelianization_relations(standard_generators()), transforms=True)
    assert surface_lab.abelianize_extension is not None
    cli.build_parser().parse_args(["verify", "all", "--format", "json", "--seed", "7"])


def probe() -> None:
    """Print, as JSON, the (file, first line) of every Python function
    entered from the package import through ARGVS, the process entry and
    bench_calls."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    from surface_lab import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for argv in ARGVS:
            cli.main(argv)
        argv, sys.argv = sys.argv, ["surface-lab", *ARGVS[2]]
        try:
            cli.entry()
        except SystemExit:
            pass
        finally:
            sys.argv = argv
            gc.unfreeze()  # entry froze the heap on its way out
    bench_calls()
    sys.setprofile(None)
    print(json.dumps(sorted(entered)))


def test_every_package_function_is_reached():
    path = os.pathsep.join(filter(None, (str(SRC), str(HERE), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "from test_runtime_surface import probe; probe()"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {(str(Path(f).resolve()), line) for f, line in json.loads(proc.stdout)}
    functions = defined_functions()
    assert GUARDS <= set(functions.values())
    missed = sorted(name for key, name in functions.items() if key not in entered)
    assert missed == sorted(GUARDS), f"never called at runtime: {sorted(set(missed) - GUARDS)}"
