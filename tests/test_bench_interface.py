"""The package names that bench/ uses, called the way it calls them.  The
benchmark runs one harness against two commits, so a rename or a new
required parameter here would break its runs of the newer one."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from surface_lab import cli
from surface_lab import legendre_numerics as ln
from surface_lab.affine_groups import abelianization_relations, standard_generators
from surface_lab.checks import CHECKS, canonical_names
from surface_lab.integer_algebra import smith_normal_form

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.py"
# gone from the package: homology_bound moved to tests/oracles.py, and
# verify_configuration became configuration_report; each per-layer metric
# reads 0 until the bench drops or re-points it
GONE = {"orbifold_covers.homology_bound", "picard_lattice.verify_configuration"}

TAU = 0.1 + 0.3j  # bench/layers.py's im_low probe


def bind(fn, *args, **kwargs) -> None:
    inspect.signature(fn).bind(*args, **kwargs)


def test_tolerance_as_the_bench_builds_it():
    tol = ln.Tolerance(eps=1e-9, samples=200, seed=7)
    assert tol.series_eps == pytest.approx(1e-12)
    assert ln.Tolerance(samples=16, seed=7).eps == 1e-9
    assert ln.Tolerance(seed=7).samples == 100


@pytest.mark.parametrize(
    "name", ["weierstrass_p", "weierstrass_p_theta", "weierstrass_p_prime"]
)
def test_evaluators_keep_name_and_signature(name):
    fn = getattr(ln, name)
    # bench/layers.py names a per-layer metric after fn.__name__
    assert fn.__name__ == name
    bind(fn, 0.3 + 0.2j, TAU, eps=1e-12)
    assert isinstance(fn(0.3 + 0.2j, TAU, eps=1e-12), complex)


def test_sweep_op_as_the_bench_runs_it():
    tol = ln.Tolerance(eps=1e-9, samples=200, seed=7)
    for fn, args in (
        (ln.sample_points, (TAU, tol)),
        (ln.legendre_params, (TAU, tol)),
        (ln.evaluator_agreement, (TAU, tol)),
        (ln.invariant_pencil_constant, ((TAU, TAU + 0.2, TAU - 0.2), tol)),
    ):
        bind(fn, *args)
    assert len(ln.sample_points(TAU, ln.Tolerance(samples=16, seed=7))) == 16
    params = ln.legendre_params(TAU, tol)
    assert isinstance(params.a, complex)
    bind(ln.verify_identities, params, tol)
    report = ln.verify_identities(params, tol)
    assert report.ok and report.eps == tol.eps
    # bench/workloads.py residual_margin reads each residual by name
    assert "half_period_derivative" in report.residuals
    assert all(isinstance(v, float) for v in report.residuals.values())
    assert isinstance(ln.evaluator_agreement(TAU, tol), float)
    assert isinstance(ln.invariant_pencil_constant((TAU, TAU + 0.2, TAU - 0.2), tol), complex)


def test_identity_failure_is_an_exception():
    assert issubclass(ln.IdentityFailure, Exception)
    assert str(ln.IdentityFailure("b^2 = a violated")) == "b^2 = a violated"


def traced_algebra_names() -> set[str]:
    """The module.function labels of ALGEBRA_SELF and ALGEBRA_COUNTS."""
    names = set()
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("ALGEBRA_SELF", "ALGEBRA_COUNTS")
            for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_traced_algebra_names_are_public_functions():
    # the tracer reports a span only for a public function defined in the
    # module it is named after; any other name would read 0
    names = traced_algebra_names()
    assert len(names) > len(GONE)
    for label in sorted(names - GONE):
        module, name = label.split(".")
        mod = importlib.import_module(f"surface_lab.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn), label
        assert fn.__module__ == mod.__name__, label


def bench_numeric_checks() -> set[str]:
    """The names in NUMERIC_CHECKS of bench/workloads.py."""
    for node in ast.parse((BENCH / "workloads.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "NUMERIC_CHECKS" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("bench/workloads.py defines no NUMERIC_CHECKS")


def test_claim_set_as_the_bench_counts_it():
    # cli_cold requires 22 passes, and algebra_warm 20 passes with exactly
    # NUMERIC_CHECKS skipped: a claim added, removed or renamed reads
    # pass_rate 0 on both until the bench reads the set from the package
    # (the ROADMAP item "The bench counts the package's claims")
    message = (
        "the bench hard-codes the claim set; change it with the benchmark change"
        " that reads the claim set from the package"
    )
    assert len(canonical_names()) == 22, message
    numeric = {name for name, claim in CHECKS.items() if claim.moduli > 0}
    assert numeric == bench_numeric_checks(), message


def test_smith_normal_form_as_the_bench_calls_it():
    relations = abelianization_relations(standard_generators())
    bind(smith_normal_form, relations, transforms=True)
    form = smith_normal_form(relations, transforms=True)
    assert form.left is not None and form.right is not None


def test_cli_parse_as_the_bench_times_it():
    # bench/layers.py cli_layer
    args = cli.build_parser().parse_args(["verify", "all", "--format", "json", "--seed", "7"])
    assert (args.checks, args.format, args.seed) == (["all"], "json", 7)


def test_cli_main_as_the_traced_run_calls_it(capsys):
    # bench/traced_cli.py passes sys.argv[1:] and exits with the result
    bind(cli.main, ["verify", "ks2_7", "--format", "json"])
    assert cli.main(["verify", "ks2_7", "--format", "json"]) == 0
    assert '"ks2_7"' in capsys.readouterr().out
