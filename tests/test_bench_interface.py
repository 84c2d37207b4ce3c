"""The legendre_numerics names that bench/ uses, called the way it calls
them.  The benchmark runs one harness against two commits, so a rename or
a new required parameter here would break its runs of the newer one."""

import inspect

import pytest

from surface_lab import legendre_numerics as ln

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
