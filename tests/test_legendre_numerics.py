"""Tests for the elliptic / Legendre-function numerics.

Oracle notes
------------
* The truncated lattice sum (with its explicit tail bound) is the
  independent slow evaluator; both fast strategies must agree with it
  within the bound.
* The square-lattice constant a(tau = i) was first computed from the
  lattice-sum oracle alone (solving the Moebius constraints from the
  oracle's half-period values) and matches 3 + 2 sqrt(2); that closed
  form is frozen below as a regression pin.
* tests/reference.py sums the theta series in mpmath at 40 digits and
  more; the theta-form L, L' and a, and wp and wp' by the row series,
  must stay within a recorded error of it over the whole stated domain of
  tau.
"""

import cmath
import math
import re
from collections import Counter

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from surface_lab.character_calculus import pencil_fixed_parameters
from surface_lab.legendre_numerics import (
    IM_TAU_DOMAIN,
    DegenerateModulus,
    EllipticParams,
    IdentityFailure,
    OutsideDomain,
    PoleAtLatticePoint,
    Tolerance,
    _LegendreFrame,
    _NomeFrame,
    _half_shift_table,
    _modular_reduction,
    _nan_max,
    evaluator_agreement,
    invariant_pencil_constant,
    legendre_params,
    sample_points,
    verify_identities,
    weierstrass_p,
    weierstrass_p_prime,
    weierstrass_p_theta,
)

from oracles import (
    legendre_derivative,
    legendre_value,
    sample_points_rejection,
    value_slope,
    weierstrass_p_lattice_sum,
    wp_row_series,
)
from reference import legendre_reference, theta, wp_prime_reference, wp_reference

DEFAULT_TAUS = [1j, (1 + 3j) / 2, 2j, (1 + 5j) / 3]
SQUARE_LATTICE_A = 3 + 2 * math.sqrt(2)  # frozen from the lattice-sum oracle

GRID = [0.3 + 0.2j, -0.17 + 0.41j, 0.25 + 0.33j, 0.45 - 0.12j]
# points (u, v) of u + v tau where evaluator_agreement's branch test is
# within a factor 1.5 of a tie and |wp| < 1.5, so moving the floor of |wp|
# from 1.0 to 1.5 moves a gap: at (0.29, 0.49) |wp| = 1.41 and the gap is
# taken on the wp side, at (0.31, 0.49) |wp| = 0.94 and it is taken on the
# L side.  Seeded points keep 0.1 away from v = 1/2 and never land here.
NEAR_TIE_POINTS = {0.9j: [(0.29, 0.49), (0.31, 0.49), (0.69, 0.51), (0.71, 0.51)]}
SAMPLED_IDENTITIES = (
    "evenness", "period_one", "period_tau", "half_shift_negates", "tau_half_product"
)


def rel(x: complex, y: complex) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


class TestWeierstrassEvaluators:
    @pytest.mark.parametrize("tau", DEFAULT_TAUS)
    def test_two_strategies_agree(self, tau):
        for u in GRID:
            z = u.real + u.imag * tau
            p1 = weierstrass_p(z, tau)
            p2 = weierstrass_p_theta(z, tau)
            assert rel(p1, p2) < 1e-12

    @pytest.mark.parametrize("tau", DEFAULT_TAUS)
    def test_lattice_sum_within_tail_bound(self, tau):
        for u in GRID[:2]:
            z = u.real + u.imag * tau
            fast = weierstrass_p(z, tau)
            slow, tail = weierstrass_p_lattice_sum(z, tau, terms=40)
            assert abs(fast - slow) <= tail + 1e-12

    def test_tail_bound_shrinks(self):
        z = 0.3 + 0.2j
        _, t20 = weierstrass_p_lattice_sum(z, 1j, terms=20)
        _, t80 = weierstrass_p_lattice_sum(z, 1j, terms=80)
        assert t80 < t20 / 10

    @pytest.mark.parametrize("tau", DEFAULT_TAUS)
    def test_half_period_values_sum_to_zero(self, tau):
        e1 = weierstrass_p(0.5 + 0j, tau)
        e2 = weierstrass_p(tau / 2, tau)
        e3 = weierstrass_p((1 + tau) / 2, tau)
        assert abs(e1 + e2 + e3) < 1e-10 * max(1.0, abs(e1))

    def test_square_lattice_symmetry(self):
        # for tau = i the value at the mixed half period vanishes and the
        # other two are opposite reals
        e1 = weierstrass_p(0.5 + 0j, 1j)
        e2 = weierstrass_p(0.5j, 1j)
        e3 = weierstrass_p((1 + 1j) / 2, 1j)
        assert abs(e3) < 1e-12
        assert abs(e1 + e2) < 1e-12
        assert abs(e1.imag) < 1e-12 and e1.real > 0

    def test_evenness_and_periodicity(self):
        tau = (1 + 3j) / 2
        z = 0.31 + 0.27 * tau
        p = weierstrass_p(z, tau)
        assert rel(weierstrass_p(-z, tau), p) < 1e-13
        assert rel(weierstrass_p(z + 1, tau), p) < 1e-13
        assert rel(weierstrass_p(z + tau, tau), p) < 1e-13
        assert rel(weierstrass_p(z - 3 + 2 * tau, tau), p) < 1e-13

    def test_pole_raises(self):
        for z in (0j, 1 + 0j, 1j, 2 + 3j, -1 + 0j):
            with pytest.raises(PoleAtLatticePoint):
                weierstrass_p(z, 1j)
        with pytest.raises(PoleAtLatticePoint):
            weierstrass_p_theta(0j, 1j)
        with pytest.raises(PoleAtLatticePoint):
            weierstrass_p_lattice_sum(0j, 1j)

    def test_lattice_lines_are_not_poles(self):
        # a point with one integer coordinate, negative ones included, is
        # no pole: only both coordinates on the lattice are
        tau = 0.3 + 1.2j
        for z in (0.25 + 0j, -1.0 + 0.3 * tau, 0.4 - 2 * tau, 0.35 * tau):
            value = weierstrass_p(z, tau)
            assert rel(value, wp_reference(tau, z)) < WP_ERROR
            assert rel(weierstrass_p_theta(z, tau), value) < 1e-11
            assert rel(weierstrass_p_prime(z, tau), wp_prime_reference(tau, z)) < WP_PRIME_ERROR

    @pytest.mark.parametrize(
        "z", [complex(math.nan, 0.2), complex(0.3, math.inf), complex(-math.inf, math.nan)]
    )
    @pytest.mark.parametrize("evaluator", [weierstrass_p, weierstrass_p_prime, weierstrass_p_theta])
    def test_non_finite_point_rejected(self, evaluator, z):
        # math.remainder returns NaN for a NaN coordinate: unchecked, the row
        # series would run to its last row and blame the modulus
        with pytest.raises(ValueError, match=re.escape(f"point {z!r} is not finite")):
            evaluator(z, 1j)

    @given(
        re=st.floats(min_value=-0.5, max_value=0.5),
        shift=st.integers(min_value=-3, max_value=3),
        im=st.floats(min_value=0.05, max_value=50.0),
        coords=st.lists(
            st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 2), min_size=1, max_size=8
        ),
        eps=st.sampled_from([2e-16, 1e-12, 1e-6]),
    )
    # negative integer coordinates, where math.remainder gives -0.0 and
    # x - round(x) gives 0.0, on a modulus in the fundamental domain and
    # on two that the SL2(Z) reduction moves
    @example(re=0.2, shift=0, im=1.5, coords=[(-1.0, 0.3), (0.25, -1.0), (-2.0, -0.5), (-1.0, 0.5)],
             eps=2e-16)
    @example(re=0.3, shift=-2, im=0.2, coords=[(-1.0, 0.3), (0.25, -1.0), (-2.0, 0.5)], eps=1e-12)
    @example(re=0.45, shift=1, im=0.1, coords=[(-1.0, -0.5), (0.5, -2.0), (1.5, 0.5)], eps=2e-16)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_wps_equals_the_per_point_oracle_bit_for_bit(self, re, shift, im, coords, eps):
        tau = complex(re + shift, im)
        frame = _NomeFrame(tau)
        points, want = [], []
        for u, v in coords:
            try:
                want.append(wp_row_series(frame, u + v * tau, eps))
            except PoleAtLatticePoint:
                continue
            points.append(u + v * tau)
        assume(points)
        assert list(map(repr, frame.wps(points, eps))) == list(map(repr, want))

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            weierstrass_p(0.3 + 0.2j, 1.0 + 0j)
        with pytest.raises(ValueError):
            weierstrass_p(0.3 + 0.2j, -1j)
        with pytest.raises(DegenerateModulus):
            weierstrass_p(0.3 + 0.0001j, 0.001j)

    def test_derivative_matches_central_difference(self):
        tau = 2j
        z = 0.31 + 0.24 * tau
        h = 1e-5
        numeric = (weierstrass_p(z + h, tau) - weierstrass_p(z - h, tau)) / (2 * h)
        analytic = weierstrass_p_prime(z, tau)
        assert rel(numeric, analytic) < 1e-7

    @given(
        u=st.floats(min_value=0.12, max_value=0.38),
        v=st.floats(min_value=0.12, max_value=0.38),
        k=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_strategies_agree_property(self, u, v, k):
        tau = DEFAULT_TAUS[k]
        z = u + v * tau
        assert rel(weierstrass_p(z, tau), weierstrass_p_theta(z, tau)) < 1e-11


class TestModularReduction:
    """The nome-form kernel evaluates on the SL2(Z)-reduced lattice; the
    unreduced theta quotient is the cross-check."""

    @given(
        re=st.floats(min_value=-0.5, max_value=0.5),
        im=st.floats(min_value=0.05, max_value=0.9),
        u=st.floats(min_value=0.12, max_value=0.38),
        v=st.floats(min_value=0.12, max_value=0.38),
    )
    # the theta quotient is off the reference by 1.3e-11 here
    @example(re=0.0, im=0.052734375, u=0.125, v=0.25)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_inverted_moduli_agree_with_theta(self, re, im, u, v):
        tau = complex(re, im)
        assume(abs(tau) < 1)
        z = u + v * tau
        p = weierstrass_p(z, tau)
        assert rel(p, wp_reference(tau, z)) < WP_ERROR
        # below the floor of the stated domain the theta quotient's own
        # error grows past 1e-11, so it is an oracle only on the domain
        if im >= IM_TAU_DOMAIN[0]:
            assert rel(p, weierstrass_p_theta(z, tau)) < 1e-11
        h = 1e-5 * im  # wp varies on the scale of the short period
        numeric = (weierstrass_p(z + h, tau) - weierstrass_p(z - h, tau)) / (2 * h)
        assert rel(weierstrass_p_prime(z, tau), numeric) < 1e-6

    @given(
        re=st.floats(min_value=-50, max_value=50),
        im=st.floats(min_value=1e-3, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_reduction_lands_in_fundamental_domain(self, re, im):
        tau = complex(re, im)
        reduced, (a, b, c, d) = _modular_reduction(tau)
        assert all(isinstance(e, int) for e in (a, b, c, d))
        assert a * d - b * c == 1
        assert abs(reduced.real) <= 0.5
        assert abs(reduced) >= 1 - 1e-12
        assert rel((a * tau + b) / (c * tau + d), reduced) < 1e-9

    @pytest.mark.parametrize("tau", [0.1 + 0.3j, (1 + 3j) / 2, 0.02 + 0.01j, 0.1 + 4j])
    def test_translation_invariance(self, tau):
        z = 0.31 + 0.27 * tau
        p = weierstrass_p(z, tau)
        assert rel(weierstrass_p(z, tau + 1), p) < 1e-13
        assert rel(weierstrass_p(z, tau + 7), p) < 1e-13

    def test_small_imaginary_part_agrees_with_theta(self):
        # the unreduced row series needs ~1/Im tau rows and gave up here
        tau = 0.02 + 0.01j
        for u in GRID:
            z = u.real + u.imag * tau
            assert rel(weierstrass_p(z, tau), weierstrass_p_theta(z, tau)) < 1e-10

    def test_huge_reduced_modulus_is_degenerate(self):
        for fn in (weierstrass_p, weierstrass_p_prime):
            with pytest.raises(DegenerateModulus):
                fn(0.3 + 0.2j, 300j)

    def test_theta_translates_huge_real_part(self):
        # <1, 1e16 + i> = <1, i>; before the translation the theta nome
        # exp(i pi tau) lost its phase and theta returned -2.49-14.12i
        z = 0.3 + 0.2j
        p = weierstrass_p_theta(z, 1e16 + 1j)
        assert rel(p, weierstrass_p(z, 1e16 + 1j)) < 1e-13
        assert rel(p, weierstrass_p_theta(z, 1j)) < 1e-13

    def test_theta_translation_keeps_digits(self):
        # the two evaluators disagreed by about 5e-10 before the translation
        z, tau = 0.3 + 0.2j, 1e6 + 0.37j
        assert rel(weierstrass_p_theta(z, tau), weierstrass_p(z, tau)) < 1e-13

    def test_theta_tiny_imaginary_part_is_degenerate(self):
        # used to end in an untyped OverflowError from the point reduction
        tau = 1e300 + 1e-300j
        with pytest.raises(DegenerateModulus):
            weierstrass_p_theta(0.3 + 0.2j, tau)
        with pytest.raises(DegenerateModulus):
            evaluator_agreement(tau, Tolerance(samples=3))

    def test_non_finite_modulus_rejected(self):
        for tau in (complex(math.inf, 1), complex(math.nan, 1), complex(0, math.inf)):
            with pytest.raises(ValueError):
                weierstrass_p(0.3 + 0.2j, tau)


class TestLegendreParams:
    def test_square_lattice_regression_pin(self):
        params = legendre_params(1j)
        assert abs(params.a - SQUARE_LATTICE_A) < 1e-9
        assert abs(params.a.imag) < 1e-12

    def test_pin_reproduced_by_lattice_sum_oracle(self):
        # independent path: half-period values from the slow oracle, same
        # closed-form constraint solve, no shared evaluator code
        w1, _ = weierstrass_p_lattice_sum(0.5 + 0j, 1j, terms=60)
        w2, _ = weierstrass_p_lattice_sum(0.5j, 1j, terms=60)
        w3, _ = weierstrass_p_lattice_sum((1 + 1j) / 2, 1j, terms=60)
        disc = cmath.sqrt(2 * w1 * w1 + w2 * w3)
        best = None
        for sign in (1, -1):
            q = -w1 + sign * disc
            s = -2 * w1 - q
            a = (w2 + q) / (w2 + s)
            if best is None or abs(a) > abs(best):
                best = a
        assert abs(best - SQUARE_LATTICE_A) < 1e-2

    @pytest.mark.parametrize("tau", DEFAULT_TAUS)
    def test_b_squares_to_a(self, tau):
        params = legendre_params(tau)
        assert rel(params.b * params.b, params.a) < 1e-9

    @pytest.mark.parametrize("tau", DEFAULT_TAUS)
    def test_selection_takes_large_root(self, tau):
        assert abs(legendre_params(tau).a) >= 1

    @pytest.mark.parametrize("tau", DEFAULT_TAUS)
    def test_value_table(self, tau):
        params = legendre_params(tau)
        assert rel(legendre_value(params, 0j), 1) < 1e-12
        assert rel(legendre_value(params, 0.5 + 0j), -1) < 1e-10
        assert rel(legendre_value(params, tau / 2), params.a) < 1e-10
        assert rel(legendre_value(params, (1 + tau) / 2), -params.a) < 1e-10

    def test_deterministic(self):
        p1 = legendre_params((1 + 3j) / 2)
        p2 = legendre_params((1 + 3j) / 2)
        assert p1.a == p2.a and p1.b == p2.b and p1.mobius == p2.mobius

    def test_frame_is_not_part_of_the_value(self):
        p1, p2 = legendre_params(2j), legendre_params(2j)
        assert p1.frame is not p2.frame
        assert p1 == p2 and hash(p1) == hash(p2)
        assert "frame" not in repr(p1) and "Frame" not in repr(p1)

    def test_interleaved_moduli_match_separate_runs(self):
        # each EllipticParams owns its frame: using one modulus between the
        # steps of another, at another tolerance, changes no report
        tight, loose = Tolerance(eps=1e-12, samples=40, seed=4), Tolerance(samples=40)
        taus = (1j, 0.3 + 0.15j)
        alone = [
            verify_identities(legendre_params(t, tight), tol)
            for t in taus
            for tol in (tight, loose)
        ]
        pa = legendre_params(taus[0], tight)
        pb = legendre_params(taus[1], tight)
        mixed = [
            verify_identities(pb, loose),
            verify_identities(pa, tight),
            verify_identities(pb, tight),
            verify_identities(pa, loose),
        ]
        assert mixed == [alone[3], alone[0], alone[2], alone[1]]
        assert pa == legendre_params(taus[0], tight)
        assert pb == legendre_params(taus[1], tight)

    @pytest.mark.parametrize("tau", DEFAULT_TAUS + [0.3 + 0.2j, 1.2 + 1j])
    def test_mobius_sends_infinity_e1_e2_to_1_minus_1_a(self, tau):
        params = legendre_params(tau)
        q, s = params.mobius

        def mobius(w):
            return (w + q) / (w + s)

        assert rel(mobius(1e200 * params.e1), 1) < 1e-15
        assert rel(mobius(params.e1), -1) < 1e-12
        assert rel(mobius(params.e2), params.a) < 1e-12

    def test_half_period_fields(self):
        params = legendre_params(2j)
        assert rel(params.e1, weierstrass_p(0.5 + 0j, 2j)) < 1e-12
        assert rel(params.e2, weierstrass_p(1j, 2j)) < 1e-12
        assert rel(params.e3, weierstrass_p(0.5 + 1j, 2j)) < 1e-12

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre_params(1.0 + 0j)


class TestLegendreValues:
    def test_quarter_period_gives_b(self):
        for tau in DEFAULT_TAUS:
            params = legendre_params(tau)
            assert rel(legendre_value(params, tau / 4), params.b) < 1e-10

    def test_quarter_period_shift_flips_sign(self):
        for tau in DEFAULT_TAUS:
            params = legendre_params(tau)
            assert rel(legendre_value(params, tau / 4 + 0.5), -params.b) < 1e-10

    def test_lattice_point_limit_is_one(self):
        params = legendre_params(1j)
        assert legendre_value(params, 0j) == 1
        assert legendre_value(params, 3 + 2j) == 1

    def test_derivative_vanishes_at_half_period_only(self):
        params = legendre_params(1j)
        at_half = legendre_derivative(params, 0.5 + 0j)
        generic = legendre_derivative(params, 0.23 + 0.31j)
        assert abs(at_half) < 1e-9
        assert abs(generic) > 1e-3


class TestVerifyIdentities:
    @pytest.mark.parametrize("tau", DEFAULT_TAUS)
    def test_default_tolerance_passes(self, tau):
        tol = Tolerance()
        report = verify_identities(legendre_params(tau, tol), tol)
        assert report.ok
        assert report.samples == 100 and report.seed == 0
        for name in SAMPLED_IDENTITIES:
            assert report.residuals[name] < 1e-9

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    def test_residuals_scale_with_eps(self, eps):
        for tau in DEFAULT_TAUS:
            tol = Tolerance(eps=eps)
            report = verify_identities(legendre_params(tau, tol), tol)
            assert report.ok, report.failures

    def test_half_period_derivative_small(self):
        tol = Tolerance()
        report = verify_identities(legendre_params(2j, tol), tol)
        assert report.residuals["half_period_derivative"] < 1e-6

    def test_quadratic_constant_reported(self):
        tol = Tolerance()
        report = verify_identities(legendre_params(1j, tol), tol)
        assert report.residuals["quadratic_ratio_constancy"] < 1e-9
        assert abs(report.quadratic_constant) > 1e-6

    def test_report_is_reproducible(self):
        tol = Tolerance(samples=40)
        params = legendre_params((1 + 3j) / 2, tol)
        r1 = verify_identities(params, tol)
        r2 = verify_identities(params, tol)
        assert r1.residuals == r2.residuals
        assert r1.quadratic_constant == r2.quadratic_constant

    def test_evaluator_agreement_on_grid(self):
        for tau in DEFAULT_TAUS:
            assert evaluator_agreement(tau, Tolerance(samples=25)) < 1e-9


class TestSamplePoints:
    def test_count_and_margin(self):
        tau = 2j
        pts = sample_points(tau, Tolerance(samples=50))
        assert len(pts) == 50
        for z in pts:
            y = z.imag / tau.imag
            x = z.real - y * tau.real
            for t in (x, y):
                assert min(abs(t), abs(t - 0.5), abs(t - 1.0)) > 0.1

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**31 - 1])
    def test_same_points_as_the_rejection_oracle(self, seed):
        # 2 and 3 points stop after a few draws, 2000 read a long stream
        for tau, samples in ((2j, 2), (1j, 3), (2j, 50), (0.3 + 0.2j, 200), (1.2 + 1j, 2000)):
            tol = Tolerance(samples=samples, seed=seed)
            assert sample_points(tau, tol) == sample_points_rejection(tau, tol)

    def test_seed_controls_stream(self):
        tau = 1j
        a = sample_points(tau, Tolerance(seed=0, samples=20))
        b = sample_points(tau, Tolerance(seed=0, samples=20))
        c = sample_points(tau, Tolerance(seed=1, samples=20))
        assert a == b
        assert a != c


class TestInvariantPencilConstant:
    def test_product_of_three(self):
        taus = (1j, (1 + 3j) / 2, 2j)
        tol = Tolerance(samples=25)
        A = invariant_pencil_constant(taus, tol)
        expected = 1 + 0j
        for tau in taus:
            expected *= legendre_params(tau, tol).a
        assert rel(A, expected) < 1e-12

    def test_b_product_squares_to_constant(self):
        taus = (1j, 2j, (1 + 5j) / 3)
        tol = Tolerance(samples=25)
        A = invariant_pencil_constant(taus, tol)
        b = 1 + 0j
        for tau in taus:
            b *= legendre_params(tau, tol).b
        assert rel(b * b, A) < 1e-9

    def test_roots_match_pencil_parameters(self):
        taus = (1j, (1 + 3j) / 2, 2j)
        tol = Tolerance(samples=25)
        A = invariant_pencil_constant(taus, tol)
        b = 1 + 0j
        for tau in taus:
            b *= legendre_params(tau, tol).b
        roots = pencil_fixed_parameters(A)
        assert len(roots) == 2
        scale = max(1.0, abs(b))
        for root in roots:
            assert min(abs(root - b), abs(root + b)) < 1e-6 * scale

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            invariant_pencil_constant((1j, 2j), Tolerance())


class TestTolerance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(eps=0.0)
        with pytest.raises(ValueError):
            Tolerance(eps=-1e-9)
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match=str(eps)):
                Tolerance(eps=eps)
        for samples in (0, 1):
            # one ratio has spread 0: quadratic_ratio_constancy would pass
            with pytest.raises(ValueError, match="at least 2"):
                Tolerance(samples=samples)
        assert Tolerance(samples=2).samples == 2

    def test_series_eps_floor(self):
        assert Tolerance(eps=1e-6).series_eps == pytest.approx(1e-9)
        assert Tolerance(eps=1e-13).series_eps == 2e-16


# parameter a of 0.3+0.2i as the quadratic root selection ("larger |a|")
# reported it before the theta form; theta gives its inverse
ROOT_SELECTION_A_AT_0_3_0_2I = 1.775725463441813 - 0.6266841211160922j


class TestThetaForm:
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.2j, -0.45 + 0.12j, 0.37 + 7.5j, 2j])
    def test_translation_negates_a(self, tau):
        p0, p1 = legendre_params(tau), legendre_params(tau + 1)
        assert rel(p1.a, -p0.a) < 1e-13
        assert rel(p1.b, -1j * p0.b) < 1e-13
        assert rel(p1.e2, p0.e3) < 1e-12 and rel(p1.e3, p0.e2) < 1e-12
        assert rel(legendre_params(tau + 2).a, p0.a) < 1e-13

    def test_huge_real_part_is_translated(self):
        # <1, 1e16 + i> = <1, i>; the half periods of the untranslated
        # modulus round together at this size
        tol = Tolerance(eps=1e-12)
        params = legendre_params(1e16 + 1j, tol)
        assert params.a == legendre_params(1j).a
        assert verify_identities(params, tol).ok
        assert evaluator_agreement(params, tol) < 1e-12

    def test_convention_change_at_0_3_0_2i(self):
        a = legendre_params(0.3 + 0.2j).a
        assert rel(a, legendre_reference(0.3 + 0.2j)["a"]) < 1e-14
        assert rel(a * ROOT_SELECTION_A_AT_0_3_0_2I, 1) < 1e-12

    @pytest.mark.parametrize("tau", [0.05j, 0.5 + 0.01j, 0.0999j, 100.5j, 1e300 + 1e-300j])
    def test_outside_the_domain_is_typed(self, tau):
        with pytest.raises(OutsideDomain, match="outside the domain"):
            legendre_params(tau)
        assert issubclass(OutsideDomain, DegenerateModulus)

    @pytest.mark.parametrize("im", IM_TAU_DOMAIN)
    def test_domain_edges_pass(self, im):
        tol = Tolerance(eps=1e-12, samples=60, seed=3)
        params = legendre_params(complex(0.2, im), tol)
        assert verify_identities(params, tol).ok
        assert evaluator_agreement(params, tol) < 1e-12

    @pytest.mark.parametrize("tau", [6j, 8j, 10j])
    def test_large_a_moduli_pass(self, tau):
        tol = Tolerance(eps=1e-12)
        params = legendre_params(tau, tol)
        assert abs(params.a) > 1e7
        assert verify_identities(params, tol).ok
        assert evaluator_agreement(params, tol) < 1e-12

    @pytest.mark.parametrize("tau", DEFAULT_TAUS + [0.3 + 0.2j, 6j])
    def test_slope_matches_row_series_chain_rule(self, tau):
        params = legendre_params(tau)
        points = sample_points(tau, Tolerance(samples=10))
        for z, value, slope in zip(points, *params.frame.value_slopes(points)):
            assert rel(slope, legendre_derivative(params, z)) < 1e-9 * max(1.0, abs(value))

    def test_mobius_sends_e3_to_minus_a(self):
        for tau in DEFAULT_TAUS + [0.1j, 0.3 + 0.2j]:
            params = legendre_params(tau)
            q, s = params.mobius
            # M^-1(-a), M^-1(v) = (q - v s) / (v - 1)
            assert rel((q + params.a * s) / (-params.a - 1), params.e3) < 1e-12

    @pytest.mark.parametrize(
        "tau", [1.2 + 1j, 1.3 + 0.2j, 1.3 + 0.9j, -0.7 + 8j, 3.1 + 2j, 2.2 + 1j]
    )
    def test_wrong_e3_fails_half_period_values(self, monkeypatch, tau):
        # wp((1 + frame.tau)/2), the third value of legendre_params'
        # row-series call, off by 1e-4.  At odd round(Re tau) it is reported
        # as e2; the closed forms hold for the modulus as given at any k, so
        # the check sees it under either name
        original = _NomeFrame.wps

        def wps(self, points, eps):
            out = original(self, points, eps)
            if len(points) == 3 and points[0] == 0.5:
                out[2] *= 1 + 1e-4
            return out

        monkeypatch.setattr(_NomeFrame, "wps", wps)
        tol = Tolerance()
        report = verify_identities(legendre_params(tau, tol), tol)
        assert report.residuals["half_period_values"] > 1e-5
        assert any(f.startswith("half_period_values:") for f in report.failures)

    @pytest.mark.parametrize("tau", [*DEFAULT_TAUS, 8j, 20j])
    def test_wrong_slope_scale_fails_quadratic_constant(self, monkeypatch, tau):
        # the mutant slope = 2 pi i * null in place of 2 pi i / null scales
        # L' by null^2: L' still vanishes at the half periods and the ratio
        # stays constant, so only the value of the constant sees it.  At 8i
        # and 20i |C| is far below 1, where a residual relative to
        # max(1, |C|) would pass
        original = _LegendreFrame.__init__

        def init(self, tau):
            original(self, tau)
            self.slope *= self.null * self.null

        monkeypatch.setattr(_LegendreFrame, "__init__", init)
        tol = Tolerance()
        report = verify_identities(legendre_params(tau, tol), tol)
        assert report.residuals["quadratic_constant"] > 0.5
        assert [f.split(":")[0] for f in report.failures] == ["quadratic_constant"]

    @pytest.mark.parametrize(
        "tau", [0.02j, 0.05j, 0.1j, 0.01 + 0.1j, 0.12 + 0.1j, 0.3 + 0.2j, 2j]
    )
    def test_a_minus_1_keeps_its_digits(self, tau):
        # at 0.1i, a = 1 + 1.2e-6: b^2 - 1 keeps only 9 digits of a - 1,
        # and the cross-check at eps 1e-12 read 1.2e-12 when M was built
        # from it.  An inverted frame takes it as 4 b^ / (b^ - 1)^2, which
        # keeps its digits below the domain too, so 0.05i builds the frame
        # itself: legendre_params raises OutsideDomain there
        frame = _LegendreFrame(tau)
        want = legendre_reference(tau)["a_minus_1"]
        assert abs(frame.a_minus_1 - want) / abs(want) < 1e-14
        if tau.imag >= IM_TAU_DOMAIN[0]:
            assert evaluator_agreement(tau, Tolerance(eps=1e-12)) < 2e-13

    def test_broken_evenness_fails_half_period_derivative(self, monkeypatch):
        # a coefficient table that is not even (the coefficient of w^k
        # times exp(2 pi i k d), the same as evaluating at z + d) moves the
        # zeros of L' off the half periods
        shift = 1e-7
        original = _LegendreFrame.value_slopes

        def shifted(self, zs):
            return original(self, [z + shift for z in zs])

        monkeypatch.setattr(_LegendreFrame, "value_slopes", shifted)
        tol = Tolerance()
        report = verify_identities(legendre_params(1j, tol), tol)
        assert any(f.startswith("half_period_derivative") for f in report.failures)
        assert report.residuals["half_period_derivative"] > 1e-7

    def test_shifted_values_fail_the_sampled_identities(self, monkeypatch):
        # the value-only pass evaluating at z + d while value_slopes keeps z:
        # every sampled identity compares a value of that pass with L(z) or a
        shift = 1e-7
        original = _LegendreFrame.values
        monkeypatch.setattr(
            _LegendreFrame, "values", lambda self, zs: original(self, [z + shift for z in zs])
        )
        tol = Tolerance()
        for tau in (1j, 0.1j, 6j):
            report = verify_identities(legendre_params(tau, tol), tol)
            for name in SAMPLED_IDENTITIES:
                assert any(f.startswith(name + ":") for f in report.failures), (tau, name)

    def test_nan_values_fail_every_identity(self, monkeypatch):
        # NaN compares false with everything: `worst > eps` let a NaN
        # residual pass and max(worst, gap) dropped a NaN gap
        nan = complex(math.nan, math.nan)
        monkeypatch.setattr(_LegendreFrame, "values", lambda self, zs: [nan] * len(zs))
        tol = Tolerance()
        report = verify_identities(legendre_params(1j, tol), tol)
        assert not report.ok
        for name in SAMPLED_IDENTITIES:
            assert math.isnan(report.residuals[name])
            assert any(f.startswith(name + ":") for f in report.failures), name
        assert math.isnan(report.worst_residual)
        assert math.isnan(evaluator_agreement(1j, tol))
        with pytest.raises(IdentityFailure):
            invariant_pencil_constant((1j, 2j, 3j), tol)

    def test_nan_max_keeps_nan_anywhere(self):
        assert _nan_max([0.5, 2.0, 1.0]) == 2.0
        for residuals in ([math.nan, 1.0], [1.0, math.nan], [0.0, math.inf, math.nan]):
            assert math.isnan(_nan_max(residuals))
        assert _nan_max([1.0, math.inf]) == math.inf

    @given(
        re=st.floats(min_value=-0.5, max_value=0.5),
        shift=st.integers(min_value=-3, max_value=3),
        im=st.floats(min_value=IM_TAU_DOMAIN[0], max_value=IM_TAU_DOMAIN[1]),
        coords=st.lists(
            st.tuples(*[st.floats(min_value=-1.5, max_value=1.5)] * 2), min_size=1, max_size=8
        ),
    )
    # u + v tau on and across the edges u, v = +-1/2 of the central cell
    @example(re=0.0, shift=0, im=IM_TAU_DOMAIN[0], coords=[(0.5, 0.5), (-0.5, 1.25), (1.5, -0.5)])
    @example(re=0.5, shift=3, im=IM_TAU_DOMAIN[1], coords=[(0.5, -0.5), (0.7, 0.499), (-1.0, 1.5)])
    @example(re=-0.5, shift=-3, im=IM_TAU_DOMAIN[1], coords=[(-0.5, 0.5), (0.3, -1.5)])
    # one row (7i and 100i) and eight (0.1i): the last row is added apart
    @example(re=0.0, shift=0, im=7.0, coords=[(0.3, 0.2), (-0.45, 0.5), (0.0, 0.0)])
    @example(re=0.25, shift=1, im=100.0, coords=[(0.3, 0.2), (0.5, -0.45)])
    @example(re=0.0, shift=0, im=0.1, coords=[(0.3, 0.2), (-0.45, 0.5), (0.0, 0.0)])
    # inverted frames; 0.45+0.1i inverts twice
    @example(re=0.45, shift=0, im=0.1, coords=[(0.3, 0.2), (0.5, 0.0), (0.0, 0.5), (1.0, -1.0)])
    @example(re=-0.35, shift=2, im=0.15, coords=[(0.7, 0.45), (0.0, 0.0), (-1.5, 1.5)])
    @example(re=0.45, shift=-1, im=0.6, coords=[(0.25, 0.1), (0.5, 0.5), (0.0, 0.5)])
    # negative integer coordinates: the package's math.remainder reduces
    # them to -0.0, the oracle's x - round(x) to 0.0
    @example(re=0.0, shift=0, im=1.0, coords=[(-1.0, -1.0), (-2.0, 0.3), (0.25, -1.0), (-1.0, 0.0)])
    @example(re=0.3, shift=0, im=0.2, coords=[(-1.0, -1.0), (-1.0, 0.45), (0.1, -2.0)])
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_values_equal_value_slope_bit_for_bit(self, re, shift, im, coords):
        # the batched passes against the per-point loop over every row, by
        # repr, so that the sign of a zero counts too
        tau = complex(re + shift, im)
        frame = legendre_params(tau).frame
        points = [u + v * tau for u, v in coords]
        want = [value_slope(frame, z) for z in points]
        got_values, got_slopes = frame.value_slopes(points)
        assert list(map(repr, got_values)) == [repr(value) for value, _ in want]
        assert list(map(repr, got_slopes)) == [repr(slope) for _, slope in want]
        assert list(map(repr, frame.values(points))) == [repr(value) for value, _ in want]

    @pytest.mark.parametrize("tau", [(1 + 3j) / 2, 0.3 + 0.2j, 0.45 + 0.1j, 0.9j])
    def test_residuals_and_gap_equal_the_max_form(self, monkeypatch, tau):
        # direct, inverted once, inverted twice and at NEAR_TIE_POINTS: each
        # sample's residual of every sampled identity, and each sample's
        # evaluator gap on the side the branch rule picks, recomputed
        # from the oracles with max(1.0, |lhs|, |rhs|), bit for bit; the
        # per-sample lists are read where _nan_max takes them, so a sample
        # that is not the worst counts too
        tol = Tolerance(eps=1e-9, samples=50, seed=3)
        params = legendre_params(tau, tol)
        frame = params.frame
        t, a = frame.tau, frame.a
        points = sample_points(t, tol)
        near_tie = tau in NEAR_TIE_POINTS
        if near_tie:
            points = [u + v * t for u, v in NEAR_TIE_POINTS[tau]]
            monkeypatch.setattr(
                "surface_lab.legendre_numerics.sample_points", lambda tau, tol: points
            )
        base = [value_slope(frame, z)[0] for z in points]

        def column(shift):
            return [value_slope(frame, z + shift)[0] for z in points]

        def residuals(pairs):
            return [repr(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))) for lhs, rhs in pairs]

        want = [
            residuals(zip([value_slope(frame, -z)[0] for z in points], base)),
            residuals(zip(column(1), base)),
            residuals(zip(column(t), base)),
            residuals(zip(column(0.5), [-v for v in base])),
            residuals((h * v, a) for h, v in zip(column(t / 2), base)),
        ]
        q, s = params.mobius
        pairs = []
        for value, z in zip(base, points):
            wp = wp_row_series(params.rows, z, tol.series_eps)
            lhs = abs(q - s) * max(1.0, abs(value))
            rhs = abs(value - 1) ** 2 * max(1.0, abs(wp))
            assert not near_tie or (abs(wp) < 1.5 and rhs / 1.5 < lhs < 1.5 * rhs)
            if lhs <= rhs:
                pairs.append((wp, (q - value * s) / (value - 1)))
            else:
                pairs.append((value, (wp + q) / (wp + s)))
        gaps = residuals(pairs)

        taken = []

        def recorded(worst):
            taken.append(list(map(repr, worst)))
            return _nan_max(worst)

        monkeypatch.setattr("surface_lab.legendre_numerics._nan_max", recorded)
        report = verify_identities(params, tol)
        assert taken[:5] == want
        assert [repr(report.residuals[name]) for name in SAMPLED_IDENTITIES] == [
            repr(max(map(float, column))) for column in want
        ]
        assert repr(evaluator_agreement(tau, tol)) == repr(max(map(float, gaps)))
        assert repr(evaluator_agreement(params, tol)) == repr(max(map(float, gaps)))
        assert taken[-2:] == [gaps, gaps]

    def test_every_value_is_a_fresh_evaluation(self, monkeypatch):
        # no identity is evaluated through its own shift rule: per sample
        # the base point and its five shifts, plus the four half periods
        tol = Tolerance(samples=37)
        params = legendre_params(0.3 + 1.2j, tol)
        points: Counter = Counter()
        batches = []
        value_slopes, values = _LegendreFrame.value_slopes, _LegendreFrame.values

        def counted_value_slopes(self, zs):
            points["value_slopes"] += len(zs)
            batches.append(len(zs))
            return value_slopes(self, zs)

        def counted_values(self, zs):
            points["values"] += len(zs)
            return values(self, zs)

        monkeypatch.setattr(_LegendreFrame, "value_slopes", counted_value_slopes)
        monkeypatch.setattr(_LegendreFrame, "values", counted_values)
        verify_identities(params, tol)
        assert points == {"value_slopes": tol.samples + 4, "values": 5 * tol.samples}
        assert sum(points.values()) == 6 * tol.samples + 4
        # one value-and-slope pass for the samples, one for the half periods
        assert batches == [tol.samples, 4]
        # the cross-check reads the values verify_identities left in the
        # sample table; on fresh parameters it evaluates the points itself
        points.clear()
        evaluator_agreement(params, tol)
        assert points == {}
        fresh = legendre_params(0.3 + 1.2j, tol)
        points.clear()
        evaluator_agreement(fresh, tol)
        assert points == {"values": tol.samples}

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.2j, 1.2 + 1j, 8j])
    def test_sample_table_changes_no_number(self, tau):
        tol = Tolerance(samples=30, seed=5)
        cold = evaluator_agreement(tau, tol)
        params = legendre_params(tau, tol)
        verify_identities(params, tol)
        assert params.frame.sampled(tol) is not None
        assert repr(evaluator_agreement(params, tol)) == repr(cold)
        taus = (tau, 2j, (1 + 5j) / 3)
        alone = invariant_pencil_constant(taus, tol)
        shared = [legendre_params(t, tol) for t in taus]
        for p in shared:
            verify_identities(p, tol)
        # the pencil reads the first modulus's table; the second modulus
        # takes the next seed, so it builds its own points
        next_seed = Tolerance(tol.eps, tol.samples, tol.seed + 1)
        assert shared[1].frame.sampled(next_seed) is None
        hit = _half_shift_table(shared[0].frame, tol)
        miss = _half_shift_table(legendre_params(tau, tol).frame, tol)
        assert [list(map(repr, part)) for part in hit] == [list(map(repr, part)) for part in miss]
        assert repr(invariant_pencil_constant(tuple(shared), tol)) == repr(alone)

    def test_other_seed_or_count_misses_the_sample_table(self, monkeypatch):
        tol = Tolerance(samples=20, seed=3)
        params = legendre_params(0.3 + 1.2j, tol)
        assert params.frame.sampled(tol) is None
        verify_identities(params, tol)
        points, values, half = params.frame.sampled(tol)
        assert list(points) == sample_points(params.frame.tau, tol)
        assert list(values) == params.frame.values(points)
        assert list(half) == params.frame.values([z + params.frame.tau / 2 for z in points])
        calls = Counter()
        draw = sample_points

        def counted(tau, t):
            calls[t.seed, t.samples] += 1
            return draw(tau, t)

        monkeypatch.setattr("surface_lab.legendre_numerics.sample_points", counted)
        evaluator_agreement(params, tol)
        assert calls == {}
        for other in (Tolerance(samples=20, seed=4), Tolerance(samples=21, seed=3)):
            assert params.frame.sampled(other) is None
            evaluator_agreement(params, other)
        assert calls == {(4, 20): 1, (3, 21): 1}

    def test_wrong_a_fails_the_cross_check(self, monkeypatch):
        # M built from a slightly wrong a - 1 no longer carries the
        # row-series wp onto theta L
        original = _LegendreFrame.__init__

        def init(self, tau):
            original(self, tau)
            self.a_minus_1 *= 1 + 1e-5

        monkeypatch.setattr(_LegendreFrame, "__init__", init)
        for tau in (2j, 0.1j, 0.3 + 0.2j):
            assert evaluator_agreement(tau, Tolerance()) > 1e-9

    @pytest.mark.parametrize("tau", [6j, 12j, 20j, 100j, 0.45 + 0.12j])
    def test_scaled_a_fails_half_period_values(self, monkeypatch, tau):
        # a scaled by 1 + 1e-5 moves the closed-form half periods by 2e-5 to
        # 3e-5 relative from Im tau = 1 up.  At 0.45+0.12i, where |a| = 0.015,
        # they move by only 9.7e-7; quadratic_ratio_constancy (1.2e-5) and
        # quadratic_constant (4.4e-6) read it more strongly there
        original = _LegendreFrame.__init__

        def init(self, tau):
            original(self, tau)
            self.a *= 1 + 1e-5

        monkeypatch.setattr(_LegendreFrame, "__init__", init)
        tol = Tolerance()
        report = verify_identities(legendre_params(tau, tol), tol)
        assert report.residuals["half_period_values"] > 5e-7
        assert "half_period_values" in [f.split(":")[0] for f in report.failures]

    @pytest.mark.parametrize("tau", [2j, 6j, 12j, 20j, 50j])
    def test_scaled_a_minus_1_fails_half_period_values(self, monkeypatch, tau):
        # a - 1 feeds only the closed-form M, and the evaluator gap reads a
        # scale of 1 + 1e-5 only as 3.9e-10 at 20i and 2.9e-16 at 50i;
        # half_period_values judges it against a - 1 at every modulus
        original = _LegendreFrame.__init__

        def init(self, tau):
            original(self, tau)
            self.a_minus_1 *= 1 + 1e-5

        monkeypatch.setattr(_LegendreFrame, "__init__", init)
        tol = Tolerance()
        report = verify_identities(legendre_params(tau, tol), tol)
        assert report.residuals["half_period_values"] > 5e-6
        assert [f.split(":")[0] for f in report.failures] == ["half_period_values"]


# worst errors against tests/reference.py, measured over ~2700 random
# moduli of the domain (Im tau log-uniform in [0.1, 100] and at both
# edges, Re tau in [-3.5, 3.5], points anywhere in the half cell
# 0 <= v <= 1/2 outside a box of half-width 0.05 around each pole of L,
# half periods included): 4.0e-14 for a (at Im tau > 75, where the
# exponent of exp(i pi tau / 2) carries ~1e-14 of rounding), 4.7e-14 for L
# (relative to max(1, |L|)) and L' (relative to max(1, |L'|, |L|), the
# scale of its rounding: at a half period L' vanishes while L = a), and
# 7.5e-14 for wp by the row series near Im tau = 0.1.  Closer to a pole the
# error of L grows like 1/distance: 1.5e-13 for L and 3.0e-13 for L' at
# distance 0.01 and Im tau = 0.105.  wp' by the row series (relative to
# max(1, |wp'|)), over ~9000 moduli of the same kind with points of the
# half cell outside a box of half-width 0.05 around the lattice points 0
# and 1, two thirds of them at Im tau < 0.2: worst 3.6e-13 at
# tau = 3.354+0.107i, z = 0.918 + 0.316 tau; the error is largest at the
# lower edge and grows with |Re tau|.  The bounds leave a factor of 2.5-3.
A_ERROR = 1e-13
L_ERROR = 1.5e-13
WP_ERROR = 2e-13
WP_PRIME_ERROR = 1e-12


class TestReference:
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.2j, 2j, 0.1 + 0.1j])
    def test_reference_matches_jtheta(self, tau):
        # where mpmath.jtheta is reliable (moderate Im tau and Im v) the
        # reference sums are the DLMF thetas; |Re tau| < 1 keeps jtheta's
        # principal q^(1/4) on the reference's branch
        with mp.workdps(45):
            t = mp.mpc(tau.real, tau.imag)
            nome = mp.exp(1j * mp.pi * t)
            for v in (mp.mpc(0.3, 0.2), mp.mpc(0), mp.mpc(1.1, -0.3)):
                for kind in (1, 2, 3, 4):
                    for d in (0, 1):
                        want = mp.jtheta(kind, v, nome, d)
                        error = abs(theta(kind, v, t, d) - want) / max(1, abs(want))
                        assert error < mp.mpf(10) ** -40

    @pytest.mark.parametrize("tau", [0.02j, 0.03 + 0.02j, 0.05j])
    def test_reference_a_minus_1_keeps_its_digits(self, tau):
        # b * b - 1 cancels as a tends to 1 (33 digits at 0.02i): the
        # reference must add them, or it blames the package for its own
        # rounding (6.5e-11 relative at 0.02i with 42 digits)
        with mp.workdps(120):
            t = 2 * mp.mpc(tau.real, tau.imag)
            b = theta(3, 0, t) / theta(2, 0, t)
            want = complex(b * b - 1)
        got = legendre_reference(tau)["a_minus_1"]
        assert abs(got - want) / abs(want) < 1e-15

    @given(
        re=st.floats(min_value=-0.5, max_value=0.5),
        shift=st.integers(min_value=-3, max_value=3),
        im=st.floats(min_value=IM_TAU_DOMAIN[0], max_value=IM_TAU_DOMAIN[1]),
        u=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=0.5),
    )
    @example(re=0.0, shift=0, im=IM_TAU_DOMAIN[0], u=0.3, v=0.2)
    @example(re=0.5, shift=1, im=IM_TAU_DOMAIN[0], u=0.7, v=0.45)
    @example(re=-0.3, shift=0, im=IM_TAU_DOMAIN[1], u=0.1, v=0.4)
    @example(re=0.5, shift=-2, im=IM_TAU_DOMAIN[1], u=0.6, v=0.5)
    @example(re=0.0, shift=0, im=2.0, u=0.0, v=0.5)  # L' = 0 where L = a
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_error_of_a_l_and_slope(self, re, shift, im, u, v):
        # off the poles of L at 1/4 + tau/2 and 3/4 + tau/2
        assume(abs(v - 0.5) > 0.05 or min(abs(u - 0.25), abs(u - 0.75)) > 0.05)
        tau = complex(re + shift, im)
        z = u + v * tau
        params = legendre_params(tau)
        ref = legendre_reference(tau, z)
        [value], [slope] = params.frame.value_slopes([z])
        assert abs(params.a - ref["a"]) / abs(ref["a"]) < A_ERROR
        assert abs(params.b - ref["b"]) / abs(ref["b"]) < A_ERROR
        assert abs(value - ref["L"]) / max(1.0, abs(ref["L"])) < L_ERROR
        assert abs(slope - ref["dL"]) / max(1.0, abs(ref["dL"]), abs(ref["L"])) < L_ERROR

    @pytest.mark.parametrize(
        "tau",
        [*DEFAULT_TAUS, 0.3 + 0.2j, 1.3 + 0.9j, 0.1j, 0.45 + 0.12j, 6j, 12j, 20j, 100j, -2.6 + 0.7j],
    )
    def test_error_of_the_closed_forms(self, tau):
        # C = (2 pi)^2 theta2(0 | 2 tau)^4 carries a's error, the rounding
        # in the exponent of exp(i pi tau / 2): worst 6.9e-14 relative at
        # Im tau = 88.6 over 300 random moduli of the domain (Im tau
        # log-uniform, Re tau in [-3.5, 3.5]), hence A_ERROR.  In the half
        # periods C a^2 cancels that error: worst 2.5e-15 over the same
        # moduli and 1.4e-15 here (at 0.1i), relative to max(1, |e|); the
        # bound leaves a factor of 4
        params = legendre_params(tau)
        C, a = params.frame.C, params.a
        want = legendre_reference(tau)["C"]
        assert abs(C - want) / abs(want) < A_ERROR
        forms = (C * (a * a + 1) / 6, -C * (a * a + 6 * a + 1) / 12, -C * (a * a - 6 * a + 1) / 12)
        for form, z in zip(forms, (0.5, tau / 2, (1 + tau) / 2)):
            assert rel(form, wp_reference(tau, z)) < 1e-14

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.2j, 2.2 + 5j])
    def test_wp_prime_reference_is_the_derivative(self, tau):
        # a central difference of the wp reference, good to ~1e-8 relative
        # with h = 1e-5 on double-rounded values
        h = 1e-5
        for z in (0.21 + 0.37 * tau, 0.5 + 0.1 * tau, 0.1 + 0.45 * tau):
            numeric = (wp_reference(tau, z + h) - wp_reference(tau, z - h)) / (2 * h)
            assert rel(wp_prime_reference(tau, z), numeric) < 1e-7

    @pytest.mark.parametrize("tau", [0.1j, 0.45 + 0.1j, 1j, 0.3 + 0.2j, 2.2 + 5j, 20j])
    def test_error_of_wp(self, tau):
        for z in sample_points(tau, Tolerance(samples=4)):
            assert rel(weierstrass_p(z, tau), wp_reference(tau, z)) < WP_ERROR

    @given(
        re=st.floats(min_value=-0.5, max_value=0.5),
        shift=st.integers(min_value=-3, max_value=3),
        im=st.floats(min_value=IM_TAU_DOMAIN[0], max_value=IM_TAU_DOMAIN[1]),
        u=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=0.5),
    )
    @example(re=0.354, shift=3, im=0.1066, u=0.918, v=0.316)  # worst measured
    @example(re=0.0, shift=0, im=IM_TAU_DOMAIN[0], u=0.3, v=0.2)
    @example(re=0.5, shift=-2, im=IM_TAU_DOMAIN[1], u=0.6, v=0.5)
    @example(re=0.0, shift=0, im=2.0, u=0.5, v=0.5)  # wp' = 0 at a half period
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_error_of_wp_prime(self, re, shift, im, u, v):
        # off the lattice points 0 and 1 of the half cell
        assume(v > 0.05 or min(u, 1 - u) > 0.05)
        tau = complex(re + shift, im)
        z = u + v * tau
        assert rel(weierstrass_p_prime(z, tau), wp_prime_reference(tau, z)) < WP_PRIME_ERROR

    def test_row_series_translates_before_reducing(self):
        # the worst example above, held ten times tighter: the row series
        # reduces tau - 3, so that j = c tau + d is formed without cancellation
        tau = complex(0.354 + 3, 0.1066)
        z = 0.918 + 0.316 * tau
        assert rel(weierstrass_p_prime(z, tau), wp_prime_reference(tau, z)) < 1e-13
        assert rel(weierstrass_p(z, tau), wp_reference(tau, z)) < 1e-13


# moduli of |tau| < 1 near the lower edge, where the frame inverts
INVERTED_TAUS = [
    0.1j, 0.02 + 0.1j, 0.1 + 0.1j, 0.25 + 0.1j, 0.45 + 0.1j,
    -0.35 + 0.15j, 0.3 + 0.2j, 0.1 + 0.3j, 0.2 + 0.4j, 0.45 + 0.6j,
]


class TestInvertedFrame:
    """L of a small modulus through Jacobi's imaginary transformation:
    L(z) = b (b^ - L^(z/tau)) / (b^ + L^(z/tau)) with L^ and b^ of -1/tau."""

    @pytest.mark.parametrize("tau", INVERTED_TAUS)
    def test_l_and_slope_match_the_reference(self, tau):
        frame = legendre_params(tau).frame
        assert frame.inner is not None
        points = sample_points(tau, Tolerance(samples=6)) + [0j, 0.5 + 0j, tau / 2]
        for z, value, slope in zip(points, *frame.value_slopes(points)):
            ref = legendre_reference(tau, z)
            assert abs(value - ref["L"]) / max(1.0, abs(ref["L"])) < L_ERROR
            assert abs(slope - ref["dL"]) / max(1.0, abs(ref["dL"]), abs(ref["L"])) < L_ERROR

    @given(
        re=st.floats(min_value=-0.5, max_value=0.5),
        im=st.floats(min_value=IM_TAU_DOMAIN[0], max_value=1.0),
    )
    @example(re=0.45, im=0.1)  # inverts twice
    @example(re=0.5, im=0.1)
    @example(re=-0.5, im=0.1)
    @example(re=0.0, im=0.1)
    @example(re=0.5, im=math.sqrt(3) / 2)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_innermost_table_is_short(self, re, im):
        # from |tau| = 1 up no frame inverts, and Im tau >= sqrt(3)/2 there
        # on |Re tau| <= 1/2 keeps the table at three rows or fewer
        frame, depth = _LegendreFrame(complex(re, im)), 0
        while frame.inner is not None:
            frame, depth = frame.inner, depth + 1
        assert depth <= 2
        assert len(frame.terms) <= 3

    def test_wrong_sign_of_b_hat_fails_half_period_values(self, monkeypatch):
        # -1/tau of 0.45+0.6i translates by k^ = -1, so (-i)^-k^ in place
        # of (-i)^k^ negates b^.  Every sampled identity still holds; a - 1
        # = 4 b^ / (b^ - 1)^2 no longer equals the b^2 - 1 of the frame's
        # own table
        tau = 0.45 + 0.6j
        right = legendre_params(tau).frame.b_hat
        monkeypatch.setattr("surface_lab.legendre_numerics._b_shift",
                            lambda k: (1, -1j, -1, 1j)[-k % 4])
        tol = Tolerance()
        params = legendre_params(tau, tol)
        assert params.frame.b_hat == -right
        report = verify_identities(params, tol)
        assert [f.split(":")[0] for f in report.failures] == ["half_period_values"]
        assert report.residuals["half_period_values"] > 1.0

    def test_default_moduli_do_not_invert(self):
        for tau in DEFAULT_TAUS:
            assert legendre_params(tau).frame.inner is None

    @pytest.mark.parametrize("tau", [0.1j, 0.01 + 0.1j])
    def test_lower_edge_has_no_false_fails(self, tau):
        # the direct 8-row table read quadratic_ratio_constancy up to
        # 1.211e-12 here, 5 false fails over these 40 runs
        for seed in range(20):
            tol = Tolerance(eps=1e-12, samples=200, seed=seed)
            params = legendre_params(tau, tol)
            report = verify_identities(params, tol)
            assert report.ok, (seed, report.failures)
            assert evaluator_agreement(params, tol) <= tol.eps, seed
