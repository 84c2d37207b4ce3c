"""Floating-point verification of the elliptic-function identities behind
the invariant hypersurface equations.

The Legendre function of a modulus tau is built, not transcribed: it is
the Moebius transform L = M . wp of the Weierstrass function fixed by the
value table

    L(0) = 1,  L(1/2) = -1,  L(tau/2) = a,  L((1+tau)/2) = -a,

which pins M up to the two-fold ambiguity a <-> 1/a (swapping the curve
parameter); a deterministic selection rule makes reports reproducible.

wp itself is evaluated two independent ways: a row series in nome form on
the modular-reduced lattice, and a theta-function quotient on the lattice
translated to |Re tau| <= 1/2 (exact, since 1 is a period; it keeps the
phase of the theta nome at any Re tau) but not inverted, so their agreement
also checks the modular inversion.  A truncated lattice sum with an
explicit tail bound, weierstrass_p_lattice_sum in tests/oracles.py, serves
the tests as a third, slow oracle.

Each evaluator keeps what depends on tau alone in a per-modulus frame, built
once: the reduction, the nome and a row table extended on demand for the
row series (_NomeFrame, which EllipticParams carries, so L and L' of a
modulus share it); the translated nome, theta nulls, wp(tau/2) and the
signed theta coefficients for the quotient (_ThetaFrame).  The frames do
the same float operations in the same order as a per-point evaluation, so
results are bit-identical; nothing is kept beyond a call or an
EllipticParams.

The row series (DLMF 23.8) first moves tau by SL2(Z) into the fundamental
domain |Re tau'| <= 1/2, |tau'| >= 1 (DLMF 23.18): with j = c tau + d,
wp(z; tau) = j^-2 wp(z/j; tau') and wp'(z; tau) = j^-3 wp'(z/j; tau').  There
the nome q = exp(2 pi i tau') has |q| <= exp(-pi sqrt 3), and each row is
rational in q^n t and q^n / t with t = exp(2 pi i z/j), so about seven rows
reach 1e-16 whatever the modulus.  Domain: every finite tau with
Im tau > 0 whose reduced Im tau' is at most 700/pi (about 223), where t,
1/t and the n = 0 term stay inside the float range; beyond it (tau = 0.001i
reduces to 1000i) the evaluators raise DegenerateModulus.

Conventions: lattice <1, tau> with Im tau > 0; half-period values are
e1 = wp(1/2), e2 = wp(tau/2), e3 = wp((1+tau)/2); theta nome q = exp(i pi tau);
theta series in the sin-like convention theta1(v) =
2 sum (-1)^n q^((n+1/2)^2) sin((2n+1)v), so theta1'(0) =
theta2(0) theta3(0) theta4(0).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

PI = math.pi


class PoleAtLatticePoint(Exception):
    """wp was requested at (numerically) a lattice point."""


class DegenerateModulus(Exception):
    """The modulus makes a series or constraint system unusable."""


class IdentityFailure(Exception):
    """A functional identity exceeded the requested tolerance."""


@dataclass(frozen=True)
class Tolerance:
    eps: float = 1e-9
    samples: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")
        if self.samples <= 0:
            raise ValueError("need at least one sample")

    @property
    def series_eps(self) -> float:
        """Series truncation threshold, three digits under the target."""
        return max(self.eps * 1e-3, 2e-16)


@dataclass(frozen=True)
class EllipticParams:
    """Everything the identity checks need about one modulus."""

    tau: complex
    e1: complex  # wp(1/2)
    e2: complex  # wp(tau/2)
    e3: complex  # wp((1+tau)/2)
    mobius: tuple[complex, complex, complex, complex]  # (p, q, r, s)
    a: complex
    b: complex
    # the row-series frame of tau that built e1, e2, e3, reused by every
    # evaluation of L and L'; it lives and dies with these parameters
    frame: _NomeFrame = field(compare=False, repr=False)


def _check_tau(tau: complex) -> None:
    if not tau.imag > 0:
        raise ValueError("modulus must have positive imaginary part")
    if not cmath.isfinite(tau):
        raise ValueError(f"modulus must be finite, got {tau!r}")


def _reduce(z: complex, tau: complex) -> tuple[float, float]:
    """Coordinates (x, y) in [-1/2, 1/2) with z = x + y tau mod lattice."""
    y = z.imag / tau.imag
    x = z.real - y * tau.real
    return x - round(x), y - round(y)


def _modular_reduction(tau: complex) -> tuple[complex, tuple[int, int, int, int]]:
    """(tau', (a, b, c, d)) with ad - bc = 1, tau' = (a tau + b)/(c tau + d)
    and tau' in the fundamental domain |Re tau'| <= 1/2, |tau'| >= 1.

    Translations and inversions are applied until the modulus stops moving;
    the lattice <1, tau> equals (c tau + d) <1, tau'>.
    """
    _check_tau(tau)
    a, b, c, d = 1, 0, 0, 1
    w = tau
    while True:
        k = round(w.real)
        if k:
            w -= k
            a, b = a - k * c, b - k * d
        # the slack stops a modulus on the unit circle from being
        # inverted back and forth by rounding
        if abs(w) >= 1 - 1e-15:
            return w, (a, b, c, d)
        w = -1 / w
        a, b, c, d = -c, -d, a, b


# exp(pi * _IM_TAU_MAX) = 1e304: t = exp(2 pi i z'), 1/t and sin(pi z')^2
# stay finite for every reduced z'
_IM_TAU_MAX = 700 / PI
_PI2 = PI * PI
_M4PI2 = -4 * _PI2
_PI3 = _PI2 * PI
_MAX_ROWS = 400


class _NomeFrame:
    """The row series of one modulus: everything about tau that does not
    depend on the point, built once.

    tau is reduced by SL2(Z) to tau' with j = c tau + d, so that
    wp(z; tau) = j^-2 wp(z/j; tau') and wp'(z; tau) = j^-3 wp'(z/j; tau').
    rows holds (q^n, 2 q^n / (1 - q^n)^2) for n = 1, 2, ... with
    q = exp(2 pi i tau'), q^n as running products; a series that needs one
    more row extends it, so every series stops at the row it would stop at
    alone.
    """

    __slots__ = ("tau_r", "j", "j2", "j3", "abs_j2", "abs_j3", "q", "rows")

    def __init__(self, tau: complex) -> None:
        tau_r, (_, _, c, d) = _modular_reduction(tau)
        if tau_r.imag > _IM_TAU_MAX:
            raise DegenerateModulus(
                f"reduced modulus {tau_r} has Im > {_IM_TAU_MAX:.1f}; "
                "its nome form leaves the float range"
            )
        j = c * tau + d
        self.tau_r, self.j = tau_r, j
        self.j2 = j * j
        self.j3 = self.j2 * j
        self.abs_j2, self.abs_j3 = abs(j) ** 2, abs(j) ** 3
        self.q = q = cmath.exp(2j * PI * tau_r)
        mq = 1 - q
        self.rows = ((q, 2 * q / (mq * mq)),)

    def _more_rows(self, rows: tuple) -> tuple[tuple[complex, complex], ...]:
        """rows and one more row, kept as the frame's table.  Extending the
        caller's own table, not self.rows, keeps this right when two threads
        grow one frame: every table stored is a prefix of the same series."""
        qn = rows[-1][0] * self.q
        mq = 1 - qn
        self.rows = rows = rows + ((qn, 2 * qn / (mq * mq)),)
        return rows

    def _point(self, z: complex) -> tuple[complex, complex]:
        """(z', t): z / j reduced to the central cell of <1, tau'> and
        t = exp(2 pi i z')."""
        x, y = _reduce(z / self.j, self.tau_r)
        if max(abs(x), abs(y)) < 1e-12:
            raise PoleAtLatticePoint(f"{z} reduces to a lattice point")
        zr = x + y * self.tau_r
        return zr, cmath.exp(2j * PI * zr)

    def wp(self, z: complex, eps: float) -> complex:
        """Row n of the cosecant series, pi^2 (csc^2 pi(z + n tau) +
        csc^2 pi(z - n tau) - 2 csc^2 pi n tau), is -4 pi^2 times
        u/(1-u)^2 + v/(1-v)^2 - 2 q^n/(1-q^n)^2 with u = q^n t, v = q^n / t.
        As |q| <= exp(-pi sqrt 3), rows decay by a factor of at least 230;
        rows are added until one is below eps |j|^2, which keeps the
        truncation error of the returned j^-2 wp(z') below eps."""
        zr, t = self._point(z)
        s = cmath.sin(PI * zr)
        total = _PI2 / (s * s) - _PI2 / 3
        it = 1 / t
        tol = eps * self.abs_j2
        rows = self.rows
        for n in range(_MAX_ROWS):
            if n == len(rows):
                rows = self._more_rows(rows)
            qn, const = rows[n]
            u, v = qn * t, qn * it
            mu, mv = 1 - u, 1 - v
            term = _M4PI2 * (v / (mv * mv) + u / (mu * mu) - const)
            total += term
            if abs(term) < tol:
                return total / self.j2
        raise DegenerateModulus("row series did not converge")

    def wp_prime(self, z: complex, eps: float) -> complex:
        """The termwise derivative of the rows of wp, stopped below
        eps |j|^3."""
        zr, t = self._point(z)
        s = cmath.sin(PI * zr)
        total = -2 * _PI3 * (cmath.cos(PI * zr) / s) / (s * s)
        it = 1 / t
        tol = eps * self.abs_j3
        rows = self.rows
        for n in range(_MAX_ROWS):
            if n == len(rows):
                rows = self._more_rows(rows)
            qn = rows[n][0]
            u, v = qn * t, qn * it
            mu, mv = 1 - u, 1 - v
            term = 8j * _PI3 * (v * (1 + v) / (mv * mv * mv) - u * (1 + u) / (mu * mu * mu))
            total += term
            if abs(term) < tol:
                return total / self.j3
        raise DegenerateModulus("derivative series did not converge")


def weierstrass_p(z: complex, tau: complex, *, eps: float = 1e-14) -> complex:
    """wp(z; 1, tau) by the row series in nome form on the reduced lattice."""
    return _NomeFrame(tau).wp(z, eps)


def weierstrass_p_prime(z: complex, tau: complex, *, eps: float = 1e-14) -> complex:
    """wp'(z) by the termwise derivative of the nome-form rows of
    weierstrass_p, on the same reduced lattice: wp'(z; tau) = j^-3 wp'(z')."""
    return _NomeFrame(tau).wp_prime(z, eps)


_MAX_THETA_TERMS = 60


def _theta_powers(q: complex):
    """q^((n+1/2)^2) and q^((n+1)^2) for n = 0, 1, ... as running products
    from q^(1/4) and q: (n+3/2)^2 - (n+1/2)^2 = 2n + 2 and (n+2)^2 -
    (n+1)^2 = 2n + 3, so the principal branch of q^(1/4) carries through and
    no complex power with a float exponent is taken per term."""
    half, full, q2 = q**0.25, q, q * q
    step = q2  # q^(2n+2)
    while True:
        yield half, full
        half *= step
        full *= step * q
        step *= q2


class _ThetaFrame:
    """The theta quotient wp(z) - wp(tau/2) =
    (pi theta2(0) theta3(0) theta4(pi z) / theta1(pi z))^2 of one modulus
    and series threshold eps, with the point-free parts built once.

    tau is first moved by the translation tau -> tau - round(Re tau), which
    is exact because 1 is a period; it keeps the phase of the theta nome
    q = exp(i pi tau) for any Re tau.  terms holds the signed coefficients
    2 (-1)^n q^((n+1/2)^2) of theta1 and 2 (-1)^(n+1) q^((n+1)^2) of
    theta4, extended on demand.  A theta frame lives inside one call.
    """

    __slots__ = ("tau", "eps", "e_half", "scale", "terms", "_powers")

    def __init__(self, tau: complex, eps: float) -> None:
        _check_tau(tau)
        self.tau = tau = tau - round(tau.real)
        self.eps = eps
        self.terms: list[tuple[complex, complex]] = []
        self._powers = _theta_powers(cmath.exp(1j * PI * tau))
        t2 = t3 = 0j
        for n in range(_MAX_THETA_TERMS):
            half, full = self._more_terms()
            t2 += 2 * half
            t3 += 2 * full
            if abs(half) < eps and abs(full) < eps and n > 1:
                break
        else:
            raise DegenerateModulus("theta series did not converge")
        t3 = 1 + t3
        self.e_half = -(PI * PI) * (t2**4 + t3**4) / 3  # wp(tau/2), translated tau
        self.scale = PI * t2 * t3

    def _more_terms(self) -> tuple[complex, complex]:
        """Append term n = len(terms); return (q^((n+1/2)^2), q^((n+1)^2))."""
        n = len(self.terms)
        half, full = next(self._powers)
        self.terms.append((2 * ((-1) ** n) * half, 2 * ((-1) ** (n + 1)) * full))
        return half, full

    def wp(self, z: complex) -> complex:
        tau, eps, terms = self.tau, self.eps, self.terms
        x, y = _reduce(z, tau)
        if max(abs(x), abs(y)) < 1e-12:
            raise PoleAtLatticePoint(f"{z} reduces to a lattice point")
        v = PI * (x + y * tau)
        t1 = t4 = 0j
        for n in range(_MAX_THETA_TERMS):
            if n == len(terms):
                self._more_terms()
            c1, c4 = terms[n]
            inc1 = c1 * cmath.sin((2 * n + 1) * v)
            inc4 = c4 * cmath.cos(2 * (n + 1) * v)
            t1 += inc1
            t4 += inc4
            if abs(inc1) < eps and abs(inc4) < eps and n > 1:
                quotient = self.scale * (1 + t4) / t1
                return self.e_half + quotient * quotient
        raise DegenerateModulus("theta series did not converge")


def weierstrass_p_theta(z: complex, tau: complex, *, eps: float = 1e-14) -> complex:
    """wp by the theta quotient on the lattice <1, tau - round(Re tau)>."""
    return _ThetaFrame(tau, eps).wp(z)


def _mobius(mob, w: complex) -> complex:
    p, q, r, s = mob
    return (p * w + q) / (r * w + s)


def _residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def legendre_params(tau: complex, tol: Tolerance = Tolerance()) -> EllipticParams:
    """Solve the Moebius constraints M(inf) = 1, M(e1) = -1, M(e2) = -M(e3).

    Writing M(w) = (w + q)/(w + s), the constraints reduce to
    q^2 + 2 e1 q - (e1^2 + e2 e3) = 0 and s = -2 e1 - q; the two roots
    swap a with 1/a.  Selection: larger |a|, ties by larger real part,
    then larger imaginary part.
    """
    frame = _NomeFrame(tau)
    se = tol.series_eps
    ee1 = frame.wp(0.5 + 0j, se)
    ee2 = frame.wp(tau / 2, se)
    ee3 = frame.wp((1 + tau) / 2, se)
    scale = max(abs(ee1), abs(ee2), abs(ee3), 1.0)
    disc = cmath.sqrt(2 * ee1 * ee1 + ee2 * ee3)

    candidates = []
    for sign in (1, -1):
        q = -ee1 + sign * disc
        s = -2 * ee1 - q
        if abs(q - s) < 1e-12 * scale or abs(ee2 + s) < 1e-12 * scale:
            continue
        a = (ee2 + q) / (ee2 + s)
        candidates.append((a, q, s))
    if not candidates:
        raise DegenerateModulus(f"Moebius constraints singular for tau = {tau}")

    def better(c1, c2):
        a1, a2 = c1[0], c2[0]
        if abs(abs(a1) - abs(a2)) > 1e-9 * max(1.0, abs(a1), abs(a2)):
            return c1 if abs(a1) > abs(a2) else c2
        if abs(a1.real - a2.real) > 1e-9 * max(1.0, abs(a1), abs(a2)):
            return c1 if a1.real > a2.real else c2
        return c1 if a1.imag >= a2.imag else c2

    chosen = candidates[0]
    for cand in candidates[1:]:
        chosen = better(chosen, cand)
    a, q, s = chosen
    mob = (1 + 0j, q, 1 + 0j, s)

    if _residual(_mobius(mob, ee3), -a) > max(tol.eps, 1e-10):
        raise IdentityFailure("root selection lost M(e3) = -M(e2)")
    b = _mobius(mob, frame.wp(tau / 4, se))
    if _residual(b * b, a) > max(tol.eps, 1e-10):
        raise IdentityFailure("b^2 = a violated at working precision")
    return EllipticParams(
        tau=tau, e1=ee1, e2=ee2, e3=ee3, mobius=mob, a=a, b=b, frame=frame
    )


def legendre_value(
    params: EllipticParams, z: complex, *, eps: float = 1e-14
) -> complex:
    """L(z) = M(wp(z)); at lattice points the limit M(inf) = 1."""
    try:
        w = params.frame.wp(z, eps)
    except PoleAtLatticePoint:
        return 1 + 0j
    return _mobius(params.mobius, w)


def legendre_derivative(
    params: EllipticParams, z: complex, *, eps: float = 1e-14
) -> complex:
    """L'(z) by the chain rule through the analytic wp' series."""
    return _chain_rule(params, z, params.frame.wp(z, eps), eps)


def _chain_rule(params: EllipticParams, z: complex, w: complex, eps: float) -> complex:
    """L'(z) = M'(w) wp'(z), given w = wp(z)."""
    _, q, _, s = params.mobius
    m_prime = (s - q) / ((w + s) * (w + s))
    return m_prime * params.frame.wp_prime(z, eps)


def sample_points(
    tau: complex, tol: Tolerance, *, margin: float = 0.1
) -> list[complex]:
    """Seeded sample points u + v tau, with u and v rejected near the
    half-integer grid so no identity argument lands on a pole or a
    branch point.  The list is pre-generated, so any evaluation order
    downstream sees the same points."""
    rng = random.Random(tol.seed)
    points = []
    while len(points) < tol.samples:
        u, v = rng.random(), rng.random()
        if (
            min(abs(u), abs(u - 0.5), abs(u - 1.0)) > margin
            and min(abs(v), abs(v - 0.5), abs(v - 1.0)) > margin
        ):
            points.append(u + v * tau)
    return points


DERIVATIVE_METHOD = (
    "central differences with h = eps^(1/3) for the half-period check; "
    "analytic nome-form row-series wp' for the quadratic ratio"
)


@dataclass
class IdentityReport:
    tau: complex
    eps: float
    samples: int
    seed: int
    residuals: dict[str, float]
    quadratic_constant: complex
    derivative_method: str
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def worst_residual(self) -> float:
        return max(self.residuals.values())


def verify_identities(params: EllipticParams, tol: Tolerance) -> IdentityReport:
    """Check the functional equations of L at seeded sample points.

    Residual metric: |lhs - rhs| / max(1, |lhs|, |rhs|), worst case over
    the samples, compared against tol.eps.  The half-period derivative
    check uses |L'| itself against eps^(2/3), matching the truncation
    error of the central difference.
    """
    tau, a = params.tau, params.a
    se = tol.series_eps
    pts = sample_points(tau, tol)

    def lv(z: complex) -> complex:
        return legendre_value(params, z, eps=se)

    residuals: dict[str, float] = {
        "evenness": 0.0,
        "period_one": 0.0,
        "period_tau": 0.0,
        "half_shift_negates": 0.0,
        "tau_half_product": 0.0,
    }
    ratios = []
    for z in pts:
        # sample points avoid the lattice, so wp(z) is finite and shared
        # by L(z) and the chain rule for L'(z)
        w = params.frame.wp(z, se)
        value = _mobius(params.mobius, w)
        residuals["evenness"] = max(residuals["evenness"], _residual(lv(-z), value))
        residuals["period_one"] = max(
            residuals["period_one"], _residual(lv(z + 1), value)
        )
        residuals["period_tau"] = max(
            residuals["period_tau"], _residual(lv(z + tau), value)
        )
        residuals["half_shift_negates"] = max(
            residuals["half_shift_negates"], _residual(lv(z + 0.5), -value)
        )
        residuals["tau_half_product"] = max(
            residuals["tau_half_product"], _residual(lv(z + tau / 2) * value, a)
        )
        d = _chain_rule(params, z, w, se)
        ratios.append(d * d / ((value**2 - 1) * (value**2 - a**2)))

    h = tol.eps ** (1.0 / 3.0)
    worst_slope = 0.0
    for p in (0j, 0.5 + 0j, tau / 2, (1 + tau) / 2):
        slope = (lv(p + h) - lv(p - h)) / (2 * h)
        worst_slope = max(worst_slope, abs(slope))
    residuals["half_period_derivative"] = worst_slope

    mean = sum(ratios) / len(ratios)
    spread = math.sqrt(sum(abs(r - mean) ** 2 for r in ratios) / len(ratios))
    residuals["quadratic_ratio_constancy"] = spread / abs(mean)

    failures = []
    for name, worst in residuals.items():
        threshold = tol.eps ** (2.0 / 3.0) if name == "half_period_derivative" else tol.eps
        if worst > threshold:
            failures.append(f"{name}: worst residual {worst:.3e} > {threshold:.3e}")

    return IdentityReport(
        tau=tau,
        eps=tol.eps,
        samples=tol.samples,
        seed=tol.seed,
        residuals=residuals,
        quadratic_constant=mean,
        derivative_method=DERIVATIVE_METHOD,
        failures=failures,
    )


def evaluator_agreement(tau: complex, tol: Tolerance) -> float:
    """Worst disagreement between the two wp strategies on the seeded grid."""
    se = tol.series_eps
    rows, theta = _NomeFrame(tau), _ThetaFrame(tau, se)
    worst = 0.0
    for z in sample_points(tau, tol):
        worst = max(worst, _residual(rows.wp(z, se), theta.wp(z)))
    return worst


def invariant_pencil_constant(
    taus: tuple[complex, complex, complex], tol: Tolerance = Tolerance()
) -> complex:
    """A = a1 a2 a3 for the three moduli, checked against (b1 b2 b3)^2,
    plus the two-variable tau-half identity
    L1(z + tau1/2) L2(w + tau2/2) L1(z) L2(w) = a1 a2
    at seeded sample pairs."""
    if len(taus) != 3:
        raise ValueError("need exactly three moduli")
    params = [legendre_params(t, tol) for t in taus]
    a_product = params[0].a * params[1].a * params[2].a
    b_product = params[0].b * params[1].b * params[2].b
    if _residual(b_product * b_product, a_product) > tol.eps:
        raise IdentityFailure("(b1 b2 b3)^2 = a1 a2 a3 failed")

    se = tol.series_eps
    p1, p2 = params[0], params[1]
    pts1 = sample_points(p1.tau, tol)
    pts2 = sample_points(p2.tau, Tolerance(tol.eps, tol.samples, tol.seed + 1))
    target = p1.a * p2.a
    for z, w in zip(pts1, pts2):
        lhs = (
            legendre_value(p1, z + p1.tau / 2, eps=se)
            * legendre_value(p2, w + p2.tau / 2, eps=se)
            * legendre_value(p1, z, eps=se)
            * legendre_value(p2, w, eps=se)
        )
        if _residual(lhs, target) > tol.eps:
            raise IdentityFailure(
                f"two-variable tau-half identity failed at ({z}, {w})"
            )
    return a_product
