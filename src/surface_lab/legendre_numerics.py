"""Floating-point verification of the elliptic-function identities behind
the invariant hypersurface equations.

The Legendre function L of a modulus tau is the even elliptic function of
degree 2 for the lattice <1, tau> with L(0) = 1, L(1/2) = -1, L(tau/2) = a,
L((1+tau)/2) = -a, in closed theta form (DLMF 20.2) with the nome
Q = exp(2 pi i tau) and Q^(1/4) = exp(i pi tau / 2):

    L(z) = b theta2(2 pi z | 2 tau) / theta3(2 pi z | 2 tau),
    b = theta3(0 | 2 tau) / theta2(0 | 2 tau),  a = b^2.

One pass over a list of points returns L and its termwise derivative L'
at each (_LegendreFrame.value_slopes).  Beside it, a value-only pass
(_LegendreFrame.values) runs the L half of that loop with the same float
operations in the same order, so its values are value_slopes' bit for bit;
every caller that needs no L' uses it.  Both add the last row of the
series outside the loop, without the power updates nothing reads (a
per-point loop in tests/oracles.py is their reference).  Points must be
finite; each pass reduces them to the central cell by math.remainder(x, 1),
which is x - round(x) to the bit but for the sign of a zero.  Theta settles
the a <-> 1/a ambiguity of the value table: at 0.3+0.2i it gives the a that
the earlier Moebius root selection reported as 1/a.  L runs on the
translated modulus tau - k, k = round(Re tau), exactly (1 is a period): L
is unchanged and a(tau) = (-1)^k a(tau - k).  A small translated modulus
evaluates L through Jacobi's imaginary transformation (DLMF 20.7(viii)):
theta2/theta3 (v | 2 tau) = theta4/theta3 (v/2tau | -1/2tau), and the even
and odd terms of theta3 and theta4 (DLMF 20.2.3-4) turn the right side into
the L of tau^ = -1/tau again,

    L(z) = b (b^ - L^(z/tau)) / (b^ + L^(z/tau)),  b^ = b(tau^),

so the points run through the short table of tau^ (at most three rows)
in place of up to eight rows of tau's own.  Domain: 0.1 <= Im tau <= 100
(IM_TAU_DOMAIN).  Below it the direct 2 tau series of b, a and C grows
(12 rows at 0.05i; a - 1, from b^, keeps its digits); above it the powers
of exp(2 pi i z) overflow.  Outside it legendre_params raises OutsideDomain.

L is cross-checked against wp by a row series in nome form (DLMF 23.8) on
the SL2(Z)-reduced lattice (_NomeFrame), through the Moebius M with
M(inf) = 1, M(e1) = -1, M(e2) = a (evaluator_agreement).  M and the
half-period values are closed forms in a and C = (2 pi)^2 theta2(0 | 2 tau)^4
(DLMF 23.6(i) through Landen, DLMF 20.7(vi)): nothing is fitted to the rows.
The row series evaluates wherever the reduced Im tau' is at most 700/pi
(about 223) and raises DegenerateModulus beyond (0.001i reduces to 1000i);
_NomeFrame.wps takes a whole point list in one call.  A theta quotient for
wp (_ThetaFrame) and a lattice sum in tests/oracles.py are further oracles.
Each frame holds what depends on tau alone, built once per modulus;
EllipticParams carries the L and row frames, and nothing is kept beyond a
call or an EllipticParams.

The seeded sample points of a modulus are drawn and evaluated once:
verify_identities leaves them, with L at them and at them + tau/2, in the
sample table of the L frame, keyed by (seed, samples) and kept no longer
than the frame.  evaluator_agreement and invariant_pencil_constant read it,
and compute the same values themselves on a miss.

Conventions: e1 = wp(1/2), e2 = wp(tau/2), e3 = wp((1+tau)/2); the wp theta
quotient uses the nome q = exp(i pi tau) and theta1(v) =
2 sum (-1)^n q^((n+1/2)^2) sin((2n+1)v).
"""

from __future__ import annotations

import cmath
import math
import random

from ._record import HIDDEN, record

PI = math.pi


class PoleAtLatticePoint(Exception):
    """wp was requested at (numerically) a lattice point."""


class DegenerateModulus(Exception):
    """The modulus makes a series or constraint system unusable."""


class OutsideDomain(DegenerateModulus):
    """The modulus lies outside the stated domain of the Legendre numerics."""


class IdentityFailure(Exception):
    """A functional identity exceeded the requested tolerance."""


@record
class Tolerance:
    eps: float = 1e-9
    samples: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")
        if self.samples < 2:
            # one ratio has spread 0, so quadratic_ratio_constancy would pass
            raise ValueError(f"samples must be at least 2, got {self.samples!r}")

    @property
    def series_eps(self) -> float:
        """Series truncation threshold, three digits under the target."""
        return max(self.eps * 1e-3, 2e-16)


@record
class EllipticParams:
    """Everything the identity checks need about one modulus.

    tau, a, b and e1 = wp(1/2), e2 = wp(tau/2), e3 = wp((1+tau)/2) are those
    of the modulus as given.  The frames evaluate on the translated modulus
    frame.tau = tau - k, k = round(Re tau), with parameter frame.a = (-1)^k a
    and e2, e3 swapped at odd k; they live and die with these parameters.
    e1, e2, e3 come from the row series.  mobius = (q, s) gives M(w) =
    (w + q)/(w + s) from theta's a, C and a - 1 (the frame's, from b^ if it
    inverts); it sends inf, e1, e2, e3 to 1, -1, a, -a at the closed-form
    half periods, for tau at any k.
    """

    tau: complex
    a: complex
    b: complex
    e1: complex
    e2: complex
    e3: complex
    mobius: tuple[complex, complex]
    frame: _LegendreFrame = HIDDEN
    rows: _NomeFrame = HIDDEN


def _check_tau(tau: complex) -> None:
    if not cmath.isfinite(tau):
        raise ValueError(f"modulus {tau!r} is not finite")
    if not tau.imag > 0:
        raise ValueError(f"modulus {tau!r} must have positive imaginary part")


def _reduce(z: complex, tau: complex) -> tuple[float, float]:
    """Coordinates (x, y) in [-1/2, 1/2] with z = x + y tau mod lattice."""
    y = z.imag / tau.imag
    x = z.real - y * tau.real
    return math.remainder(x, 1.0), math.remainder(y, 1.0)


def _modular_reduction(tau: complex) -> tuple[complex, tuple[int, int, int, int]]:
    """(tau', (a, b, c, d)) with ad - bc = 1, tau' = (a tau + b)/(c tau + d)
    and tau' in the fundamental domain |Re tau'| <= 1/2, |tau'| >= 1.

    Translations and inversions are applied until the modulus stops moving;
    the lattice <1, tau> equals (c tau + d) <1, tau'>.  The caller checks tau.
    """
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
_TWO_PI_I = 2j * PI
_M4PI2 = -4 * _PI2
_PI3 = _PI2 * PI
_MAX_ROWS = 400


class _NomeFrame:
    """The row series of one modulus: everything about tau that does not
    depend on the point, built once.

    tau is first moved by tau -> tau - round(Re tau), which is exact
    because 1 is a period, and then reduced by SL2(Z) to tau' with
    j = c tau + d, so that wp(z; tau) = j^-2 wp(z/j; tau') and
    wp'(z; tau) = j^-3 wp'(z/j; tau'); the translation keeps c tau + d
    from cancelling at large |Re tau|.
    rows holds (q^n, 2 q^n / (1 - q^n)^2) for n = 1, 2, ... with
    q = exp(2 pi i tau'), q^n as running products; a series that needs one
    more row extends it, so every series stops at the row it would stop at
    alone.  wps walks a list of points through the table in one call.
    """

    __slots__ = ("tau_r", "j", "j2", "j3", "abs_j2", "abs_j3", "q", "rows")

    def __init__(self, tau: complex) -> None:
        _check_tau(tau)
        tau = tau - round(tau.real)
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

    def wps(self, points: list[complex], eps: float) -> list[complex]:
        """[wp(z) for z in points].  Row n of the cosecant series,
        pi^2 (csc^2 pi(z + n tau) + csc^2 pi(z - n tau) - 2 csc^2 pi n tau),
        is -4 pi^2 times u/(1-u)^2 + v/(1-v)^2 - 2 q^n/(1-q^n)^2 with
        u = q^n t, v = q^n / t.  As |q| <= exp(-pi sqrt 3), rows decay by a
        factor of at least 230; rows are added until one is below eps |j|^2,
        which keeps the truncation error of the returned j^-2 wp(z') below
        eps.  Each point is reduced as _point reduces it, by math.remainder
        in the same float operations, inlined; it walks the stored rows and
        extends the table only past their end."""
        j, j2, tau_r = self.j, self.j2, self.tau_r
        tr, ti = tau_r.real, tau_r.imag
        tol = eps * self.abs_j2
        exp, sin, rem = cmath.exp, cmath.sin, math.remainder
        two_pi_i, pi, pi2, pi2_3, m4pi2 = _TWO_PI_I, PI, _PI2, _PI2 / 3, _M4PI2
        out = []
        append = out.append
        for z in points:
            w = z / j
            y = w.imag / ti
            x = rem(w.real - y * tr, 1.0)
            y = rem(y, 1.0)
            if abs(x) < 1e-12 and abs(y) < 1e-12:
                raise PoleAtLatticePoint(f"{z} reduces to a lattice point")
            zr = x + y * tau_r
            t = exp(two_pi_i * zr)
            s = sin(pi * zr)
            total = pi2 / (s * s) - pi2_3
            it = 1 / t
            # pending empties once a row is below tol; past the stored
            # rows, each further row is made and kept one at a time
            rows = pending = self.rows
            while pending:
                for qn, const in pending:
                    u, v = qn * t, qn * it
                    mu, mv = 1 - u, 1 - v
                    term = m4pi2 * (v / (mv * mv) + u / (mu * mu) - const)
                    total += term
                    if abs(term) < tol:
                        pending = ()
                        break
                else:
                    if len(rows) == _MAX_ROWS:
                        raise DegenerateModulus("row series did not converge")
                    rows = self._more_rows(rows)
                    pending = rows[-1:]
            append(total / j2)
        return out

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


def _finite(z: complex) -> complex:
    """z, or a ValueError naming it: a non-finite point has no reduction."""
    if not cmath.isfinite(z):
        raise ValueError(f"point {z!r} is not finite")
    return z


def weierstrass_p(z: complex, tau: complex, *, eps: float = 1e-14) -> complex:
    """wp(z; 1, tau) by the row series in nome form on the reduced lattice."""
    return _NomeFrame(tau).wps([_finite(z)], eps)[0]


def weierstrass_p_prime(z: complex, tau: complex, *, eps: float = 1e-14) -> complex:
    """wp'(z) by the termwise derivative of the nome-form rows of
    weierstrass_p, on the same reduced lattice: wp'(z; tau) = j^-3 wp'(z')."""
    return _NomeFrame(tau).wp_prime(_finite(z), eps)


def _theta_powers(t: complex):
    """(Q^((n+1/2)^2), Q^((n+1)^2)) for n = 0, 1, ... with Q = exp(i pi t),
    as running products from Q^(1/4) = exp(i pi t/4) and Q: the exponents
    step by 2n + 2 and 2n + 3, so no power with a float exponent is taken
    and Q^(1/4) keeps its branch at any Re t."""
    q = cmath.exp(1j * PI * t)
    half, full, step = cmath.exp(0.25j * PI * t), q, q * q  # step = Q^(2n+2)
    while True:
        yield half, full
        half *= step
        full *= step * q
        step *= q * q


class _ThetaFrame:
    """The theta quotient wp(z) - wp(tau/2) =
    (pi theta2(0) theta3(0) theta4(pi z) / theta1(pi z))^2 of one modulus.

    tau is first moved by tau -> tau - round(Re tau), which is exact because
    1 is a period.  With w = exp(i pi z) and q = exp(i pi tau),
    theta1(pi z) = -i sum (-1)^n q^((n+1/2)^2) (w^(2n+1) - w^-(2n+1)) and
    theta4(pi z) = 1 - sum (-1)^n q^((n+1)^2) (w^(2n+2) + w^-(2n+2)); terms
    holds the signed coefficients.  For z reduced to the central cell,
    |w|^(+-1) <= exp(pi Im tau / 2), so term n is at most
    exp(-pi Im tau n^2) times the largest: terms stops below eps of it.
    """

    __slots__ = ("tau", "e_half", "scale", "terms")

    def __init__(self, tau: complex, eps: float) -> None:
        _check_tau(tau)
        self.tau = tau = tau - round(tau.real)
        s, cut = PI * tau.imag, -math.log(eps)
        self.terms = []
        t2 = t3 = 0j
        for n, (half, full) in enumerate(_theta_powers(tau)):
            self.terms.append(((-1) ** n * half, (-1) ** (n + 1) * full))
            t2 += 2 * half
            t3 += 2 * full
            if s * (n + 1) ** 2 > cut:
                break
            if n == 60:
                raise DegenerateModulus("theta series did not converge")
        t3 = 1 + t3
        self.e_half = -(PI * PI) * (t2**4 + t3**4) / 3  # wp(tau/2), translated tau
        self.scale = PI * t2 * t3

    def wp(self, z: complex) -> complex:
        x, y = _reduce(z, self.tau)
        if max(abs(x), abs(y)) < 1e-12:
            raise PoleAtLatticePoint(f"{z} reduces to a lattice point")
        w = cmath.exp(1j * PI * (x + y * self.tau))
        iw = 1 / w
        w2, iw2 = w * w, iw * iw
        p, m, pp, mm = w, iw, w2, iw2
        t1, t4 = 0j, 1 + 0j
        for c1, c4 in self.terms:
            t1 += c1 * (p - m)
            t4 += c4 * (pp + mm)
            p *= w2
            m *= iw2
            pp *= w2
            mm *= iw2
        # theta1 = -i t1, so the square of the quotient changes sign
        quotient = self.scale * t4 / t1
        return self.e_half - quotient * quotient


def weierstrass_p_theta(z: complex, tau: complex, *, eps: float = 1e-14) -> complex:
    """wp by the theta quotient on the lattice <1, tau - round(Re tau)>."""
    return _ThetaFrame(tau, eps).wp(_finite(z))


def _residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _nan_max(residuals) -> float:
    """The worst of some residuals, or NaN if one is NaN: a residual that is
    not a number must fail, and max drops a NaN that is not first.  The
    residuals are nonnegative, so their sum is NaN exactly when one is."""
    total = sum(residuals)
    return total if total != total else max(residuals)


# the stated domain of L in Im tau; see the module docstring
IM_TAU_DOMAIN = (0.1, 100.0)
# a row of the L series is dropped once it is below exp(-_TAIL) times the
# largest term anywhere in the cell
_TAIL = 40.0


def _b_shift(k: int) -> complex:
    """(-i)^k, the factor b = theta3/theta2 (0 | 2 tau) gains under tau -> tau + k."""
    return (1, -1j, -1, 1j)[k % 4]


def _table_rows(im: float) -> int:
    """The rows of the L table at Im tau = im: row n is the last one kept
    once 2 pi im (n + 1)^2 > _TAIL."""
    n = 1
    while not 2 * PI * im * n ** 2 > _TAIL:
        n += 1
    return n


class _LegendreFrame:
    """L and L' of one modulus in theta form, the point-free parts built
    once.  tau is the translated modulus.  With w = exp(2 pi i z),

        theta2(2 pi z | 2 tau) = sum_n c_n (w^(2n+1) + w^-(2n+1)),
        theta3(2 pi z | 2 tau) = 1 + sum_n d_n (w^(2n+2) + w^-(2n+2)),

    c_n = Q^((n+1/2)^2), d_n = Q^((n+1)^2), n >= 0, and d/dz w^k =
    2 pi i k w^k gives L'.  terms holds (c_n, (2n+1) c_n, d_n, (2n+2) d_n).
    For z = x + y tau, |y| <= 1/2, |w|^(+-1) <= exp(pi Im tau), so row n is
    at most exp(-2 pi Im tau n^2) times the largest term: the table keeps
    the rows above exp(-_TAIL) of it at every point of the cell, one row
    above Im tau = _TAIL / (2 pi) and eight at Im tau = 0.1.  value_slopes
    and values each take a whole point list in one call.

    The table gives null, b, a and C.  When |tau| < 1 and the table of
    tau^ = -1/tau is shorter, the frame inverts: inner is the frame of
    tau^ - k^, k^ = round(Re tau^), b_hat = b(tau^) = inner.b (-i)^k^, and
    both passes map the inner frame's pass over z / tau by
    L = b (b_hat - L^) / (b_hat + L^), L' = -2 b b_hat L^' / ((b_hat + L^)^2 tau).
    The inner frame applies the same rule, so every pass reads at most
    three rows per point, at most two inversions deep.  a - 1 is b^2 - 1,
    or 4 b_hat / (b_hat - 1)^2 when inverted, as b = (b_hat + 1)/(b_hat - 1):
    it keeps its digits as a tends to 1.  b, a and C stay on the frame's own
    table.  L must use that b, not (b_hat + 1)/(b_hat - 1), which makes L(0)
    exactly 1: quadratic_ratio_constancy measures L^2 against a^2 = b^4.
    And b_hat -> -b_hat turns (b_hat + 1)/(b_hat - 1) into its inverse (a
    into 1/a), so only the table's b lets half_period_values' a - 1
    residual see a b_hat of the wrong sign.

    sample_table is the sample table of the last verify_identities on
    this frame: ((seed, samples), points, L at the points, L at the points +
    tau/2), or None.  The points depend on tau, the seed and the count
    alone, so (seed, samples) is its key; it lives and dies with the frame.
    """

    __slots__ = ("tau", "terms", "null", "slope", "a", "b", "a_minus_1", "C", "inner", "b_hat",
                 "sample_table")

    def __init__(self, tau: complex) -> None:
        rows = zip(range(_table_rows(tau.imag)), _theta_powers(2 * tau))
        self.tau = tau
        self.terms = terms = tuple((c, (2 * n + 1) * c, d, (2 * n + 2) * d) for n, (c, d) in rows)
        self.inner = None
        self.null = 1.0
        # theta2(0) / theta3(0) by the same loop, so that L(0) is exactly 1
        self.null = self.values([0j])[0]
        self.slope = _TWO_PI_I / self.null
        self.b = 1 / self.null
        self.a = self.b * self.b
        theta2 = 2 * sum(row[0] for row in terms)  # theta2(0 | 2 tau)
        self.C = 4 * PI * PI * theta2**4  # unchanged by tau -> tau + 1
        self.a_minus_1 = self.a - 1
        self.sample_table = None
        if abs(tau) < 1:
            # L through Jacobi's imaginary transformation; see the docstring
            hat = -1 / tau
            if _table_rows(hat.imag) < len(terms):
                k = round(hat.real)
                self.inner = inner = _LegendreFrame(hat - k)
                self.b_hat = b_hat = inner.b * _b_shift(k)
                w = b_hat - 1
                self.a_minus_1 = 4 * b_hat / (w * w)

    def value_slopes(self, points: list[complex]) -> tuple[list[complex], list[complex]]:
        """([L(z) for z in points], [L'(z) for z in points]), one pass over
        the rows per point.  The last row is added after the loop: the
        powers it would update are never read.  An inverted frame maps the
        inner frame's pass over z / tau through the Moebius map of L^."""
        tau, inner = self.tau, self.inner
        if inner is not None:
            b, b_hat = self.b, self.b_hat
            scale = -2 * b * b_hat / tau
            inner_values, inner_slopes = inner.value_slopes([z / tau for z in points])
            return (
                [b * (b_hat - w) / (b_hat + w) for w in inner_values],
                [scale * s / ((b_hat + w) * (b_hat + w)) for w, s in zip(inner_values, inner_slopes)],
            )
        null, slope = self.null, self.slope
        tr, ti = tau.real, tau.imag
        *head, (cl, ckl, dl, dkl) = self.terms
        exp, rem, two_pi_i = cmath.exp, math.remainder, _TWO_PI_I
        values, slopes = [], []
        add_value, add_slope = values.append, slopes.append
        for z in points:
            # _reduce, inlined: this is the innermost loop of the identity checks
            y = z.imag / ti
            p = exp(two_pi_i * (rem(z.real - y * tr, 1.0) + rem(y, 1.0) * tau))
            m = 1 / p
            pp = w2 = p * p  # p, m, pp, mm: w^(2n+1), w^-(2n+1), w^(2n+2), w^-(2n+2)
            mm = iw2 = m * m
            t2 = d2 = d3 = 0j
            t3 = 1 + 0j
            for c, ck, d, dk in head:
                t2 += c * (p + m)
                d2 += ck * (p - m)
                t3 += d * (pp + mm)
                d3 += dk * (pp - mm)
                p *= w2
                m *= iw2
                pp *= w2
                mm *= iw2
            t2 += cl * (p + m)
            d2 += ckl * (p - m)
            t3 += dl * (pp + mm)
            d3 += dkl * (pp - mm)
            add_value(t2 / t3 / null)
            add_slope((d2 * t3 - t2 * d3) * slope / (t3 * t3))
        return values, slopes

    def values(self, points: list[complex]) -> list[complex]:
        """[L(z) for z in points]: the t2 and t3 half of value_slopes' loop,
        the same float operations in the same order, so each value equals
        value_slopes' bit for bit."""
        tau, inner = self.tau, self.inner
        if inner is not None:
            b, b_hat = self.b, self.b_hat
            return [b * (b_hat - w) / (b_hat + w) for w in inner.values([z / tau for z in points])]
        null = self.null
        tr, ti = tau.real, tau.imag
        *head, (cl, _, dl, _) = self.terms
        head = [(c, d) for c, _, d, _ in head]
        exp, rem, two_pi_i = cmath.exp, math.remainder, _TWO_PI_I
        out = []
        append = out.append
        for z in points:
            y = z.imag / ti
            p = exp(two_pi_i * (rem(z.real - y * tr, 1.0) + rem(y, 1.0) * tau))
            m = 1 / p
            pp = w2 = p * p
            mm = iw2 = m * m
            t2 = 0j
            t3 = 1 + 0j
            for c, d in head:
                t2 += c * (p + m)
                t3 += d * (pp + mm)
                p *= w2
                m *= iw2
                pp *= w2
                mm *= iw2
            append((t2 + cl * (p + m)) / (t3 + dl * (pp + mm)) / null)
        return out

    def sampled(self, tol: Tolerance) -> tuple[tuple, tuple, tuple] | None:
        """(points, L at the points, L at the points + tau/2) for the seed
        and sample count of tol from the sample table, or None on a miss."""
        table = self.sample_table
        if table is not None and table[0] == (tol.seed, tol.samples):
            return table[1:]
        return None


def legendre_params(tau: complex, tol: Tolerance = Tolerance()) -> EllipticParams:
    """The theta-form L of tau, the half-period values of the row series and
    the Moebius map M with M(inf) = 1, M(e1) = -1, M(e2) = a.

    M(w) = (w + q)/(w + s), s = C (a^2 - 5) / 12, q = s - C (a - 1)(a + 1) / 2
    with frame.a_minus_1, which an inverted frame takes from b^, for a - 1.
    Both evaluators run on the translated modulus; a and b are reported for
    tau as given.
    """
    _check_tau(tau)
    lo, hi = IM_TAU_DOMAIN
    if not lo <= tau.imag <= hi:
        raise OutsideDomain(f"Im tau = {tau.imag!r} is outside the domain [{lo:g}, {hi:g}]")
    k = round(tau.real)
    frame = _LegendreFrame(tau - k)
    rows = _NomeFrame(frame.tau)
    e1, e2, e3 = rows.wps([0.5 + 0j, frame.tau / 2, (1 + frame.tau) / 2], tol.series_eps)
    C, a = frame.C, frame.a
    s = C * (a * a - 5) / 12
    mobius = (s - C * frame.a_minus_1 * (a + 1) / 2, s)
    b = frame.b * _b_shift(k)
    if k % 2:
        # tau/2 is (1 + frame.tau)/2 modulo the lattice
        a, e2, e3 = -a, e3, e2
    return EllipticParams(tau, a, b, e1, e2, e3, mobius, frame, rows)


# the least distance of a sample point's u and v from the half-integer grid
SAMPLE_MARGIN = 0.1


def sample_points(tau: complex, tol: Tolerance) -> list[complex]:
    """Seeded sample points u + v tau, with u and v rejected within
    SAMPLE_MARGIN of the half-integer grid so no identity argument lands
    on a pole or a branch point.  The list is pre-generated, so any
    evaluation order downstream sees the same points."""
    draw, m = random.Random(tol.seed).random, SAMPLE_MARGIN
    points = []
    while len(points) < tol.samples:
        # u, v lie in [0, 1): their distances to 0, 1/2 and 1 are compared directly
        u, v = draw(), draw()
        if (
            u > m and abs(u - 0.5) > m and 1.0 - u > m
            and v > m and abs(v - 0.5) > m and 1.0 - v > m
        ):
            points.append(u + v * tau)
    return points


# the residuals verify_identities takes at every sample point, in its order
_SAMPLED_IDENTITIES = ("evenness", "period_one", "period_tau", "half_shift_negates",
                       "tau_half_product")


@record
class IdentityReport:
    tau: complex
    eps: float
    samples: int
    seed: int
    residuals: dict[str, float]
    quadratic_constant: complex
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def worst_residual(self) -> float:
        return _nan_max(self.residuals.values())


def verify_identities(params: EllipticParams, tol: Tolerance) -> IdentityReport:
    """Check the functional equations of L at seeded sample points.

    Residual metric: |lhs - rhs| / max(1, |lhs|, |rhs|), worst case over
    the samples, compared against tol.eps.  Every value, shifted or not,
    is a fresh evaluation of the theta series.  half_period_derivative is
    |L'(p)| / max(1, |L(p)|) at the four half periods, where L' vanishes.
    The ratio L'^2 / ((L^2 - 1)(L^2 - a^2)) is constant (its spread is
    quadratic_ratio_constancy) and equals C = (2 pi)^2 theta2(0 | 2 tau)^4
    (quadratic_constant).  half_period_values judges the row series' e1, e2,
    e3 against C (a^2 + 1) / 6 and -C (a^2 +- 6a + 1) / 12, true at any k,
    and the frame's a - 1, from b^ if inverted, against the table's a - 1.  The
    points with L at them and at them + tau/2 are left in the frame's
    sample table for evaluator_agreement and invariant_pencil_constant.
    """
    frame = params.frame
    tau, a = frame.tau, frame.a
    half, values = tau / 2, frame.values
    points = sample_points(tau, tol)
    base, slopes = frame.value_slopes(points)
    at_half_taus = values([z + half for z in points])
    # each residual is _residual(lhs, rhs) written out, as this is the hot loop: |rhs| is
    # floored at 1 once per sample, and x if x > f else f is max(f, x), NaN included
    floors = [s if s > 1.0 else 1.0 for s in map(abs, base)]
    floor_a = s if (s := abs(a)) > 1.0 else 1.0
    worst = [
        [abs(at - value) / (s if (s := abs(at)) > f else f) for at, value, f in zip(column, base, floors)]
        for column in (values([-z for z in points]), values([z + 1 for z in points]),
                       values([z + tau for z in points]))
    ]
    worst.append([
        abs(at + value) / (s if (s := abs(at)) > f else f)
        for at, value, f in zip(values([z + 0.5 for z in points]), base, floors)
    ])
    products = [at * value for at, value in zip(at_half_taus, base)]
    worst.append([abs(p - a) / (s if (s := abs(p)) > floor_a else floor_a) for p in products])
    ratios = [
        slope / ((value - 1) * (value + 1)) * slope / ((value - a) * (value + a))
        for value, slope in zip(base, slopes)
    ]
    frame.sample_table = ((tol.seed, tol.samples), tuple(points), tuple(base), tuple(at_half_taus))
    residuals = dict(zip(_SAMPLED_IDENTITIES, map(_nan_max, worst)))
    residuals["half_period_derivative"] = _nan_max([
        abs(slope) / max(1.0, abs(value))
        for value, slope in zip(*frame.value_slopes([0j, 0.5 + 0j, half, 0.5 + half]))
    ])

    mean = sum(ratios) / len(ratios)
    spread = math.sqrt(sum([abs(r - mean) ** 2 for r in ratios]) / len(ratios))
    residuals["quadratic_ratio_constancy"] = spread / abs(mean)
    # the constant judges the scale of L'; |C| falls like exp(-2 pi Im tau),
    # so this residual is relative to |C|, not to max(1, |C|) as _residual
    C, a = frame.C, params.a
    residuals["quadratic_constant"] = abs(mean - C) / abs(C)
    residuals["half_period_values"] = _nan_max([
        _residual(params.e1, C * (a * a + 1) / 6),
        _residual(params.e2, -C * (a * a + 6 * a + 1) / 12),
        _residual(params.e3, -C * (a * a - 6 * a + 1) / 12),
        _residual(frame.a_minus_1, frame.a - 1),
    ])

    failures = [
        f"{name}: worst residual {worst:.3e} > {tol.eps:.3e}"
        for name, worst in residuals.items()
        if not worst <= tol.eps
    ]
    return IdentityReport(params.tau, tol.eps, tol.samples, tol.seed, residuals, mean, failures)


def evaluator_agreement(tau: complex | EllipticParams, tol: Tolerance) -> float:
    """Worst gap on the seeded grid between theta L and the row-series wp,
    related by M.  Each point is compared where M does not amplify the
    other side's rounding (M has a pole near e2 when |a| is large and is
    nearly constant when a is near 1): wp against M^-1(L) when
    |dwp/dL| max(1, |L|) <= max(1, |wp|), else L against M(wp).  tau is a
    modulus or its EllipticParams; the points and L at them come from the
    frame's sample table when verify_identities has filled it for tol."""
    params = tau if isinstance(tau, EllipticParams) else legendre_params(tau, tol)
    frame = params.frame
    q, s = params.mobius
    table = frame.sampled(tol)
    if table is None:
        points = sample_points(frame.tau, tol)
        values = frame.values(points)
    else:
        points, values, _ = table
    # |dwp/dL| = |q - s| / |L - 1|^2
    spread = abs(q - s)
    gaps = []
    append = gaps.append
    # each gap is _residual(lhs, rhs) written out with verify_identities' floors
    for value, wp in zip(values, params.rows.wps(points, tol.series_eps)):
        f = n if (n := abs(value)) > 1.0 else 1.0
        f_wp = n if (n := abs(wp)) > 1.0 else 1.0
        if spread * f <= abs(value - 1) ** 2 * f_wp:
            other = (q - value * s) / (value - 1)
            append(abs(wp - other) / (n if (n := abs(other)) > f_wp else f_wp))
        else:
            other = (wp + q) / (wp + s)
            append(abs(value - other) / (n if (n := abs(other)) > f else f))
    return _nan_max(gaps)


def _half_shift_table(frame: _LegendreFrame, tol: Tolerance):
    """(points, L at the points, L at the points + tau/2) for tol: the
    frame's sample table, or the same values computed on a miss."""
    table = frame.sampled(tol)
    if table is None:
        points = sample_points(frame.tau, tol)
        half = frame.tau / 2
        table = points, frame.values(points), frame.values([z + half for z in points])
    return table


def invariant_pencil_constant(
    taus: tuple[complex | EllipticParams, ...], tol: Tolerance = Tolerance()
) -> complex:
    """A = a1 a2 a3 for the three moduli (or their EllipticParams), checked
    against (b1 b2 b3)^2, plus the two-variable tau-half identity
    L1(z + tau1/2) L2(w + tau2/2) L1(z) L2(w) = a1 a2
    at seeded sample pairs: those of tol for the first modulus and of the
    next seed for the second, read from the frames' sample tables when
    verify_identities has filled them."""
    if len(taus) != 3:
        raise ValueError("need exactly three moduli")
    params = [t if isinstance(t, EllipticParams) else legendre_params(t, tol) for t in taus]
    a_product = params[0].a * params[1].a * params[2].a
    b_product = params[0].b * params[1].b * params[2].b
    if not _residual(b_product * b_product, a_product) <= tol.eps:
        raise IdentityFailure("(b1 b2 b3)^2 = a1 a2 a3 failed")

    f1, f2 = params[0].frame, params[1].frame
    pts1, v1s, h1s = _half_shift_table(f1, tol)
    pts2, v2s, h2s = _half_shift_table(f2, Tolerance(tol.eps, tol.samples, tol.seed + 1))
    for z, w, h1, h2, v1, v2 in zip(pts1, pts2, h1s, h2s, v1s, v2s):
        lhs = h1 * h2 * v1 * v2
        if not _residual(lhs, f1.a * f2.a) <= tol.eps:
            raise IdentityFailure(f"two-variable tau-half identity failed at ({z}, {w})")
    return a_product
