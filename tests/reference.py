"""High-precision reference values of the Legendre numerics, from mpmath.

Independent of the package's float series: each theta function is summed
here in mpmath arithmetic, straight from its definition (DLMF 20.2.1-4),
over n = -N..N with every term exp(i pi t x) computed from its own
exponent, so no running product, no branch of a fourth root and no
reduction to the central cell is shared with the package.  The sums agree
with mpmath.jtheta to 40 digits where jtheta is reliable
(test_reference_matches_jtheta).  jtheta is not used for the values
themselves: at large Im tau and Im z it loses digits (4e-7 relative for
L at tau = 0.33+60i, z = 0.299+18i with 40 digits) or returns a wrong
value (tau = 0.194+93.3i, z = 0.2+0.3 tau with 228 digits).

The Legendre function of tau uses theta2, theta3 of parameter 2 tau
(nome exp(2 pi i tau)); wp and wp' use the theta quotient of parameter
tau.
"""

from __future__ import annotations

import math

import mpmath as mp

DIGITS = 40


def _mpc(x: complex) -> mp.mpc:
    return mp.mpc(x.real, x.imag)


def theta(kind: int, v, t, derivative: int = 0):
    """theta_kind(v | t), nome exp(i pi t), or its derivative in v, summed
    over n = -N..N; N covers every term above 10^-(dps + 10) of the
    largest, at the working precision of the caller."""
    odd = kind in (1, 2)
    im_t, im_v = float(mp.im(t)), abs(float(mp.im(v)))
    # term n has modulus exp(-pi Im t x^2 - 2 x Im v), x = n (+ 1/2)
    cut = (mp.mp.dps + 10) * math.log(10)
    reach = im_v / (math.pi * im_t) + math.sqrt(cut / (math.pi * im_t))
    total = mp.mpc(0)
    for n in range(-math.ceil(reach) - 2, math.ceil(reach) + 3):
        x = n + mp.mpf(1) / 2 if odd else mp.mpf(n)
        sign = (-1) ** n if kind in (1, 4) else 1
        term = sign * mp.exp(1j * mp.pi * t * x * x + 2j * x * v) * (2j * x) ** derivative
        total += term
    return -1j * total if kind == 1 else total


def _digits(tau: complex) -> int:
    """Working digits: the sums cancel terms up to exp(pi Im tau) times
    their value at points of the central cell, about 1.4 Im tau decimal
    digits, which DIGITS must come on top of."""
    return DIGITS + 2 * math.ceil(tau.imag)


def legendre_reference(tau: complex, z: complex = 0j) -> dict[str, complex]:
    """a, a - 1, b, C = (2 pi)^2 theta2(0 | 2 tau)^4, L(z) and L'(z) of the
    modulus tau as given, to DIGITS digits, rounded to complex."""
    with mp.workdps(_digits(tau)):
        t, v = 2 * _mpc(tau), 2 * mp.pi * _mpc(z)
        theta2 = theta(2, 0, t)
        b = theta(3, 0, t) / theta2
        num, den = theta(2, v, t), theta(3, v, t)
        slope = 2 * mp.pi * b * (theta(2, v, t, 1) * den - num * theta(3, v, t, 1)) / den**2
        return {
            "a": complex(b * b),
            "a_minus_1": complex(b * b - 1),
            "b": complex(b),
            "C": complex(4 * mp.pi**2 * theta2**4),
            "L": complex(b * num / den),
            "dL": complex(slope),
        }


def wp_reference(tau: complex, z: complex) -> complex:
    """wp(z; 1, tau) = wp(tau/2) + (pi theta2 theta3 theta4(pi z) / theta1(pi z))^2
    with wp(tau/2) = -pi^2 (theta2^4 + theta3^4) / 3, thetas of parameter tau."""
    with mp.workdps(_digits(tau)):
        t, v = _mpc(tau), mp.pi * _mpc(z)
        t2, t3 = theta(2, 0, t), theta(3, 0, t)
        quotient = mp.pi * t2 * t3 * theta(4, v, t) / theta(1, v, t)
        return complex(-(mp.pi**2) * (t2**4 + t3**4) / 3 + quotient**2)


def wp_prime_reference(tau: complex, z: complex) -> complex:
    """wp'(z; 1, tau), the z-derivative of wp_reference: with
    Q = pi theta2 theta3 theta4(pi z) / theta1(pi z), wp' = 2 Q Q' and
    Q' = pi^2 theta2 theta3 (theta4' theta1 - theta4 theta1') / theta1^2,
    the thetas' derivatives taken in their argument pi z."""
    with mp.workdps(_digits(tau)):
        t, v = _mpc(tau), mp.pi * _mpc(z)
        t2, t3 = theta(2, 0, t), theta(3, 0, t)
        t1, t4 = theta(1, v, t), theta(4, v, t)
        d1, d4 = theta(1, v, t, 1), theta(4, v, t, 1)
        quotient = mp.pi * t2 * t3 * t4 / t1
        slope = mp.pi**2 * t2 * t3 * (d4 * t1 - t4 * d1) / t1**2
        return complex(2 * quotient * slope)
