"""Intersection theory on the plane blown up in the six vertices of a
complete quadrilateral.

Classes live in Pic(Y) = Z L + Z E_1 + ... + Z E_6 with the unimodular
form (d, m) . (d', m') = d d' - sum m_i m'_i of signature (1, 6).  A class
is its coefficient 7-tuple (d, m_1, ..., m_6), a DivisorClass: a tuple
whose +, - and integer scaling act entrywise, so it is also a matrix row.

The catalog records the curve configuration attached to the quadrilateral
through P_1 .. P_6 (four sides S_i, three diagonals Delta_i, three conic
pencils f_i), the three branch divisors D_i built from them, and the
first Chern classes L_1, L_2, L_3 of the character sheaves of the
associated bidouble cover.  A branch divisor is held as the tuple of its
components' classes; every component is a line or a conic, so of genus
0.  Conventions:

* sides: S_1 through P_1 P_2 P_5, S_2 through P_2 P_3 P_6,
  S_3 through P_3 P_4 P_5, S_4 through P_4 P_1 P_6;
* diagonals: Delta_1 = P_1 P_3, Delta_2 = P_2 P_4, Delta_3 = P_5 P_6;
* conics: f_1 through P_2, P_4, P_5, P_6 and cyclically.

Euler characteristics use chi(O_Y) = 1 and e(Y) = 9 (each of the six
blow-ups adds one to e(P^2) = 3).

configuration_report (intersections, relations and degrees of the
configuration) and theta_cohomology_report (the tangent-sheaf bounds) only
compute; the values they must take are written once, in the claims table
of surface_lab.checks, which judges them.  Both read the components of the
three log divisors of the bounds from one list, built from the catalog.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, mul, neg, sub

from ._record import record
from .integer_algebra import rank

EULER_NUMBER = 9
CHI_TRIVIAL = 1


class DivisorClass(tuple):
    """(d, m_1, ..., m_6) for d L + sum m_i E_i; arithmetic is entrywise,
    never tuple concatenation or repetition."""

    __slots__ = ()

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(map(add, self, other))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(map(sub, self, other))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(map(neg, self))

    def __mul__(self, k: int) -> "DivisorClass":
        return DivisorClass(map(mul, repeat(k), self))

    __rmul__ = __mul__


def cls(d: int, *m: int) -> DivisorClass:
    return DivisorClass((d, *m))


L = cls(1, 0, 0, 0, 0, 0, 0)
E = [cls(0, *(1 if j == i else 0 for j in range(6))) for i in range(6)]
# the canonical class of the plane blown up in six points
K = -3 * L + E[0] + E[1] + E[2] + E[3] + E[4] + E[5]


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    return a[0] * b[0] - sum(map(mul, a[1:], b[1:]))


def selfint(a: DivisorClass) -> int:
    return intersect(a, a)


@record
class ConfigCatalog:
    S: tuple[DivisorClass, ...]
    Delta: tuple[DivisorClass, ...]
    f: tuple[DivisorClass, ...]
    K: DivisorClass
    chern: tuple[DivisorClass, ...]  # character sheaf classes L_1, L_2, L_3
    branch_components: tuple[tuple[DivisorClass, ...], ...]  # D_1, D_2, D_3

    def branch_divisor(self, i: int) -> DivisorClass:
        return sum(self.branch_components[i], cls(0, 0, 0, 0, 0, 0, 0))


def catalog() -> ConfigCatalog:
    s1 = L - E[0] - E[1] - E[4]
    s2 = L - E[1] - E[2] - E[5]
    s3 = L - E[2] - E[3] - E[4]
    s4 = L - E[3] - E[0] - E[5]
    d1 = L - E[0] - E[2]
    d2 = L - E[1] - E[3]
    d3 = L - E[4] - E[5]
    f1 = 2 * L - E[1] - E[3] - E[4] - E[5]
    f2 = 2 * L - E[0] - E[2] - E[4] - E[5]
    f3 = 2 * L - E[0] - E[1] - E[2] - E[3]
    l1 = -K + f1 - E[3]
    l2 = -2 * K - E[4] - E[5]
    l3 = -K + L - E[0] - E[1] - E[2]
    # the components of D_1, D_2, D_3, by curve: D_3 holds two members
    # of the pencil f1, whose class appears twice
    branch1 = (d1, f2, s1, s2)  # Delta1, f2, S1, S2
    branch2 = (d2, f3)  # Delta2, f3
    branch3 = (d3, f1, f1, s3, s4)  # Delta3, f1, f1', S3, S4
    return ConfigCatalog(
        S=(s1, s2, s3, s4),
        Delta=(d1, d2, d3),
        f=(f1, f2, f3),
        K=K,
        chern=(l1, l2, l3),
        branch_components=(branch1, branch2, branch3),
    )


def _log_components(c: ConfigCatalog) -> tuple[tuple[DivisorClass, ...], ...]:
    """Components of D1 + f1, f3 + S + E1 + E3 and 2 f1 + S + E2, S = S1 + ... + S4."""
    return (
        (*c.branch_components[0], c.f[0]),
        (c.f[2], *c.S, E[0], E[2]),
        (c.f[0], c.f[0], *c.S, E[1]),
    )


def restriction_degrees(c: ConfigCatalog) -> dict[str, int]:
    """Degrees of the log-twisted restrictions behind the character-wise
    bounds, keyed by the curve restricted to: the first log divisor minus
    E4 on f1, the second on E1 and E3, the third on E2."""
    log1, log2, log3 = [sum(comps, cls(0, 0, 0, 0, 0, 0, 0)) for comps in _log_components(c)]
    return {
        "f1": intersect(log1 - E[3], c.f[0]),
        "E1": intersect(E[0], log2),
        "E3": intersect(E[2], log2),
        "E2": intersect(E[1], log3),
    }


# the rows and columns of ConfigReport.intersections, the names of its
# entries, and the names of its relations, each the left side minus the
# right side of an equivalence
CURVES = ("K", "S1", "S2", "S3", "S4", "Delta1", "Delta2", "Delta3", "f1", "f2", "f3")
_MATRIX_NAMES = tuple(f"{a}.{b}" for i, a in enumerate(CURVES) for b in CURVES[i:])
RELATIONS = (
    "Delta1 + f1 + K", "Delta2 + f2 + K", "Delta3 + f3 + K", "S1 + S4 - S2 - S3 + 2E1 - 2E3",
    "K + L1 - f1 + E4", "K + L2 + Delta2 - S1 - S2 - S3 - S4 - E1 - E3",
    "K + L3 + Delta3 - S1 - S2 - E2", "2L1 - D2 - D3", "2L2 - D1 - D3", "2L3 - D1 - D2",
)


@record
class ConfigReport:
    intersections: tuple[tuple[int, ...], ...]  # upper triangle, row by row
    relations: tuple[DivisorClass, ...]
    degrees: dict[str, int]  # keyed by the curve each is taken on

    def named(self) -> dict[str, object]:
        """Each number under its name: "K.S1", a RELATIONS entry, "degree on f1"."""
        named = dict(zip(_MATRIX_NAMES, chain.from_iterable(self.intersections)))
        named.update(zip(RELATIONS, self.relations))
        named.update((f"degree on {k}", d) for k, d in self.degrees.items())
        return named


def configuration_report(c: ConfigCatalog) -> ConfigReport:
    """The intersection matrix of CURVES, the RELATIONS classes, and the
    degrees on Delta2, Delta3 (the negativity inputs), then restriction_degrees."""
    curves = (c.K, *c.S, *c.Delta, *c.f)
    S, Delta, f, chern = c.S, c.Delta, c.f, c.chern
    D = [c.branch_divisor(i) for i in range(3)]
    return ConfigReport(
        # rows from lists: a generator per row raised a warm process's RSS
        tuple(tuple([intersect(a, b) for b in curves[i:]]) for i, a in enumerate(curves)),
        (
            *(Delta[i] + f[i] + c.K for i in range(3)),
            S[0] + S[3] - S[1] - S[2] + 2 * E[0] - 2 * E[2],
            c.K + chern[0] - f[0] + E[3],
            c.K + chern[1] + Delta[1] - S[0] - S[1] - S[2] - S[3] - E[0] - E[2],
            c.K + chern[2] + Delta[2] - S[0] - S[1] - E[1],
            # bidouble consistency: 2 L_i = D_j + D_k for {i, j, k} = {1, 2, 3}
            *(2 * chern[i] - D[j] - D[k] for i, (j, k) in enumerate([(1, 2), (0, 2), (0, 1)])),
        ),
        {
            "Delta2": intersect(2 * Delta[1] - E[4] - E[5], Delta[1]),
            "Delta3": intersect(c.K + 2 * Delta[2] + L - E[0] - E[1] - E[2], Delta[2]),
            **restriction_degrees(c),
        },
    )


def chi_bundle_hrr(rk: int, c1: DivisorClass, c2: int) -> int:
    """chi of a rank-rk bundle on Y by Hirzebruch-Riemann-Roch:
    rk chi(O_Y) + (c1^2 - 2 c2 - c1.K) / 2."""
    twice = selfint(c1) - 2 * c2 - intersect(c1, K)
    half, odd = divmod(twice, 2)
    if odd:
        raise ValueError(f"non-integral chi {2 * rk * CHI_TRIVIAL + twice}/2; invalid Chern data")
    return rk * CHI_TRIVIAL + half


def twisted_cotangent_chern(twist: DivisorClass) -> tuple[int, DivisorClass, int]:
    """(rank, c1, c2) of the cotangent bundle twisted by a line class."""
    c1 = K + 2 * twist
    c2 = EULER_NUMBER + intersect(K, twist) + selfint(twist)
    return 2, c1, c2


def chi_restricted_twist(component: DivisorClass, twist: DivisorClass) -> int:
    """Riemann-Roch on a configuration curve, deg + 1 - g, where g = 0:
    every configuration curve is a line or a conic."""
    return intersect(twist, component) + 1


@record
class ThetaReport:
    """Lattice numbers of the tangent-sheaf cohomology bounds."""

    chi_cotangent_twisted: int
    chi_restricted_total: int
    span_ranks: tuple[int, int, int]
    character_bounds: tuple[int, int, int]
    h2_bound: int
    h1: int


def theta_cohomology_report(c: ConfigCatalog) -> ThetaReport:
    """The lattice side of the h1/h2 computation for the tangent sheaf
    downstairs.

    chi of the twisted cotangent bundle plus chi of the branch restrictions
    give h1, the dimension of the invariant part; span ranks and
    restriction degrees give per-character bounds upstairs, whose sum
    bounds h2.  The numbers are reported, not judged: pinning h1 and h2
    also needs chi(Theta) = 2K^2 - 10 chi(O) of the surface, which the
    claims table takes from the product threefold.
    """
    rk, c1, c2 = twisted_cotangent_chern(c.K)
    chi_tw = chi_bundle_hrr(rk, c1, c2)
    chi_restr = sum(
        chi_restricted_twist(comp, c.K)
        for i in range(3)
        for comp in c.branch_components[i]
    )

    logs = _log_components(c)
    ranks = tuple([rank(comps) for comps in logs])
    degrees = restriction_degrees(c)
    # each log divisor's dependent components, plus h0 of the cotangent
    # sheaf of each rational curve it restricts to, twisted up to its degree
    bounds = tuple([
        len(comps) - r + sum([max(degrees[curve] - 1, 0) for curve in curves])
        for comps, r, curves in zip(logs, ranks, (("f1",), ("E1", "E3"), ("E2",)))
    ])

    return ThetaReport(
        chi_cotangent_twisted=chi_tw,
        chi_restricted_total=chi_restr,
        span_ranks=ranks,
        character_bounds=bounds,
        h2_bound=sum(bounds),
        h1=-(chi_tw + chi_restr),
    )
