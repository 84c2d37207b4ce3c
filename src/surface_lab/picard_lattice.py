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

verify_configuration audits the relations the configuration must satisfy.
theta_cohomology_report only computes the lattice numbers of the
tangent-sheaf bounds; the values they must take are written once, in the
claims table of surface_lab.checks, which judges them.
"""

from __future__ import annotations

from itertools import repeat
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
    l1 = -1 * K + f1 - E[3]
    l2 = -2 * K - E[4] - E[5]
    l3 = -1 * K + L - E[0] - E[1] - E[2]
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


def restriction_degrees(c: ConfigCatalog) -> dict[str, int]:
    """Degrees of the log-twisted restrictions behind the character-wise
    bounds, keyed by the curve restricted to: D1 + f1 - E4 on f1, and the
    second and third log divisors on E1, E3 and E2."""
    log2 = c.f[2] + c.S[0] + c.S[1] + c.S[2] + c.S[3] + E[0] + E[2]
    log3 = 2 * c.f[0] + c.S[0] + c.S[1] + c.S[2] + c.S[3] + E[1]
    return {
        "f1": intersect(c.branch_divisor(0) + c.f[0] - E[3], c.f[0]),
        "E1": intersect(E[0], log2),
        "E3": intersect(E[2], log2),
        "E2": intersect(E[1], log3),
    }


@record
class ConfigReport:
    checks_run: int
    failures: tuple[str, ...]


def verify_configuration(c: ConfigCatalog) -> ConfigReport:
    """Exact arithmetic audit of the configuration relations."""
    checks_run = 0
    failures: list[str] = []

    def expect(label: str, got, want) -> None:
        nonlocal checks_run
        checks_run += 1
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    minus_k = -c.K

    for i in range(3):
        expect(f"Delta{i+1} + f{i+1} = -K", c.Delta[i] + c.f[i], minus_k)

    for i in range(4):
        for j in range(i + 1, 4):
            expect(f"S{i+1}.S{j+1} = 0", intersect(c.S[i], c.S[j]), 0)
        for j in range(3):
            expect(f"S{i+1}.Delta{j+1} = 0", intersect(c.S[i], c.Delta[j]), 0)
            expect(f"S{i+1}.f{j+1} = 0", intersect(c.S[i], c.f[j]), 0)
        expect(f"S{i+1}^2 = -2", selfint(c.S[i]), -2)
        expect(f"K.S{i+1} = 0", intersect(c.K, c.S[i]), 0)

    for i in range(3):
        for j in range(3):
            want = 2 if i == j else 0
            expect(f"Delta{i+1}.f{j+1} = {want}", intersect(c.Delta[i], c.f[j]), want)
        expect(f"f{i+1}^2 = 0", selfint(c.f[i]), 0)
        expect(f"-K.Delta{i+1} = 1", intersect(minus_k, c.Delta[i]), 1)
        expect(f"-K.f{i+1} = 2", intersect(minus_k, c.f[i]), 2)
    for i in range(3):
        for j in range(i + 1, 3):
            expect(f"f{i+1}.f{j+1} = 2", intersect(c.f[i], c.f[j]), 2)

    expect(
        "S1 + S4 - S2 - S3 = -2E1 + 2E3",
        c.S[0] + c.S[3] - c.S[1] - c.S[2],
        -2 * E[0] + 2 * E[2],
    )
    expect(
        "K + L2 + Delta2 = S1+S2+S3+S4+E1+E3",
        c.K + c.chern[1] + c.Delta[1],
        c.S[0] + c.S[1] + c.S[2] + c.S[3] + E[0] + E[2],
    )
    expect(
        "K + L3 + Delta3 = S1+S2+E2",
        c.K + c.chern[2] + c.Delta[2],
        c.S[0] + c.S[1] + E[1],
    )
    expect("K + L1 = f1 - E4", c.K + c.chern[0], c.f[0] - E[3])

    # bidouble consistency: 2 L_i = D_j + D_k for {i, j, k} = {1, 2, 3}
    for i, (j, k) in enumerate([(1, 2), (0, 2), (0, 1)]):
        expect(
            f"2L{i+1} = D{j+1} + D{k+1}",
            2 * c.chern[i],
            c.branch_divisor(j) + c.branch_divisor(k),
        )

    # negativity inputs for the two exceptional-case reductions
    expect(
        "(2Delta2 - E5 - E6).Delta2 = -2",
        intersect(2 * c.Delta[1] - E[4] - E[5], c.Delta[1]),
        -2,
    )
    expect(
        "(K + 2Delta3 + L - E1 - E2 - E3).Delta3 = -2",
        intersect(c.K + 2 * c.Delta[2] + L - E[0] - E[1] - E[2], c.Delta[2]),
        -2,
    )

    # restriction degrees feeding the character-wise bounds
    degrees = restriction_degrees(c)
    expect("(D1 + f1 - E4).f1 = 3", degrees["f1"], 3)
    expect("E1-degree = 2", degrees["E1"], 2)
    expect("E3-degree = 2", degrees["E3"], 2)
    expect("E2-degree = 3", degrees["E2"], 3)

    return ConfigReport(checks_run, tuple(failures))


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

    span1 = [c.Delta[0], c.f[1], c.S[0], c.S[1], c.f[0]]
    span2 = [c.f[2], c.S[0], c.S[1], c.S[2], c.S[3], E[0], E[2]]
    span3 = [c.f[0], c.f[0], c.S[2], c.S[3], c.S[0], c.S[1], E[1]]
    ranks = (rank(span1), rank(span2), rank(span3))
    degrees = restriction_degrees(c)

    def sections_on_line(degree: int) -> int:
        # h0 of the cotangent sheaf of a rational curve twisted up to degree
        return max(degree - 1, 0)

    bound1 = (len(span1) - ranks[0]) + sections_on_line(degrees["f1"])
    bound2 = (len(span2) - ranks[1]) + sections_on_line(degrees["E1"]) + sections_on_line(
        degrees["E3"]
    )
    bound3 = (len(span3) - ranks[2]) + sections_on_line(degrees["E2"])
    bounds = (bound1, bound2, bound3)

    return ThetaReport(
        chi_cotangent_twisted=chi_tw,
        chi_restricted_total=chi_restr,
        span_ranks=ranks,
        character_bounds=bounds,
        h2_bound=sum(bounds),
        h1=-(chi_tw + chi_restr),
    )
