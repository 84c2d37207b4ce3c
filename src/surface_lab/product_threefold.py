"""Intersection numbers and Kuenneth cohomology on a product threefold
C_1 x C_2 x C_3 with factor genera (1, 1, 5).

Divisor classes are integer combinations of the three fiber classes
F_1, F_2, F_3 of the projections.  The calculus needs only the relations
F_i F_j F_k = 1 for {i, j, k} = {1, 2, 3} and zero whenever an index
repeats, so a class is just its coefficient 3-tuple (a_1, a_2, a_3),
which is also its multidegree (degree on each factor curve).

Degree bookkeeping for the invariant hypersurface inside the product:

* a double point bundle on an elliptic factor has degree 2;
* a (2, 0) class on the elliptic square restricts to the genus-5 curve
  with degree 4 (the curve is a bidegree (2, 2) divisor, so it meets
  each fiber twice);
* the canonical bundle of the genus-5 factor has degree 2*5 - 2 = 8.
"""

from __future__ import annotations

from itertools import permutations
from operator import add

from ._record import record


class NonIntegral(Exception):
    """A quotient that the theory requires to be an integer is not."""


class AmbiguousCase(Exception):
    """Cohomology of a special line bundle cannot be read off the degree."""


ELLIPTIC_BRANCH_DEGREE = 2  # O(2 . origin) on an elliptic factor
HYPERSURFACE_D_DEGREE = 4  # (2,0) class restricted to the bidegree-(2,2) curve
CANONICAL_D_DEGREE = 8  # 2g - 2 for g = 5
STANDARD_GENERA = (1, 1, 5)
GROUP_ORDER = 32


FiberClass = tuple[int, int, int]


def canonical_class() -> FiberClass:
    return (0, 0, CANONICAL_D_DEGREE)


def hypersurface_class() -> FiberClass:
    return (ELLIPTIC_BRANCH_DEGREE, ELLIPTIC_BRANCH_DEGREE, HYPERSURFACE_D_DEGREE)


def _adjoint_class() -> FiberClass:
    """K + the hypersurface class, fiber by fiber."""
    return tuple(map(add, canonical_class(), hypersurface_class()))


def triple_product(x: FiberClass, y: FiberClass, z: FiberClass) -> int:
    """Trilinear expansion; only the six all-distinct fiber terms survive."""
    return sum(x[i] * y[j] * z[k] for i, j, k in permutations(range(3)))


def adjoint_cube() -> int:
    """The adjoint class (K + hypersurface) squared against the hypersurface
    class: the canonical self-intersection of the hypersurface upstairs."""
    adjoint = _adjoint_class()
    return triple_product(adjoint, adjoint, hypersurface_class())


def ks_squared() -> int:
    """Self-intersection of the canonical class on the quotient surface:
    adjoint_cube() divided by the order of the free group action."""
    total = adjoint_cube()
    if total % GROUP_ORDER:
        raise NonIntegral(f"{total} is not divisible by {GROUP_ORDER}")
    return total // GROUP_ORDER


def curve_h(genus: int, degree: int) -> tuple[int, int]:
    """(h0, h1) of a line bundle on a smooth curve, in the four regimes
    Riemann-Roch decides: nonspecial, negative, trivial, canonical.

    degree 0 is read as the trivial bundle and degree 2g-2 as the
    canonical one; anything else in (0, 2g-2) is refused rather than
    guessed, since a special bundle's h0 is not a function of its degree.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if degree == 0:
        return (1, genus)
    if degree == 2 * genus - 2:
        return (genus, 1)
    if degree > 2 * genus - 2:
        return (degree - genus + 1, 0)
    if degree < 0:
        return (0, genus - 1 - degree)
    raise AmbiguousCase(f"special bundle: genus {genus}, degree {degree}")


def kunneth_h(genera: tuple[int, ...], degrees: tuple[int, ...]) -> tuple[int, ...]:
    """Cohomology of an exterior product bundle by Kuenneth convolution.

    Factor i is a curve of genus genera[i] carrying a line bundle of
    degree degrees[i] (ValueError unless there is one degree per factor).
    Each factor contributes the pair (h0, h1); the product's h^k is the
    coefficient of x^k in the product of the per-factor polynomials
    h0 + h1 x.
    """
    coeffs = [1]
    for g, d in zip(genera, degrees, strict=True):
        h0, h1 = curve_h(g, d)
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * h0
            nxt[i + 1] += c * h1
        coeffs = nxt
    return tuple(coeffs)


@record
class AdjunctionReport:
    """Numerical chain from the product threefold down to the quotient."""

    h_canonical: tuple[int, ...]
    h_adjoint: tuple[int, ...]
    pg_cover: int
    q_cover: int
    chi_cover: int
    chi_quotient: int


def adjunction_chain() -> AdjunctionReport:
    """p_g, q and chi of the invariant hypersurface and its free quotient.

    The twisted restriction sequence relating the threefold's canonical
    bundle, its adjoint and the hypersurface's dualizing sheaf gives
    p_g = h0(adjoint) + h1(canonical) - h0(canonical) and
    q = h1 of the structure sheaf, i.e. h2 of the canonical bundle.
    """
    h_can = kunneth_h(STANDARD_GENERA, canonical_class())
    h_adj = kunneth_h(STANDARD_GENERA, _adjoint_class())
    pg = h_adj[0] + h_can[1] - h_can[0]
    q = h_can[2]
    chi_cover = 1 - q + pg
    if chi_cover % GROUP_ORDER:
        raise NonIntegral(f"chi {chi_cover} not divisible by {GROUP_ORDER}")
    return AdjunctionReport(
        h_canonical=h_can,
        h_adjoint=h_adj,
        pg_cover=pg,
        q_cover=q,
        chi_cover=chi_cover,
        chi_quotient=chi_cover // GROUP_ORDER,
    )
