"""Intersection numbers and Kuenneth cohomology on a product threefold
C_1 x C_2 x C_3 of two elliptic curves and a curve D of genus g.

Divisor classes are integer combinations of the three fiber classes
F_1, F_2, F_3 of the projections.  The calculus needs only the relations
F_i F_j F_k = 1 for {i, j, k} = {1, 2, 3} and zero whenever an index
repeats, so a class is just its coefficient 3-tuple (a_1, a_2, a_3),
which is also its multidegree (degree on each factor curve).

Degree bookkeeping for the hypersurface class HYPERSURFACE = (2, 2, 4)
and the canonical class (0, 0, 2g - 2) of the product:

* a double point bundle on an elliptic factor has degree 2;
* a (2, 0) class on the elliptic square restricts to D with degree 4
  (D is a bidegree (2, 2) divisor, so it meets each fiber twice);
* the canonical bundle of D has degree 2g - 2.

adjunction_chain reports every number of the product that the checks read,
K^2 and chi of the cover and of the quotient included, from the genus of D
and the group order, both of which the checks take from the run.
"""

from __future__ import annotations

from itertools import permutations
from operator import add

from ._record import record


class NonIntegral(Exception):
    """A quotient that the theory requires to be an integer is not."""


class AmbiguousCase(Exception):
    """Cohomology of a special line bundle cannot be read off the degree."""


FiberClass = tuple[int, int, int]

HYPERSURFACE: FiberClass = (2, 2, 4)


def triple_product(x: FiberClass, y: FiberClass, z: FiberClass) -> int:
    """Trilinear expansion; only the six all-distinct fiber terms survive."""
    return sum(x[i] * y[j] * z[k] for i, j, k in permutations(range(3)))


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
    k2_cover: int
    k2_quotient: int


def adjunction_chain(genus: int, order: int) -> AdjunctionReport:
    """p_g, q, chi and K^2 of the invariant hypersurface in E x E x D, D of
    the given genus, and of its free quotient by a group of the given order.

    The twisted restriction sequence relating the threefold's canonical
    bundle, its adjoint and the hypersurface's dualizing sheaf gives
    p_g = h0(adjoint) + h1(canonical) - h0(canonical) and
    q = h1 of the structure sheaf, i.e. h2 of the canonical bundle.  K^2
    is adjoint^2 HYPERSURFACE; the quotient's chi and K^2 divide by the
    group order.
    """
    genera = (1, 1, genus)
    canonical = (0, 0, 2 * genus - 2)
    adjoint = tuple(map(add, canonical, HYPERSURFACE))  # fiber by fiber
    h_can = kunneth_h(genera, canonical)
    h_adj = kunneth_h(genera, adjoint)
    pg = h_adj[0] + h_can[1] - h_can[0]
    q = h_can[2]
    chi_cover = 1 - q + pg
    k2_cover = triple_product(adjoint, adjoint, HYPERSURFACE)
    for name, total in (("K^2", k2_cover), ("chi", chi_cover)):
        if total % order:
            raise NonIntegral(f"{name} {total} not divisible by {order}")
    return AdjunctionReport(
        h_canonical=h_can,
        h_adjoint=h_adj,
        pg_cover=pg,
        q_cover=q,
        chi_cover=chi_cover,
        chi_quotient=chi_cover // order,
        k2_cover=k2_cover,
        k2_quotient=k2_cover // order,
    )
