"""Galois (Z/2)^n covers of the line and their quotient combinatorics.

A cover is described by its branch data: n and nonzero vectors e_1, ...,
e_m of F_2^n (one per branch point, each a mask as in
integer_algebra._mask) that sum to zero and span the whole group.
Stabilizers over the i-th branch point are the order-2 subgroups <e_i>,
so Riemann-Hurwitz takes the simple shape

    2g - 2 = 2^n (-2 + m/2).

Quotients by a subgroup H replace each e_i by its image in G/H; branch
points whose image dies stop contributing.

A cover tables, once, the parities of every functional on the e_i.  Its
validation (the e_i sum to zero when every functional pairs evenly and
span when no nonzero one pairs trivially), the index-2 classification
and character_calculus's dual functionals all read that table.

The cover the claims judge is not written here: it is the branch data
character_calculus.d_factor_branch_elements derives from G's action.
"""

from __future__ import annotations

from ._record import record
from .integer_algebra import FinAbGroup, _mask, cokernel


class NonIntegralGenus(Exception):
    """The branch data does not produce an integer genus >= 0."""


class IdentityElement(Exception):
    """A branch image or query element was zero where nonzero is required."""


@record
class BranchedCoverData:
    """Branch data of a maximal (Z/2)^n cover of the projective line;
    pairings[phi], which == and repr ignore, holds the parities of the
    functional phi (a mask too) on the image masks, in image order."""

    n: int
    branch_images: tuple[int, ...]

    def __post_init__(self) -> None:
        imgs = tuple(self.branch_images)
        object.__setattr__(self, "branch_images", imgs)
        if not all(v in range(1 << self.n) for v in imgs):
            raise ValueError(f"branch images must be masks below 2^{self.n}: {imgs}")
        if 0 in imgs:
            raise IdentityElement(f"zero branch image in {imgs}")
        # tuple(list) allocates at the final size, so CPython reuses freed
        # tables; tuple(generator) resizes into place and never does
        pairings = tuple([
            _mask([(phi & v).bit_count() for v in imgs]) for phi in range(1 << self.n)
        ])
        object.__setattr__(self, "pairings", pairings)
        if any(p.bit_count() & 1 for p in pairings):
            raise ValueError("branch images must sum to zero")
        if 0 in pairings[1:]:
            raise ValueError("branch images must generate the full group")


def _quotient_genus(index: int, surviving: int) -> int:
    """Genus of (total space) / H for a subgroup H of the given index, via
    Riemann-Hurwitz on the quotient map down to the line: each of the
    surviving branch points, those whose image in G/H is nonzero,
    contributes 1/2, so 2g - 2 = index (-2 + surviving/2), that is
    4g = index (surviving - 4) + 4."""
    g, rest = divmod(index * (surviving - 4) + 4, 4)
    if rest or g < 0:
        raise NonIntegralGenus(f"4g = {index} * ({surviving} - 4) + 4 is not 4 times a genus")
    return g


def cover_genus(cover: BranchedCoverData) -> int:
    """Genus of the total space: the quotient by the trivial subgroup,
    2g - 2 = 2^n (-2 + m/2)."""
    return _quotient_genus(1 << cover.n, len(cover.branch_images))


def fixed_point_count(cover: BranchedCoverData, g: int) -> int:
    """Number of fixed points of a nonzero group element, a mask, on the cover.

    Only the branch stabilizers <e_i> fix anything; each branch point with
    e_i = g contributes a fiber of its index, |G| / 2 points.
    """
    if g not in range(1 << cover.n):
        raise ValueError(f"element must be a mask below 2^{cover.n}: {g!r}")
    if not g:
        raise IdentityElement("fixed points of the identity are the whole curve")
    per_point = (1 << cover.n) // 2
    return per_point * cover.branch_images.count(g)


def classify_corank1_subgroups(
    cover: BranchedCoverData,
) -> dict[tuple[int, int], int]:
    """Histogram of index-2 subgroups keyed by (branch images inside, genus
    of the quotient curve).

    The index-2 subgroups are the kernels of the nonzero functionals on
    F_2^n, taken as masks in product order, and a branch image lies inside
    exactly when the functional pairs it to 0; the others survive in
    G/H = Z/2.
    """
    m = len(cover.branch_images)
    histogram: dict[tuple[int, int], int] = {}
    for pairing in cover.pairings[1:]:
        surviving = pairing.bit_count()
        key = (m - surviving, _quotient_genus(2, surviving))
        histogram[key] = histogram.get(key, 0) + 1
    return histogram


def orbifold_abelianization(m: int) -> FinAbGroup:
    """Abelianized orbifold group of the line with m order-2 cone points.

    Presentation: x_1, ..., x_m with x_i^2 = 1 and x_1 ... x_m = 1.
    """
    if m < 1:
        raise ValueError("need at least one cone point")
    rows = [[1] * m]
    for i in range(m):
        row = [0] * m
        row[i] = 2
        rows.append(row)
    return cokernel(rows)

