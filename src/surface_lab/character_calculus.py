"""Sign-character bookkeeping for elementary abelian 2-group actions on
section spaces.

Every representation handled here is a direct sum of one-dimensional
eigenspaces on which each chosen group generator acts as +1 or -1.  Such
a sign character of (Z/2)^k is held as its F_2 exponent mask, as in
integer_algebra._mask: generator i's bit is set where it acts as -1.
Characters multiply by xor, and the value of chi on the word (mask) w is
(-1)^(chi . w).  A representation is a Counter of characters, mapping
each to its multiplicity.  The two concrete inputs are:

* the degree-two section space of an elliptic (or genus-5) factor, with
  basis {1, F} where F is the Legendre function of the factor: F is even
  and anti-invariant under the half-period translation z -> z + 1/2, so
  a generator acting as z -> (+-)z + t has eigenvalue -1 on F exactly
  when t contains the e-half-translation 1/2.  An action is read as t
  alone, the pair (e-halves, tau-halves); a translation by tau/2 does not
  act linearly on the section pair (it swaps the pencil members) and is
  rejected;
* the 7-dimensional space of global one-forms on the product threefold,
  whose genus-5 summand decomposes by the branch combinatorics of the
  (Z/2)^4 cover of the line.  That cover's branch data is derived here,
  from G's image acting on the genus-5 factor, and it is the one cover
  the claims table judges; each summand's dual functional is read from
  the pairing table the cover built and lifted to G.

Whatever reads the group action takes the run's actions_mod2 or their curve_span.
"""

from __future__ import annotations

import cmath
from collections import Counter
from collections.abc import Sequence

from .affine_groups import span_mod2
from .integer_algebra import _mask
from .orbifold_covers import BranchedCoverData


class UnsupportedTranslation(Exception):
    """The generator moves the section pair projectively, not linearly."""


class ZeroParameter(Exception):
    """The pencil involution degenerates only for parameter zero."""


def character_of_basis(actions: Sequence[tuple[int, int]]) -> int:
    """Character of the Legendre basis section, one bit per generator.

    Each action is the translation part (e-halves, tau-halves) of
    z -> +-z + t, in half-units; evenness makes the sign irrelevant.  The
    eigenvalue is -1 exactly when the e-half count is odd.  An odd
    tau-half count is rejected: that translation maps the section pair
    into a different pencil member rather than scaling it.
    """
    if any([v % 2 for _, v in actions]):
        raise UnsupportedTranslation("tau-half translation does not act linearly on the sections")
    return _mask([u for u, _ in actions])


def tensor(spaces: Sequence[Counter]) -> Counter:
    """Tensor product: characters multiply (xor), multiplicities convolve."""
    if not spaces:
        raise ValueError("need at least one space")
    result = spaces[0]
    for space in spaces[1:]:
        nxt: Counter = Counter()
        for chi, m in result.items():
            for psi, n in space.items():
                nxt[chi ^ psi] += m * n
        result = nxt
    return +result


def invariant_dim(space: Counter, subgroup_gens: Sequence[int]) -> int:
    """Dimension of the subspace fixed by the given subgroup generators:
    chi is +1 on the word w exactly when chi . w is even."""
    return sum([
        m
        for chi, m in space.items()
        # a generator: any() stops at the first word that negates chi
        if not any((chi & w).bit_count() & 1 for w in subgroup_gens)
    ])


def legendre_pair_space(actions: Sequence[tuple[int, int]]) -> Counter:
    """The 2-dim section space spanned by 1 and the Legendre function."""
    return Counter([0, character_of_basis(actions)])


def pencil_spaces(actions: Sequence[int]) -> list[Counter]:
    """The three section-pair factors of the invariant pencil, graded by
    the first four generators' (e-halves, tau-halves) on coordinates 1..3."""
    return [
        legendre_pair_space([(a >> 3 * c + 1 & 1, a >> 3 * c + 2 & 1) for a in actions[:4]])
        for c in range(3)
    ]


_CURVE = 0o7700  # the bits of actions_mod2 on coordinates 2 and 3


def curve_span(actions: Sequence[int]) -> list[int]:
    """G's image on the genus-5 curve: the span_mod2 table of the actions
    on coordinates 2 and 3, table[w] the action of the word (mask) w."""
    return span_mod2([a & _CURVE for a in actions])[0]


def d_factor_branch_elements(curve: Sequence[int]) -> BranchedCoverData:
    """Branch data of the genus-5 factor over its quotient line.  The cover
    group is G's image on the curve, curve = curve_span(actions), and each
    branch image is the word w, a mask, of an action curve[w].  The genus
    is not judged here; the claims table does.

    An element fixes points of the curve exactly when its torus action
    does not translate a +1 coordinate and is not the free elliptic double
    involution:

    * both signs -1 with nonzero translation: the half-points carry the
      zero/pole (or +-square-root) values the curve equation matches;
    * both signs -1 with zero translation: the fixed set is the
      2-torsion, where the section values avoid the invariant constant;
    * one sign +1: fixed points exist iff that coordinate's translation
      vanishes, and then the fixed fibers meet the curve.
    """
    chosen = []
    for word, action in enumerate(curve):
        d2, d3 = action >> 6 & 7, action >> 9 & 7  # coordinates 2 and 3
        free_translation = d2 in (2, 4, 6) or d3 in (2, 4, 6)  # sign +1, a half shift
        if action and not (free_translation or d2 == d3 == 1):
            chosen.append(word)
    return BranchedCoverData(len(curve).bit_length() - 1, tuple(chosen))


def _branch_dual_characters(cover: BranchedCoverData) -> list[int]:
    """One functional mask per branch element, nontrivial on all the others:
    they index the 5-dim space of one-forms of the genus-5 cover, one line
    per intermediate elliptic quotient."""
    parities, m = cover.pairings, len(cover.branch_images)
    functionals = []
    for j in range(m):
        want = (1 << m) - 1 - (1 << (m - 1 - j))  # every image but the j-th
        count = parities.count(want)
        if count != 1:
            raise ValueError(f"branch {j} has {count} dual functionals, not 1")
        functionals.append(parities.index(want))
    return functionals


def one_forms_space(cover: BranchedCoverData, actions: Sequence[int], curve: list[int]) -> Counter:
    """The 7-dim space of one-forms on the product threefold, graded by
    the generators' sign bits on the torus coordinates and the dual
    functionals of cover = d_factor_branch_elements(curve), lifted to G
    through each generator's word in curve = curve_span(actions)."""
    words = [curve.index(a & _CURVE) for a in actions]
    torus = [[a >> 3 * coord for a in actions] for coord in (0, 1)]
    duals = [[(phi & w).bit_count() for w in words] for phi in _branch_dual_characters(cover)]
    return Counter(map(_mask, torus + duals))


def one_forms_invariants(space: Counter) -> int:
    """One-forms of a one_forms_space invariant under the whole acting
    group: those on which every generator acts as +1, the zero character."""
    return sum(m for chi, m in space.items() if not chi)


def pencil_fixed_parameters(A: complex) -> tuple[complex, complex]:
    """Fixed points of c -> A/c on the parameter line: the two square
    roots of A."""
    if abs(A) < 1e-15:
        raise ZeroParameter("pencil parameter product must be nonzero")
    root = cmath.sqrt(A)
    return (root, -root)


def pencil_invariant_count(A: complex) -> int:
    """Number of members of the invariant pencil fixed by the residual
    involution c -> A/c: always the two square-root parameters; 0 and
    infinity are degenerate members, never fixed since A != 0."""
    return len(set(pencil_fixed_parameters(A)))
