"""Sign-character bookkeeping for elementary abelian 2-group actions on
section spaces.

Every representation handled here is a direct sum of one-dimensional
eigenspaces on which each chosen group generator acts as +1 or -1.  Such
a sign character of (Z/2)^k is held as its F_2 exponent tuple: entry i
is 1 where generator i acts as -1.  Characters multiply by xor, and the
value of chi on the element with exponent word w is (-1)^(chi . w).  A
representation is a Counter of characters, mapping each to its
multiplicity.  The two concrete inputs are:

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
  from the generators' action on the genus-5 factor, and it is the one
  cover the claims table judges; each summand's dual functional is read
  from the pairing table the cover built.

Whatever reads the group action takes the generators the run built.
"""

from __future__ import annotations

import cmath
from collections import Counter
from collections.abc import Sequence

from .affine_groups import AffineElement
from .orbifold_covers import BranchedCoverData


class UnsupportedTranslation(Exception):
    """The generator moves the section pair projectively, not linearly."""


class ZeroParameter(Exception):
    """The pencil involution degenerates only for parameter zero."""


def character_of_basis(actions: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Character of the Legendre basis section, one entry per generator.

    Each action is the translation part (e-halves, tau-halves) of
    z -> +-z + t, in half-units; evenness makes the sign irrelevant.  The
    eigenvalue is -1 exactly when the e-half count is odd.  An odd
    tau-half count is rejected: that translation maps the section pair
    into a different pencil member rather than scaling it.
    """
    if any([v % 2 for _, v in actions]):
        raise UnsupportedTranslation("tau-half translation does not act linearly on the sections")
    return tuple([u % 2 for u, _ in actions])


def coordinate_action(g: AffineElement, coord: int) -> tuple[int, int]:
    """(e-halves, tau-halves) of g's translation on one torus coordinate."""
    return (g.trans[coord] % 2, g.trans[g.n + coord] % 2)


def tensor(spaces: Sequence[Counter]) -> Counter:
    """Tensor product: characters multiply (xor), multiplicities convolve."""
    if not spaces:
        raise ValueError("need at least one space")
    result = spaces[0]
    for space in spaces[1:]:
        nxt: Counter = Counter()
        for chi, m in result.items():
            for psi, n in space.items():
                nxt[tuple([a ^ b for a, b in zip(chi, psi, strict=True)])] += m * n
        result = nxt
    return +result


def invariant_dim(space: Counter, subgroup_gens: Sequence[Sequence[int]]) -> int:
    """Dimension of the subspace fixed by the given subgroup generators:
    chi is +1 on the word w exactly when chi . w is even."""
    return sum([
        m
        for chi, m in space.items()
        # a generator: all() stops at the first word that negates chi
        if all(
            sum([a * w for a, w in zip(chi, word, strict=True)]) % 2 == 0
            for word in subgroup_gens
        )
    ])


def legendre_pair_space(actions: Sequence[tuple[int, int]]) -> Counter:
    """The 2-dim section space spanned by 1 and the Legendre function."""
    return Counter([(0,) * len(actions), character_of_basis(actions)])


def pencil_spaces(gens: Sequence[AffineElement]) -> list[Counter]:
    """The three section-pair factors of the invariant pencil, graded by
    the first four generators acting on coordinates 1..3."""
    return [
        legendre_pair_space([coordinate_action(g, coord) for g in gens[:4]])
        for coord in range(3)
    ]


def _mod2_actions(
    gens: Sequence[AffineElement],
) -> dict[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """(sign, e-halves, tau-halves) of g2^a g3^b g4^c g5^d on the two curve
    coordinates, the halves mod 2, for every 0/1 word (a, b, c, d).

    Mod 2 this is a homomorphism: under (eps, t)(eps', t') =
    (eps eps', eps t' + t) signs multiply, and eps t' = t' mod 2, so
    half-translations add.  A word's action is thus the product of its
    letters' signs and the xor of their half-translations; the order of
    the letters does not matter, as commutators translate by full lattice
    vectors.  So the table grows one letter at a time, in product order.
    """
    actions = {(): ((1, 0, 0), (1, 0, 0))}
    for g in gens[1:]:
        r2, x2, y2 = g.sign_at(2), g.trans[2] & 1, g.trans[g.n + 2] & 1
        r3, x3, y3 = g.sign_at(3), g.trans[3] & 1, g.trans[g.n + 3] & 1
        grown = {}
        for word, action in actions.items():
            (s2, u2, v2), (s3, u3, v3) = action
            grown[word + (0,)] = action
            grown[word + (1,)] = ((s2 * r2, u2 ^ x2, v2 ^ y2), (s3 * r3, u3 ^ x3, v3 ^ y3))
        actions = grown
    return actions


def d_factor_branch_elements(gens: Sequence[AffineElement]) -> BranchedCoverData:
    """Branch data of the genus-5 factor over its quotient line: the
    branch images are vectors over the images of the last four
    generators.  The genus is not judged here; the claims table does.

    The first generator acts trivially on the curve factor, so the cover
    group is the quotient by it.  An element fixes points of the curve
    exactly when its torus action does not translate a +1 coordinate
    and is not the free elliptic double involution:

    * both signs -1 with nonzero translation: the half-points carry the
      zero/pole (or +-square-root) values the curve equation matches;
    * both signs -1 with zero translation: the fixed set is the
      2-torsion, where the section values avoid the invariant constant;
    * one sign +1: fixed points exist iff that coordinate's translation
      vanishes, and then the fixed fibers meet the curve.
    """
    chosen = []
    for word, ((s2, u2, v2), (s3, u3, v3)) in _mod2_actions(gens).items():
        if not any(word):
            continue
        free_translation = (s2 == 1 and (u2 or v2)) or (s3 == 1 and (u3 or v3))
        double_involution = s2 == s3 == -1 and not (u2 or v2 or u3 or v3)
        if not (free_translation or double_involution):
            chosen.append(word)
    return BranchedCoverData(len(gens) - 1, tuple(chosen))


def _branch_dual_characters(cover: BranchedCoverData) -> list[tuple[int, ...]]:
    """One functional per branch element: nontrivial on all the others.

    These index the 5-dim space of one-forms of the genus-5 cover, one
    line per intermediate elliptic quotient.
    """
    parities, m = cover.pairings, len(cover.branch_images)
    functionals = []
    for j in range(m):
        # nontrivial on every image but the j-th
        want = (1 << m) - 1 - (1 << (m - 1 - j))
        count = parities.count(want)
        if count != 1:
            raise ValueError(f"branch {j} has {count} dual functionals, not 1")
        phi = parities.index(want)
        functionals.append(tuple([(phi >> k) & 1 for k in range(cover.n - 1, -1, -1)]))
    return functionals


def one_forms_space(cover: BranchedCoverData, gens: Sequence[AffineElement]) -> Counter:
    """The 7-dim space of one-forms on the product threefold, graded by
    the five generators; cover is d_factor_branch_elements(gens)."""
    space = Counter(tuple((1 - g.sign_at(coord)) // 2 for g in gens) for coord in (0, 1))
    space.update((0, *phi) for phi in _branch_dual_characters(cover))
    return space


def one_forms_invariants(space: Counter) -> int:
    """One-forms of a one_forms_space invariant under the whole acting
    group: those on which every generator acts as +1, the zero character."""
    return sum(m for chi, m in space.items() if not any(chi))


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
