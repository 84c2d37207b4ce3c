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
  when t contains the e-half-translation 1/2;
* the 7-dimensional space of global one-forms on the product threefold,
  whose genus-5 summand decomposes by the branch combinatorics of the
  (Z/2)^4 cover of the line.

Half-period translations by tau/2 do not act linearly on the section
pair (they swap the pencil members instead) and are rejected.
"""

from __future__ import annotations

import cmath
from collections import Counter
from itertools import product
from math import prod
from operator import mul
from typing import Sequence

from .affine_groups import AffineElement, standard_generators
from .orbifold_covers import BranchedCoverData, cover_genus


class UnsupportedTranslation(Exception):
    """The generator moves the section pair projectively, not linearly."""


class ZeroParameter(Exception):
    """The pencil involution degenerates only for parameter zero."""


Action = tuple[int, "int | tuple[int, int]"]


def character_of_basis(actions: Sequence[Action]) -> tuple[int, ...]:
    """Character of the Legendre basis section, one entry per generator.

    Each action is (sign, t) for z -> sign * z + t, with t recorded in
    half-units: either a single integer (count of e-halves) or a pair
    (e-halves, tau-halves).  Evenness makes the sign irrelevant; the
    eigenvalue is -1 exactly when the e-half count is odd.  An odd
    tau-half count is rejected: that translation maps the section pair
    into a different pencil member rather than scaling it.
    """
    entries = []
    for sign, trans in actions:
        if sign not in (1, -1):
            raise ValueError("linear part must be +-1")
        if isinstance(trans, tuple):
            u, v = trans
        else:
            u, v = trans, 0
        if v % 2:
            raise UnsupportedTranslation(
                "tau-half translation does not act linearly on the sections"
            )
        entries.append(u % 2)
    return tuple(entries)


def coordinate_action(g: AffineElement, coord: int) -> Action:
    """(sign, (e-halves, tau-halves)) of g on one torus coordinate."""
    return (g.sign_at(coord), (g.trans[coord] % 2, g.trans[g.n + coord] % 2))


def tensor(spaces: Sequence[Counter]) -> Counter:
    """Tensor product: characters multiply (xor), multiplicities convolve."""
    if not spaces:
        raise ValueError("need at least one space")
    result = spaces[0]
    for space in spaces[1:]:
        nxt: Counter = Counter()
        for chi, m in result.items():
            for psi, n in space.items():
                nxt[tuple(a ^ b for a, b in zip(chi, psi, strict=True))] += m * n
        result = nxt
    return +result


def invariant_dim(space: Counter, subgroup_gens: Sequence[Sequence[int]]) -> int:
    """Dimension of the subspace fixed by the given subgroup generators:
    chi is +1 on the word w exactly when chi . w is even."""
    return sum(
        m
        for chi, m in space.items()
        if all(
            sum(a * w for a, w in zip(chi, word, strict=True)) % 2 == 0
            for word in subgroup_gens
        )
    )


def legendre_pair_space(actions: Sequence[Action]) -> Counter:
    """The 2-dim section space spanned by 1 and the Legendre function."""
    return Counter([(0,) * len(actions), character_of_basis(actions)])


def pencil_spaces() -> list[Counter]:
    """The three section-pair factors of the invariant pencil, graded by
    the first four standard generators acting on coordinates 1..3."""
    gens = standard_generators().generators[:4]
    return [
        legendre_pair_space([coordinate_action(g, coord) for g in gens])
        for coord in range(3)
    ]


def _mod2_actions() -> dict[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """(sign, e-halves, tau-halves) of g2^a g3^b g4^c g5^d on the two curve
    coordinates, the halves mod 2, for every 0/1 word (a, b, c, d).

    Mod 2 this is a homomorphism: under (eps, t)(eps', t') =
    (eps eps', eps t' + t) signs multiply, and eps t' = t' mod 2, so
    half-translations add.  A word's action is thus the product of its
    letters' signs and the xor of their half-translations; the order of
    the letters does not matter, as commutators translate by full lattice
    vectors.
    """
    gens = standard_generators().generators[1:]
    actions = {}
    for word in product((0, 1), repeat=len(gens)):
        letters = [g for g, e in zip(gens, word) if e]
        actions[word] = tuple(
            (
                prod(g.sign_at(c) for g in letters),
                sum(g.trans[c] for g in letters) % 2,
                sum(g.trans[g.n + c] for g in letters) % 2,
            )
            for c in (2, 3)
        )
    return actions


def d_factor_branch_elements() -> tuple[tuple[int, ...], ...]:
    """Branch images of the genus-5 factor over its quotient line, as
    vectors over the images of the last four standard generators.

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
    for word, action in _mod2_actions().items():
        if not any(word):
            continue
        free_translation = any(sign == 1 and (u or v) for sign, u, v in action)
        double_involution = all(sign == -1 and not (u or v) for sign, u, v in action)
        if not (free_translation or double_involution):
            chosen.append(word)
    genus = cover_genus(BranchedCoverData(4, tuple(chosen)))
    if genus != 5:
        raise AssertionError(f"derived branch data has genus {genus}, not 5")
    return tuple(chosen)


def _branch_dual_characters() -> list[tuple[int, ...]]:
    """One functional per branch element: nontrivial on all the others.

    These index the 5-dim space of one-forms of the genus-5 cover, one
    line per intermediate elliptic quotient.
    """
    branches = d_factor_branch_elements()
    values = {
        phi: tuple(sum(map(mul, phi, v)) % 2 for v in branches)
        for phi in product((0, 1), repeat=4)
    }
    functionals = []
    for j in range(len(branches)):
        want = tuple(0 if i == j else 1 for i in range(len(branches)))
        matches = [phi for phi, value in values.items() if value == want]
        if len(matches) != 1:
            raise AssertionError("branch data does not determine the character")
        functionals.append(matches[0])
    return functionals


def one_forms_space() -> Counter:
    """The 7-dim space of one-forms on the product threefold, graded by
    the five standard generators."""
    gens = standard_generators().generators
    space = Counter(tuple((1 - g.sign_at(coord)) // 2 for g in gens) for coord in (0, 1))
    space.update((0, *phi) for phi in _branch_dual_characters())
    return space


def one_forms_invariants() -> int:
    """One-forms invariant under the whole acting group: those on which
    every standard generator acts as +1, the zero character."""
    return sum(m for chi, m in one_forms_space().items() if not any(chi))


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
