"""Sign-character bookkeeping for elementary abelian 2-group actions on
section spaces.

Every representation handled here is a direct sum of one-dimensional
eigenspaces on which each chosen group generator acts as +1 or -1, so a
representation is just a multiset of sign strings.  The two concrete
inputs are:

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
from itertools import product
from operator import mul
from typing import Mapping, Sequence

from ._record import record
from .affine_groups import AffineElement, standard_generators
from .orbifold_covers import BranchedCoverData, cover_genus


class UnsupportedTranslation(Exception):
    """The generator moves the section pair projectively, not linearly."""


class ZeroParameter(Exception):
    """The pencil involution degenerates only for parameter zero."""


Action = tuple[int, "int | tuple[int, int]"]


@record
class SignCharacter:
    """A +-1 string, one entry per generator of the acting group."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("character entries must be +-1")

    @staticmethod
    def trivial(k: int) -> "SignCharacter":
        return SignCharacter((1,) * k)

    def __mul__(self, other: "SignCharacter") -> "SignCharacter":
        if len(self.signs) != len(other.signs):
            raise ValueError("generator counts differ")
        return SignCharacter(tuple(a * b for a, b in zip(self.signs, other.signs)))

    def value_on(self, word: Sequence[int]) -> int:
        """Character value on the group element with exponent vector word."""
        if len(word) != len(self.signs):
            raise ValueError("word length must match generator count")
        value = 1
        for s, w in zip(self.signs, word):
            if w % 2:
                value *= s
        return value


@record
class GradedSpace:
    """A representation recorded as character -> multiplicity."""

    components: Mapping[SignCharacter, int]

    def __post_init__(self) -> None:
        if any(m < 0 for m in self.components.values()):
            raise ValueError("multiplicities must be nonnegative")
        lengths = {len(c.signs) for c in self.components}
        if len(lengths) > 1:
            raise ValueError("characters index different generator lists")

    @staticmethod
    def of(pairs: Mapping[SignCharacter, int]) -> "GradedSpace":
        return GradedSpace({c: m for c, m in pairs.items() if m})


def character_of_basis(actions: Sequence[Action]) -> SignCharacter:
    """Eigenvalue string of the Legendre basis section under each generator.

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
        entries.append(-1 if u % 2 else 1)
    return SignCharacter(tuple(entries))


def coordinate_action(g: AffineElement, coord: int) -> Action:
    """(sign, (e-halves, tau-halves)) of g on one torus coordinate."""
    return (g.sign_at(coord), (g.trans[coord] % 2, g.trans[g.n + coord] % 2))


def tensor(spaces: Sequence[GradedSpace]) -> GradedSpace:
    """Tensor product: characters multiply, multiplicities convolve."""
    if not spaces:
        raise ValueError("need at least one space")
    result = dict(spaces[0].components)
    for space in spaces[1:]:
        nxt: dict[SignCharacter, int] = {}
        for chi, m in result.items():
            for psi, n in space.components.items():
                prod_chi = chi * psi
                nxt[prod_chi] = nxt.get(prod_chi, 0) + m * n
        result = nxt
    return GradedSpace.of(result)


def invariant_dim(space: GradedSpace, subgroup_gens: Sequence[Sequence[int]]) -> int:
    """Dimension of the subspace fixed by the given subgroup generators."""
    return sum(
        m
        for chi, m in space.components.items()
        if all(chi.value_on(word) == 1 for word in subgroup_gens)
    )


def legendre_pair_space(actions: Sequence[Action]) -> GradedSpace:
    """The 2-dim section space spanned by 1 and the Legendre function."""
    k = len(actions)
    chi = character_of_basis(actions)
    space = {SignCharacter.trivial(k): 1}
    space[chi] = space.get(chi, 0) + 1
    return GradedSpace.of(space)


def pencil_spaces() -> list[GradedSpace]:
    """The three section-pair factors of the invariant pencil, graded by
    the first four standard generators acting on coordinates 1..3."""
    gens = standard_generators().generators[:4]
    return [
        legendre_pair_space([coordinate_action(g, coord) for g in gens])
        for coord in range(3)
    ]


def _d_factor_elements(
    gens: Sequence[AffineElement],
) -> dict[tuple[int, ...], AffineElement]:
    """The image of g2^a g3^b g4^c g5^d (gens = g2 .. g5) for every 0/1
    word (a, b, c, d), composed left to right from the identity.  A word's
    prefix, the word with its last 1 cleared, comes earlier in product
    order, so each element is one composition with the last generator."""
    elements = {(0,) * len(gens): AffineElement((1, 1, 1, 1), (0,) * 8)}
    for word in product((0, 1), repeat=len(gens)):
        if any(word):
            last = max(k for k, e in enumerate(word) if e)
            prefix = word[:last] + (0,) * (len(word) - last)
            elements[word] = elements[prefix].compose(gens[last])
    return elements


def _d_factor_action(element: AffineElement) -> list[tuple[int, int, int]]:
    """(sign, e-halves, tau-halves) on the two curve coordinates; well
    defined mod 2 since commutators translate by full lattice vectors."""
    return [
        (element.sign_at(c), element.trans[c] % 2, element.trans[4 + c] % 2)
        for c in (2, 3)
    ]


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
    elements = _d_factor_elements(standard_generators().generators[1:])
    chosen = []
    for word, element in elements.items():
        if not any(word):
            continue
        action = _d_factor_action(element)
        ok = True
        for sign, u, v in action:
            if sign == 1 and (u or v):
                ok = False  # free translation on one coordinate
        if all(sign == -1 for sign, _, _ in action):
            if not any(u or v for _, u, v in action):
                ok = False  # double elliptic involution misses the curve
        if ok:
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


def one_forms_space() -> GradedSpace:
    """The 7-dim space of one-forms on the product threefold, graded by
    the five standard generators."""
    gens = standard_generators().generators
    components: dict[SignCharacter, int] = {}
    for coord in (0, 1):
        chi = SignCharacter(tuple(g.sign_at(coord) for g in gens))
        components[chi] = components.get(chi, 0) + 1
    for phi in _branch_dual_characters():
        chi = SignCharacter((1, *(-1 if p else 1 for p in phi)))
        components[chi] = components.get(chi, 0) + 1
    return GradedSpace.of(components)


def one_forms_invariants(
    subgroup_gens: Sequence[Sequence[int]] | None = None,
) -> int:
    """Invariant one-forms under a subgroup of the acting group, given by
    exponent words in the five standard generators; defaults to the whole
    group."""
    if subgroup_gens is None:
        subgroup_gens = [
            tuple(1 if i == j else 0 for i in range(5)) for j in range(5)
        ]
    return invariant_dim(one_forms_space(), subgroup_gens)


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
