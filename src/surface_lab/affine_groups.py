"""Affine lattice extensions generated by sign flips and half translations.

Model: transformations of C^n of the form z |-> eps * z + t, where eps is a
diagonal sign vector and t lies in (1/2) Lambda for the rank-2n lattice
Lambda = Z e_1 + ... + Z e_n + Z tau_1 e_1 + ... + Z tau_n e_n.

Coordinate conventions used throughout this module:

* full-lattice coordinates: length-2n integer vectors over the ordered
  basis (e_1, ..., e_n, tau_1 e_1, ..., tau_n e_n);
* half-lattice coordinates: the same vectors doubled, so the translation
  (1/2)(e_1 + tau_2 e_2) of an AffineElement with n = 2 is stored as
  (1, 0, 0, 1).

A sign eps_i acts simultaneously on the e_i and tau_i e_i coordinates
because both span the i-th complex line.  Under composition
(eps, t) (eps', t') = (eps eps', eps t' + t), the commutator of two
elements is the pure translation (eps - 1) t' - (eps' - 1) t and the
square of (eps, t) is the translation (eps + 1) t; both are computed here
in half-lattice coordinates and returned as full-lattice coordinate
tuples.

An extension of (Z/2)^m by Lambda is presented by its generating set, a
plain tuple of m AffineElements on one C^n (n is read off the first).
Its commutator table holds [g_i, g_j] for i < j in combinations order;
the abelianization and the commutator span read it, and build it from
the generators when not given one.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from ._record import record
from .integer_algebra import FinAbGroup, cokernel, rank_mod2


class NotInLattice(Exception):
    """A derived translation fell outside the full lattice."""


@record
class AffineElement:
    """z |-> signs * z + trans/2 with trans in half-lattice coordinates."""

    signs: tuple[int, ...]
    trans: tuple[int, ...]

    def __post_init__(self) -> None:
        if any([s not in (-1, 1) for s in self.signs]):
            raise ValueError("signs must be +1 or -1")
        if len(self.trans) != 2 * len(self.signs):
            raise ValueError("trans must have length 2n in half-lattice coordinates")

    @property
    def n(self) -> int:
        return len(self.signs)


def _halves_to_lattice(halves: tuple[int, ...]) -> tuple[int, ...]:
    if any([h % 2 for h in halves]):
        raise NotInLattice(f"odd half-coordinates in {halves}")
    return tuple([h // 2 for h in halves])


def commutator(g: AffineElement, h: AffineElement) -> tuple[int, ...]:
    """[g, h] = g h g^-1 h^-1 as a full-lattice translation.

    Evaluates (eps - 1) t' - (eps' - 1) t in half-lattice coordinates and
    divides out; raises NotInLattice if any coordinate stays odd.
    """
    if len(g.signs) != len(h.signs):
        raise ValueError("dimension mismatch")
    halves = tuple([
        (s - 1) * b - (r - 1) * a
        for s, r, a, b in zip(g.signs * 2, h.signs * 2, g.trans, h.trans)
    ])
    return _halves_to_lattice(halves)


def commutator_table(gens: tuple[AffineElement, ...]) -> tuple[tuple[int, ...], ...]:
    """[g_i, g_j] for every pair i < j, in itertools.combinations order:
    [g1, g2], [g1, g3], ..., [g2, g3], ..., the pairs with g1 first."""
    return tuple([commutator(g, h) for g, h in combinations(gens, 2)])


def square_translation(g: AffineElement) -> tuple[int, ...]:
    """g^2 = (eps + 1) t as a full-lattice translation."""
    halves = tuple([(s + 1) * a for s, a in zip(g.signs * 2, g.trans)])
    return _halves_to_lattice(halves)


def standard_generators() -> tuple[AffineElement, ...]:
    """The five standard generators acting on C^4.

    g1 = ((-1, 1, 1, 1), (1/2)(e1 + e2))
    g2 = ((1, -1, 1, -1), (1/2)(e2 + e3 + e4))
    g3 = ((1, 1, -1, -1), (1/2)(e1 + e3 + e4))
    g4 = ((1, 1, -1, -1), 0)
    g5 = ((1, 1, 1, 1), (1/2)(tau1 e1 + tau2 e2 + tau3 e3 + tau4 e4))
    """
    g1 = AffineElement((-1, 1, 1, 1), (1, 1, 0, 0, 0, 0, 0, 0))
    g2 = AffineElement((1, -1, 1, -1), (0, 1, 1, 1, 0, 0, 0, 0))
    g3 = AffineElement((1, 1, -1, -1), (1, 0, 1, 1, 0, 0, 0, 0))
    g4 = AffineElement((1, 1, -1, -1), (0, 0, 0, 0, 0, 0, 0, 0))
    g5 = AffineElement((1, 1, 1, 1), (0, 0, 0, 0, 1, 1, 1, 1))
    return (g1, g2, g3, g4, g5)


def actions_mod2(gens: tuple[AffineElement, ...]) -> tuple[int, ...]:
    """Each generator mod 2 as an int, one octal digit per coordinate c
    (bits 3c to 3c + 2): 1 if it negates c, plus 2 and 4 for odd e- and
    tau-halves.  As eps t' = t' mod 2, a word acts as the xor of its letters."""
    actions = []
    for g in gens:
        n, t, bits = g.n, g.trans, 0
        for c in reversed(range(n)):
            bits = 8 * bits + (g.signs[c] < 0) + 2 * (t[c] & 1) + 4 * (t[n + c] & 1)
        actions.append(bits)
    return tuple(actions)


def span_mod2(letters: Sequence[int]) -> tuple[list[int], list[int]]:
    """(table, kept): the span of actions_mod2 ints grown letter by letter,
    and the letters that enlarged it.  table[w] is the word with mask w in
    the kept letters, in product order, so len(table) is the group order."""
    table, kept = [0], []
    for i, a in enumerate(letters):
        if a not in table:
            grown = table * 2
            grown[::2], grown[1::2] = table, [w ^ a for w in table]
            table = grown
            kept.append(i)
    return table, kept


def check_sign_condition(gens: tuple[AffineElement, ...]) -> bool:
    """Every lattice coordinate is negated by some word in the generators.

    Checked per complex coordinate i, as both lattice coordinates of the
    i-th line share its sign.  A word's sign at i is the product of its
    letters' signs there, so a word negates i only if one of its letters
    does, and that letter alone is such a word: the condition holds
    exactly when every coordinate has a generator with sign -1 there.
    """
    return all(any(g.signs[i] == -1 for g in gens) for i in range(gens[0].n))


def abelianization_relations(
    gens: tuple[AffineElement, ...],
    commutators: tuple[tuple[int, ...], ...] | None = None,
) -> list[list[int]]:
    """Relation matrix for the abelianized extension; commutators is
    commutator_table(gens), built here if not given.

    Generators (columns): the m group generators followed by the 2n
    lattice generators.  Rows:

    * one row per generator pair (i < j), in the table's order: the
      commutator [g_i, g_j] written in the lattice block (it dies in the
      abelianization);
    * one row per generator: 2 g_i - (square translation of g_i);
    * one row per generator and lattice coordinate: (eps_i - 1) lambda_k.
    """
    m = len(gens)
    width = m + 2 * gens[0].n
    if commutators is None:
        commutators = commutator_table(gens)
    rows = [[0] * m + list(c) for c in commutators]
    for i, g in enumerate(gens):
        row = [0] * width
        row[i] = 2
        for k, v in enumerate(square_translation(g)):
            row[m + k] = -v
        rows.append(row)
    for g in gens:
        for k, sign in enumerate(g.signs * 2):
            factor = sign - 1
            if factor:
                row = [0] * width
                row[m + k] = factor
                rows.append(row)
    return rows


def abelianize_extension(
    gens: tuple[AffineElement, ...],
    commutators: tuple[tuple[int, ...], ...] | None = None,
) -> FinAbGroup:
    """Abelianization of the extension the generators present;
    commutators is commutator_table(gens), built if not given."""
    return cokernel(abelianization_relations(gens, commutators))


def commutator_subspan_rank(
    gens: tuple[AffineElement, ...],
    commutators: tuple[tuple[int, ...], ...] | None = None,
) -> int:
    """F_2-rank of the commutators [g_1, g_j], j > 1, in full-lattice
    coordinates: the first m - 1 entries of commutators, which is
    commutator_table(gens), built if not given.  The commutators are
    reduced against the doubled lattice, so this is the rank of their span
    inside Lambda / 2 Lambda.
    """
    if commutators is None:
        commutators = commutator_table(gens)
    return rank_mod2([c for c, _ in zip(commutators, gens[1:])])
