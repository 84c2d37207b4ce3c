import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surface_lab.affine_groups import (
    AffineElement,
    ExtensionData,
    NotInLattice,
    _halves_to_lattice,
    abelianize_extension,
    abelianization_relations,
    check_sign_condition,
    commutator,
    commutator_subspan_rank,
    standard_generators,
    square_translation,
)
from surface_lab.integer_algebra import FinAbGroup

from oracles import compose, groups_isomorphic, sign_condition_witnesses, translate


# ---------------------------------------------------------------------------
# independent oracle: apply affine maps to a generic point with exact
# rational coordinates (x + y * tau_i per complex line) and read the
# translation off the displacement, bypassing the closed commutator formula
# ---------------------------------------------------------------------------

Point = list[tuple[Fraction, Fraction]]


def apply(g: AffineElement, z: Point) -> Point:
    out: Point = []
    for i in range(g.n):
        x, y = z[i]
        s = g.signs[i]
        out.append(
            (s * x + Fraction(g.trans[i], 2), s * y + Fraction(g.trans[g.n + i], 2))
        )
    return out


def apply_inverse(g: AffineElement, z: Point) -> Point:
    out: Point = []
    for i in range(g.n):
        x, y = z[i]
        s = g.signs[i]
        out.append(
            (s * (x - Fraction(g.trans[i], 2)), s * (y - Fraction(g.trans[g.n + i], 2)))
        )
    return out


def displacement(g: AffineElement, h: AffineElement, z: Point) -> Point:
    w = apply(g, apply(h, apply_inverse(g, apply_inverse(h, z))))
    return [(wx - zx, wy - zy) for (wx, wy), (zx, zy) in zip(w, z)]


def generic_point(n: int, rng: random.Random) -> Point:
    return [
        (Fraction(rng.randint(-50, 50), 7), Fraction(rng.randint(-50, 50), 11))
        for _ in range(n)
    ]


def as_point(v: tuple[int, ...]) -> Point:
    n = len(v) // 2
    return [(Fraction(v[i]), Fraction(v[n + i])) for i in range(n)]


# ---------------------------------------------------------------------------
# frozen commutator and square tables for the five standard generators
# ---------------------------------------------------------------------------

COMMUTATOR_TABLE = {
    (0, 1): (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 2): (-1, 0, 0, 0, 0, 0, 0, 0),
    (0, 3): (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 4): (0, 0, 0, 0, -1, 0, 0, 0),
    (1, 2): (0, 0, 1, 0, 0, 0, 0, 0),
    (1, 3): (0, 0, 1, 1, 0, 0, 0, 0),
    (1, 4): (0, 0, 0, 0, 0, -1, 0, -1),
    (2, 3): (0, 0, 1, 1, 0, 0, 0, 0),
    (2, 4): (0, 0, 0, 0, 0, 0, -1, -1),
    (3, 4): (0, 0, 0, 0, 0, 0, -1, -1),
}

SQUARE_TABLE = {
    0: (0, 1, 0, 0, 0, 0, 0, 0),
    1: (0, 0, 1, 0, 0, 0, 0, 0),
    2: (1, 0, 0, 0, 0, 0, 0, 0),
    3: (0, 0, 0, 0, 0, 0, 0, 0),
    4: (0, 0, 0, 0, 1, 1, 1, 1),
}


def test_commutator_table_matches_formula_and_oracle():
    gens = standard_generators().generators
    rng = random.Random(7)
    for (i, j), expected in COMMUTATOR_TABLE.items():
        got = commutator(gens[i], gens[j])
        assert got == expected, f"[g{i+1}, g{j+1}]"
        z = generic_point(4, rng)
        assert displacement(gens[i], gens[j], z) == as_point(expected)


def test_squares_match_symbolic_composition():
    gens = standard_generators().generators
    for i, expected in SQUARE_TABLE.items():
        assert square_translation(gens[i]) == expected
        z = [(Fraction(3, 7), Fraction(-2, 5))] * 4
        w = apply(gens[i], apply(gens[i], z))
        assert [(wx - zx, wy - zy) for (wx, wy), (zx, zy) in zip(w, z)] == as_point(
            expected
        )


def test_commutator_antisymmetry():
    gens = standard_generators().generators
    for i in range(5):
        for j in range(5):
            assert commutator(gens[i], gens[j]) == tuple(
                -v for v in commutator(gens[j], gens[i])
            )


def test_sign_condition_holds_with_witnesses():
    data = standard_generators()
    assert check_sign_condition(data)
    witnesses = sign_condition_witnesses(data)
    assert witnesses is not None
    for coord, word in enumerate(witnesses):
        sign = 1
        for idx in word:
            sign *= data.generators[idx].signs[coord]
        assert sign == -1


def test_sign_condition_fails_without_full_coverage():
    # two coordinates, signs only ever flip the first
    g = AffineElement((-1, 1), (0, 0, 0, 0))
    data = ExtensionData(2, (g,))
    assert not check_sign_condition(data)
    assert sign_condition_witnesses(data) is None


@st.composite
def extension_data(draw):
    """1-4 coordinates and 1-5 generators with random signs and halves."""
    n = draw(st.integers(1, 4))
    signs = st.tuples(*[st.sampled_from((-1, 1))] * n)
    halves = st.tuples(*[st.integers(-2, 2)] * (2 * n))
    gens = draw(st.lists(st.builds(AffineElement, signs, halves), min_size=1, max_size=5))
    return ExtensionData(n, tuple(gens))


@settings(max_examples=200, deadline=None)
@given(extension_data())
def test_sign_condition_agrees_with_the_witness_search(data):
    # the breadth-first search over words is the independent route
    assert check_sign_condition(data) == (sign_condition_witnesses(data) is not None)


def test_abelianization_of_standard_extension():
    group = abelianize_extension(standard_generators())
    assert group == FinAbGroup(0, (2, 2, 2, 2, 4))
    assert group.order() == 64
    assert str(group) == "(Z/2)^4 x Z/4"


def test_abelianization_small_oracles():
    # single pure translation by (1/2) e1 on a rank-2 lattice: squaring to
    # e1 gives relation matrix [[2, -1, 0]] with Smith form (1), leaving Z^2
    t = AffineElement((1,), (1, 0))
    assert abelianize_extension(ExtensionData(1, (t,))) == FinAbGroup(2)
    # single negation z |-> -z: gamma^2 = 0 and both lambdas are killed mod 2
    neg = AffineElement((-1,), (0, 0))
    assert abelianize_extension(ExtensionData(1, (neg,))) == FinAbGroup(0, (2, 2, 2))


def test_relation_matrix_shape():
    m = abelianization_relations(standard_generators())
    # 10 commutator rows, 5 square rows, one row per (generator, negated coord)
    assert m.ncols == 5 + 8
    negated = sum(
        1
        for g in standard_generators().generators
        for k in range(8)
        if g.sign_at(k) == -1
    )
    assert m.nrows == 10 + 5 + negated


def test_commutator_subspan_ranks():
    data = standard_generators()
    assert commutator_subspan_rank(data, 0) == 3


def test_lift_independence_of_abelianization():
    base = abelianize_extension(standard_generators())
    rng = random.Random(11)
    for _ in range(10):
        gens = []
        for g in standard_generators().generators:
            shift = tuple(rng.randint(-3, 3) for _ in range(8))
            gens.append(translate(g, shift))
        lifted = abelianize_extension(ExtensionData(4, tuple(gens)))
        assert groups_isomorphic(lifted, base)


def test_translate_changes_lift_not_image():
    g = standard_generators().generators[0]
    moved = translate(g, (1, 0, 0, 0, 0, 2, 0, 0))
    assert moved.signs == g.signs
    # the difference of translations is twice a lattice vector
    assert all((a - b) % 2 == 0 for a, b in zip(moved.trans, g.trans))


def test_dimension_mismatch_rejected():
    a = AffineElement((1,), (0, 0))
    b = AffineElement((1, 1), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        commutator(a, b)
    with pytest.raises(ValueError):
        compose(a, b)
    with pytest.raises(ValueError):
        AffineElement((1, 2), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        AffineElement((1, 1), (0, 0))


def test_half_coordinate_guard():
    # commutators and squares of half-lattice elements always land in the
    # lattice, so the parity guard only fires on raw odd input
    with pytest.raises(NotInLattice):
        _halves_to_lattice((1, 0))
    assert _halves_to_lattice((4, -2)) == (2, -1)


sign_vectors = st.lists(st.sampled_from((-1, 1)), min_size=2, max_size=2)
half_vectors = st.lists(st.integers(-4, 4), min_size=4, max_size=4)


@settings(max_examples=80, deadline=None)
@given(sign_vectors, half_vectors, sign_vectors, half_vectors)
def test_commutator_formula_agrees_with_composition(s1, t1, s2, t2):
    g = AffineElement(tuple(s1), tuple(t1))
    h = AffineElement(tuple(s2), tuple(t2))
    z = [(Fraction(5, 13), Fraction(-4, 9)), (Fraction(1, 3), Fraction(2, 7))]
    assert displacement(g, h, z) == as_point(commutator(g, h))


@settings(max_examples=80, deadline=None)
@given(sign_vectors, half_vectors, sign_vectors, half_vectors)
def test_compose_is_the_composition_of_maps(s1, t1, s2, t2):
    g = AffineElement(tuple(s1), tuple(t1))
    h = AffineElement(tuple(s2), tuple(t2))
    z = [(Fraction(3, 17), Fraction(-5, 8)), (Fraction(7, 6), Fraction(1, 9))]
    assert apply(compose(g, h), z) == apply(g, apply(h, z))


@settings(max_examples=80, deadline=None)
@given(sign_vectors, half_vectors)
def test_square_is_composition_with_itself(s, t):
    g = AffineElement(tuple(s), tuple(t))
    z = [(Fraction(2, 5), Fraction(3, 11)), (Fraction(-1, 4), Fraction(0))]
    w = apply(g, apply(g, z))
    assert [
        (wx - zx, wy - zy) for (wx, wy), (zx, zy) in zip(w, z)
    ] == as_point(square_translation(g))
