import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import xor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from surface_lab.integer_algebra import FinAbGroup
from surface_lab.orbifold_covers import (
    BranchedCoverData,
    IdentityElement,
    NonIntegralGenus,
    _quotient_genus,
    classify_corank1_subgroups,
    cover_genus,
    fixed_point_count,
    orbifold_abelianization,
)

from oracles import (
    Subgroup,
    branch_count,
    contains,
    corank1_histogram,
    homology_bound,
    homology_bound_check,
    pairing_parity,
    quotient_genus,
    random_cover_data,
    standard_cover_data,
    unmask,
    validate_by_columns,
)


def test_standard_cover_data():
    data = standard_cover_data(4)
    assert branch_count(data) == 5
    assert data.branch_images == (0b1000, 0b0100, 0b0010, 0b0001, 0b1111)


def test_cover_genus_values():
    # 2g - 2 = 2^n (-2 + m/2): the three frozen cases
    assert cover_genus(standard_cover_data(4)) == 5
    two_point = BranchedCoverData(1, (1, 1))
    assert cover_genus(two_point) == 0
    four_point_rank3 = BranchedCoverData(3, (0b100, 0b010, 0b001, 0b111))
    assert cover_genus(four_point_rank3) == 1


def test_cover_data_validation():
    with pytest.raises(ValueError, match="sum to zero"):
        BranchedCoverData(2, (0b10, 0b01, 0b10))
    with pytest.raises(ValueError, match="generate"):
        BranchedCoverData(2, (0b10, 0b10))
    with pytest.raises(IdentityElement):
        BranchedCoverData(2, (0b10, 0, 0b10))
    # an image is a mask below 2^n: not a larger int, a negative one or a tuple
    for wrong in (0b100, -1, (1, 0)):
        with pytest.raises(ValueError, match="must be masks below 2"):
            BranchedCoverData(2, (0b10, 0b01, 0b11, wrong))


def test_quotient_genus_frozen_cases():
    data = standard_cover_data(4)
    # hyperplane containing e1, e2, e3: only e4, e5 survive
    assert quotient_genus(data, Subgroup(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))) == 0
    # the full group gives back the line
    full = Subgroup(4, tuple(tuple(1 if k == j else 0 for k in range(4)) for j in range(4)))
    assert quotient_genus(data, full) == 0
    # order-2 subgroup <e1>: 8 sheets, 4 surviving branch points
    assert quotient_genus(data, Subgroup(4, ((1, 0, 0, 0),))) == 1
    # the genus-2 example <e1+e2, e1+e3>
    assert quotient_genus(data, Subgroup(4, ((1, 1, 0, 0), (1, 0, 1, 0)))) == 2
    # trivial subgroup reproduces the cover itself
    assert quotient_genus(data, Subgroup(4, ())) == 5


def test_fixed_point_counts():
    data = standard_cover_data(4)
    for e in data.branch_images:
        assert fixed_point_count(data, e) == 8
    assert fixed_point_count(data, 0b1100) == 0
    assert fixed_point_count(data, 0b1011) == 0
    with pytest.raises(IdentityElement):
        fixed_point_count(data, 0)
    two_point = BranchedCoverData(1, (1, 1))
    assert fixed_point_count(two_point, 1) == 2


def test_fixed_points_partition_total_ramification():
    # sum over all nonzero elements equals m * |G| / 2
    data = standard_cover_data(4)
    total = sum(fixed_point_count(data, v) for v in range(1, 16))
    assert total == 5 * 8


def test_classification_of_corank1_subgroups():
    hist = classify_corank1_subgroups(standard_cover_data(4))
    assert hist == {(1, 1): 5, (3, 0): 10}
    assert sum(hist.values()) == 15
    # no hyperplane contains 0, 2, 4, or 5 of the branch images
    assert all(k[0] in (1, 3) for k in hist)


def test_contains_checks_the_vector_length():
    sub = Subgroup(4, ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert contains(sub, (1, 1, 0, 0))
    assert contains(sub, (3, 1, 0, 2))  # entries are read mod 2
    assert not contains(sub, (0, 0, 1, 0))
    # a vector of another length is an error, as a mask outside
    # range(1 << n) is in fixed_point_count
    for wrong in ((1, 0), (1, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError):
            contains(sub, wrong)
    for wrong in (1 << 4, -1, (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            fixed_point_count(standard_cover_data(4), wrong)


@st.composite
def branch_data(draw):
    """Valid branch data: nonzero images that sum to zero and span F_2^n."""
    n = draw(st.integers(1, 5))
    images = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=n, max_size=n + 3))
    total = reduce(xor, images)
    try:
        return BranchedCoverData(n, tuple(images) + ((total,) if total else ()))
    except ValueError:
        assume(False)


@st.composite
def raw_branch_data(draw):
    """(n, images) for n <= 5, valid or not: masks below 2^n, now and then
    a zero image or one outside range(1 << n), and about half the time the
    images' sum appended so that they sum to zero."""
    n = draw(st.integers(0, 5))
    outside = st.one_of(st.just(-1), st.integers(1 << n, 2 << n))
    mask = st.sampled_from([False] * 15 + [True]).flatmap(
        lambda out: outside if out else st.integers(0, (1 << n) - 1)
    )
    images = draw(st.lists(mask, max_size=n + 3))
    total = reduce(xor, [v for v in images if v in range(1 << n)], 0)
    if draw(st.booleans()):
        images.append(total)
    return n, tuple(images)


def outcome(build, n, images):
    try:
        build(n, images)
    except (ValueError, IdentityElement) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(raw_branch_data())
@example((4, (0b1000, 0b0100, 0b0010, 0b0001, 0b1111)))
@example((2, (0b10, 0b01, 0b10)))  # the sum is not zero
@example((2, (0b10, 0b10)))  # the images do not span
@example((2, (0b10, 0, 0b01)))  # a zero image before an odd sum
@example((2, (0b100, 0)))  # a mask out of range before a zero image
@example((2, ((1, 0), (0, 1), (1, 1))))  # tuples are not masks
@example((0, ()))
@example((3, ()))
def test_validation_accepts_and_raises_as_the_column_route(raw):
    # the pairing table's two readings, every functional pairs evenly and
    # no nonzero functional pairs trivially, against column sums and rank
    n, images = raw
    assert outcome(BranchedCoverData, n, images) == outcome(validate_by_columns, n, images)


@settings(max_examples=60, deadline=None)
@given(branch_data())
def test_each_stored_parity_is_the_pairing(data):
    # pairings[k] belongs to the k-th functional of product((0, 1), repeat=n)
    # and holds its parity on the i-th image at bit m - 1 - i
    m = len(data.branch_images)
    functionals = list(product((0, 1), repeat=data.n))
    assert len(data.pairings) == len(functionals)
    for phi, parities in zip(functionals, data.pairings):
        assert [(parities >> (m - 1 - i)) & 1 for i in range(m)] == [
            pairing_parity(phi, unmask(v, data.n)) for v in data.branch_images
        ]
    # the table is not a field: == and repr read n and the images only
    assert "pairings" not in repr(data)
    assert data == BranchedCoverData(data.n, data.branch_images)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_classification_matches_the_span_oracle(n):
    data = standard_cover_data(n)
    assert classify_corank1_subgroups(data) == corank1_histogram(data)


@settings(max_examples=60, deadline=None)
@given(branch_data())
def test_classification_matches_the_span_oracle_on_drawn_data(data):
    assert classify_corank1_subgroups(data) == corank1_histogram(data)


@pytest.mark.parametrize("seed", range(40))
def test_classification_matches_the_span_oracle_on_seeded_data(seed):
    data = random_cover_data(random.Random(seed), seed % 5 + 1)
    assert list(classify_corank1_subgroups(data).items()) == list(corank1_histogram(data).items())


@pytest.mark.parametrize("n", [3, 5])
def test_classification_matches_a_count_by_functional_parity(n):
    # the index-2 subgroups are the kernels of the nonzero functionals; a
    # branch image lies inside when the functional vanishes on it, and the
    # s images outside branch the double cover G/H of the line, so
    # 2g - 2 = 2 (-2) + s
    data = standard_cover_data(n)
    want: dict[tuple[int, int], int] = {}
    for phi in product((0, 1), repeat=n):
        if not any(phi):
            continue
        inside = sum(1 for e in data.branch_images if pairing_parity(phi, unmask(e, n)) == 0)
        key = (inside, (branch_count(data) - inside - 2) // 2)
        want[key] = want.get(key, 0) + 1
    assert classify_corank1_subgroups(data) == want
    assert sum(want.values()) == (1 << n) - 1


def test_orbifold_abelianization():
    assert orbifold_abelianization(5) == FinAbGroup(0, (2, 2, 2, 2))
    assert orbifold_abelianization(4) == FinAbGroup(0, (2, 2, 2))
    assert orbifold_abelianization(1) == FinAbGroup(0)
    with pytest.raises(ValueError):
        orbifold_abelianization(0)


def test_homology_bound_is_attained():
    bound, actual = homology_bound()
    assert bound == 64
    assert actual == 64
    assert homology_bound_check()


def test_homology_bound_mutation_fails():
    # zeroing the translation of the first generator changes the group,
    # so the attained order must move away from the bound
    from surface_lab.affine_groups import AffineElement, standard_generators

    gens = list(standard_generators())
    gens[0] = AffineElement(gens[0].signs, (0,) * 8)
    assert not homology_bound_check(tuple(gens))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6))
def test_hurwitz_matches_direct_count(n):
    # 2g - 2 equals deg * (2h - 2) plus one ramification unit per point of
    # the total space sitting over a branch point
    data = standard_cover_data(n)
    g = cover_genus(data)
    deg = 1 << n
    ramification = branch_count(data) * (deg // 2)
    assert 2 * g - 2 == deg * (-2) + ramification


def test_minimal_branch_data_gives_genus_zero():
    # valid data cannot push the genus below zero: generation forces
    # m >= n + 1, and the borderline cases land exactly on the line
    assert cover_genus(BranchedCoverData(2, (0b10, 0b01, 0b11))) == 0
    assert cover_genus(BranchedCoverData(1, (1, 1))) == 0


def test_non_integral_guard_on_raw_input():
    # valid BranchedCoverData cannot reach these states: 4g = index (s - 4) + 4
    # is 3 at index 1 with 3 surviving branch points, and -4 at index 2
    # with none
    with pytest.raises(NonIntegralGenus):
        _quotient_genus(1, 3)
    with pytest.raises(NonIntegralGenus):
        _quotient_genus(2, 0)
    # elsewhere it is 2g - 2 = index (-2 + s/2) solved for g
    for index in (1, 2, 4, 8, 16):
        for surviving in range(12):
            g = 1 + Fraction(index * (surviving - 4), 4)
            if g.denominator == 1 and g >= 0:
                assert _quotient_genus(index, surviving) == g
            else:
                with pytest.raises(NonIntegralGenus):
                    _quotient_genus(index, surviving)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6))
def test_orbifold_abelianization_is_elementary(m):
    group = orbifold_abelianization(m)
    assert group == FinAbGroup(0, tuple([2] * (m - 1)))
    assert group.order() == 1 << (m - 1)
