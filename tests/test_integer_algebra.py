import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surface_lab.integer_algebra import (
    FinAbGroup,
    SmithForm,
    cokernel,
    rank,
    rank_mod2,
    smith_normal_form,
)

from oracles import (
    determinant,
    gcd_of_minors,
    groups_isomorphic,
    matmul,
    symmetric_signature,
)


def padded_diagonal(diag: tuple[int, ...], nrows: int, ncols: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(diag[i] if (i == j and i < len(diag)) else 0 for j in range(ncols))
        for i in range(nrows)
    )


# Frozen oracle values.  diag(2, 2) is already Smith.  [[2, 4], [4, 2]]
# reduces by hand: R2 -= 2 R1 and C2 -= 2 C1 give diag(2, -6), and the
# minor gcds confirm d1 = gcd(entries) = 2, d1*d2 = |det| = 12.
def test_snf_frozen_examples():
    assert smith_normal_form([[2, 0], [0, 2]]).diagonal == (2, 2)
    assert smith_normal_form([[1, 0], [0, 0]]).diagonal == (1,)
    assert smith_normal_form([[2, 4], [4, 2]]).diagonal == (2, 6)


def test_snf_empty_and_zero():
    assert smith_normal_form([]).diagonal == ()
    assert smith_normal_form([], transforms=True) == SmithForm((), (), ())
    assert smith_normal_form([[]]) == SmithForm(())
    assert smith_normal_form([[]], transforms=True) == SmithForm((), ((1,),), ())
    assert smith_normal_form([[0, 0], [0, 4], [0, 0]]).diagonal == (4,)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == ()
    f = smith_normal_form([[0, 0], [0, 0]], transforms=True)
    assert f.left == ((1, 0), (0, 1))
    assert f.right == ((1, 0), (0, 1))


def test_snf_transforms_certify_frozen_example():
    m = [[2, 4], [4, 2]]
    f = smith_normal_form(m, transforms=True)
    assert f.diagonal == (2, 6)
    assert matmul(f.left, m, f.right) == padded_diagonal(f.diagonal, 2, 2)
    assert abs(determinant(f.left)) == 1
    assert abs(determinant(f.right)) == 1


def test_snf_diagonal_not_yet_a_chain():
    # elimination stops at a diagonal that is no divisibility chain; the
    # gcd/lcm pass turns it into one
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]]).diagonal == (2, 2, 60)


def test_snf_promotes_a_remainder():
    # 3 mod 2 leaves 1 in the pivot row, then in the pivot column
    assert smith_normal_form([[2, 3]]).diagonal == (1,)
    assert smith_normal_form([[2], [3]]).diagonal == (1,)


def test_divisibility_chain_validation():
    with pytest.raises(ValueError):
        SmithForm((4, 2))
    with pytest.raises(ValueError):
        SmithForm((2, -4))


def test_cokernel_frozen_examples():
    # Z^2 / <(2,0),(0,2)> and a presentation with a unit factor
    assert cokernel([[2, 0], [0, 2]]) == FinAbGroup(0, (2, 2))
    assert cokernel([[1, 0]]) == FinAbGroup(1)
    assert cokernel([[2, 4], [4, 2]]) == FinAbGroup(0, (2, 6))
    # free part: a single relation on three generators
    assert cokernel([[2, -1, 0]]) == FinAbGroup(2)
    # no relations among no generators
    assert cokernel([]) == FinAbGroup(0)


def test_finab_str_and_order():
    g = FinAbGroup(0, (2, 2, 2, 2, 4))
    assert g.order() == 64
    assert str(g) == "(Z/2)^4 x Z/4"
    assert str(FinAbGroup(1, (3,))) == "Z x Z/3"
    assert str(FinAbGroup(0)) == "0"
    assert FinAbGroup(2).order() is None


def test_finab_rejects_bad_chains():
    with pytest.raises(ValueError):
        FinAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FinAbGroup(0, (1, 2))


def test_groups_isomorphic():
    assert groups_isomorphic(FinAbGroup(0, (2, 6)), FinAbGroup(0, (2, 6)))
    assert not groups_isomorphic(FinAbGroup(0, (2, 6)), FinAbGroup(0, (12,)))
    assert not groups_isomorphic(FinAbGroup(1, (2,)), FinAbGroup(0, (2,)))


def test_rank_mod2_frozen_example():
    # rows e2, e1, 0, tau1*e1 in basis (e1, e2, tau1 e1, tau2 e2)
    m = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    assert rank_mod2(m) == 3
    assert rank(m) == 3
    # parity matters: doubled rows vanish mod 2
    assert rank_mod2([[2, 4], [6, 8]]) == 0


def test_determinant():
    assert determinant([[2, 4], [4, 2]]) == -12
    assert determinant(padded_diagonal((1, 1, 1, 1), 4, 4)) == 1
    assert determinant([[1, 2], [2, 4]]) == 0


def test_symmetric_signature():
    gram = [[1 if i == j == 0 else (-1 if i == j else 0) for j in range(7)] for i in range(7)]
    assert symmetric_signature(gram) == (1, 6, 0)
    hyper = [[0, 1], [1, 0]]
    assert symmetric_signature(hyper) == (1, 1, 0)
    assert symmetric_signature([[0] * 3] * 3) == (0, 0, 3)


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@st.composite
def unit_rich_matrices(draw):
    """Rows of mostly 0, +-1 and +-2, each a repeat of a few base rows, a
    base row negated, or a zero row, so the sparse path's distinct-row
    step and unit pass both have work."""
    c = draw(st.integers(1, 5))
    entries = st.sampled_from((0, 0, 1, -1, 2, -2, 3, 4))
    base = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=4))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(base)), st.sampled_from((1, -1))), min_size=1, max_size=7
    ))
    # index len(base) picks a zero row
    return [[s * x for x in base[i]] if i < len(base) else [0] * c for i, s in picks]


@settings(max_examples=240, deadline=None)
@given(st.one_of(small_matrices, unit_rich_matrices()))
# no unit entry, but a unit after elimination: det = 1
@example([[2, 3], [3, 5]])
# the unit pass leaves row 0 with the unit 1 that row 1 gave it
@example([[2, 3], [1, 1]])
# row 1 turns into the unit row (0, -1) before the pass reaches it
@example([[1, 2], [2, 3]])
# repeats, a negated repeat and zero rows around one unit
@example([[2, 1, 0], [0, 0, 0], [2, 1, 0], [-2, -1, 0], [0, 0, 0], [4, 0, 2]])
def test_snf_certified_by_transforms(rows):
    f = smith_normal_form(rows, transforms=True)
    width = len(rows[0])
    assert smith_normal_form(rows).diagonal == f.diagonal
    assert rank(rows) == len(f.diagonal)
    assert cokernel(rows) == FinAbGroup(width - len(f.diagonal), tuple(d for d in f.diagonal if d > 1))
    assert matmul(f.left, rows, f.right) == padded_diagonal(f.diagonal, len(rows), width)
    assert abs(determinant(f.left)) == 1
    assert abs(determinant(f.right)) == 1
    for a, b in zip(f.diagonal, f.diagonal[1:]):
        assert b % a == 0 and a > 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_without_unit_entries(rows):
    # every entry of 2M and of its reductions is even, so no pivot is a
    # unit and each step runs the divisibility pass; the diagonal doubles
    doubled = [[2 * x for x in row] for row in rows]
    f = smith_normal_form(doubled, transforms=True)
    assert f.diagonal == tuple(2 * d for d in smith_normal_form(rows).diagonal)
    assert matmul(f.left, doubled, f.right) == padded_diagonal(f.diagonal, len(rows), len(rows[0]))
    assert abs(determinant(f.left)) == 1
    assert abs(determinant(f.right)) == 1


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_matches_minor_gcd_oracle(rows):
    # d_1 ... d_k = gcd of all k x k minors, for every k up to the rank
    diag = smith_normal_form(rows).diagonal
    prod = 1
    for k, d in enumerate(diag, start=1):
        prod *= d
        assert gcd_of_minors(rows, k) == prod
    assert gcd_of_minors(rows, len(diag) + 1) == 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_mod2_bounded_by_rank(rows):
    assert rank_mod2(rows) <= rank(rows) <= min(len(rows), len(rows[0]))


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_cokernel_invariant_under_presentation_noise(rows, rng):
    # permuting relations, permuting generators consistently, and adding
    # zero relations never changes the presented group
    base = cokernel(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    permuted = [[row[j] for j in perm] for row in shuffled]
    padded = permuted + [[0] * len(rows[0])]
    assert groups_isomorphic(base, cokernel(padded))


def test_snf_bulk_random_certification():
    # fixed-seed bulk run kept separate from hypothesis so the count is explicit
    rng = random.Random(20260819)
    for _ in range(150):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        f = smith_normal_form(m, transforms=True)
        assert smith_normal_form(m).diagonal == f.diagonal
        assert matmul(f.left, m, f.right) == padded_diagonal(f.diagonal, r, c)
        assert abs(determinant(f.left)) == 1
        assert abs(determinant(f.right)) == 1


def test_snf_sparse_matrices_of_bench_shape():
    # the abelianization relations are 29x13 with 40 nonzero entries in
    # -2..2; the sparse path must match the certified dense diagonal there
    rng = random.Random(20261019)
    entries = (0,) * 16 + (-2, -1, 1, 2)
    for _ in range(60):
        r = rng.randint(26, 32)
        m = [[rng.choice(entries) for _ in range(13)] for _ in range(r)]
        f = smith_normal_form(m, transforms=True)
        assert smith_normal_form(m).diagonal == f.diagonal
        assert matmul(f.left, m, f.right) == padded_diagonal(f.diagonal, r, 13)
