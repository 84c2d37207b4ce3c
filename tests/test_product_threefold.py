"""Fiber-class intersection numbers and Kuenneth cohomology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surface_lab.product_threefold import (
    HYPERSURFACE,
    AmbiguousCase,
    NonIntegral,
    adjunction_chain,
    curve_h,
    kunneth_h,
    triple_product,
)

STANDARD_GENERA = (1, 1, 5)

vec3 = st.tuples(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)


def brute_triple(x, y, z):
    """Expansion oracle: multiply out and keep squarefree monomials."""
    total = 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if {i, j, k} == {0, 1, 2}:
                    total += x[i] * y[j] * z[k]
    return total


class TestTripleProduct:
    def test_frozen_examples(self):
        a = (2, 2, 12)
        b = (2, 2, 4)
        assert triple_product(a, a, b) == 224
        f1 = (1, 0, 0)
        assert triple_product(f1, f1, (3, 7, 9)) == 0
        ones = (1, 1, 1)
        assert triple_product(ones, ones, ones) == 6

    def test_class_arithmetic(self):
        # at genus 5 the canonical class is (0, 0, 8) and the adjoint (2, 2, 12)
        assert HYPERSURFACE == (2, 2, 4)
        report = adjunction_chain(5, 32)
        assert report.h_canonical == kunneth_h(STANDARD_GENERA, (0, 0, 8))
        assert report.h_adjoint == kunneth_h(STANDARD_GENERA, (2, 2, 12))
        assert report.k2_cover == triple_product((2, 2, 12), (2, 2, 12), HYPERSURFACE)

    @given(x=vec3, y=vec3, z=vec3)
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_matches_brute_force(self, x, y, z):
        val = triple_product(x, y, z)
        assert val == brute_triple(x, y, z)
        assert val == triple_product(y, x, z) == triple_product(z, y, x)

    @given(x=vec3, y=vec3, z=vec3, w=vec3, s=st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_trilinear(self, x, y, z, w, s):
        lhs = triple_product(tuple(a + s * c for a, c in zip(x, w)), y, z)
        rhs = triple_product(x, y, z) + s * triple_product(w, y, z)
        assert lhs == rhs


class TestKsSquared:
    def test_quotient_value(self):
        assert adjunction_chain(5, 32).k2_quotient == 7

    def test_cover_value(self):
        assert adjunction_chain(5, 32).k2_cover == 224

    def test_non_integral_rejected(self):
        # 3 divides neither 224 nor 32; K^2 is judged first
        with pytest.raises(NonIntegral, match=r"K\^2 224 not divisible by 3"):
            adjunction_chain(5, 3)
        # a sixth generator doubles the group order, and 64 does not divide 224
        with pytest.raises(NonIntegral, match=r"K\^2 224 not divisible by 64"):
            adjunction_chain(5, 64)


class TestCurveH:
    def test_four_regimes(self):
        assert curve_h(5, 8) == (5, 1)  # canonical on genus 5
        assert curve_h(5, 12) == (8, 0)  # nonspecial
        assert curve_h(1, 0) == (1, 1)  # trivial on an elliptic curve
        assert curve_h(5, -3) == (0, 7)  # negative degree

    def test_special_range_refused(self):
        with pytest.raises(AmbiguousCase):
            curve_h(5, 4)
        with pytest.raises(AmbiguousCase):
            curve_h(2, 1)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            curve_h(-1, 0)

    def test_genus_zero_and_one_never_ambiguous(self):
        for d in range(-6, 7):
            curve_h(0, d)
            curve_h(1, d)

    @given(
        genus=st.integers(min_value=0, max_value=12),
        degree=st.integers(min_value=-30, max_value=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_riemann_roch_in_decidable_regimes(self, genus, degree):
        try:
            h0, h1 = curve_h(genus, degree)
        except AmbiguousCase:
            assert 0 < degree < 2 * genus - 2
            return
        assert h0 >= 0 and h1 >= 0
        assert h0 - h1 == degree - genus + 1


class TestKunneth:
    def test_canonical_multidegree(self):
        assert kunneth_h(STANDARD_GENERA, (0, 0, 8)) == (5, 11, 7, 1)

    def test_adjoint_multidegree(self):
        assert kunneth_h(STANDARD_GENERA, (2, 2, 12)) == (32, 0, 0, 0)

    def test_trivial_bundle(self):
        # convolution of (1,1),(1,1),(1,5): (1+x)^2 (1+5x)
        assert kunneth_h(STANDARD_GENERA, (0, 0, 0)) == (1, 7, 11, 5)

    def test_structure_sheaf_chi_vanishes(self):
        h = kunneth_h(STANDARD_GENERA, (0, 0, 0))
        assert h[0] - h[1] + h[2] - h[3] == 0

    def test_ambiguity_propagates(self):
        with pytest.raises(AmbiguousCase):
            kunneth_h(STANDARD_GENERA, (0, 0, 4))

    def test_factor_data_validation(self):
        with pytest.raises(ValueError):
            kunneth_h((1, 1), (0, 0, 0))
        with pytest.raises(ValueError):
            kunneth_h((1, -1, 5), (0, 0, 0))

    @given(degs=vec3, perm=st.permutations([0, 1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_factor_permutation_invariance(self, degs, perm):
        genera = (1, 1, 5)
        try:
            base = kunneth_h(genera, degs)
        except AmbiguousCase:
            return
        permuted = kunneth_h(tuple(genera[i] for i in perm), tuple(degs[i] for i in perm))
        assert permuted == base

    @given(degs=vec3)
    @settings(max_examples=100, deadline=None)
    def test_serre_duality(self, degs):
        dual = (-degs[0], -degs[1], 8 - degs[2])
        try:
            h = kunneth_h(STANDARD_GENERA, degs)
            hd = kunneth_h(STANDARD_GENERA, dual)
        except AmbiguousCase:
            return
        assert hd == tuple(reversed(h))


class TestAdjunctionChain:
    def test_headline_numbers(self):
        report = adjunction_chain(5, 32)
        assert report.h_canonical == (5, 11, 7, 1)
        assert report.h_adjoint == (32, 0, 0, 0)
        assert report.pg_cover == 38
        assert report.q_cover == 7
        assert report.chi_cover == 32
        assert report.chi_quotient == 1

    def test_euler_additivity_across_adjunction(self):
        # chi of the hypersurface's dualizing sheaf = chi(adjoint) - chi(canonical)
        report = adjunction_chain(5, 32)
        chi = lambda h: h[0] - h[1] + h[2] - h[3]
        assert chi(report.h_adjoint) - chi(report.h_canonical) == report.chi_cover

    def test_non_integral_group_order(self):
        # 7 divides 224 = 32 * 7 but not 32
        with pytest.raises(NonIntegral, match="chi 32 not divisible by 7"):
            adjunction_chain(5, 7)

    def test_genus_moves_the_chain(self):
        # K^2 = 32 g + 64 and chi = 4 g + 12: at genus 3, K^2 = 160 = 32 * 5
        # divides, chi = 24 does not
        with pytest.raises(NonIntegral, match="chi 24 not divisible by 32"):
            adjunction_chain(3, 32)
        assert adjunction_chain(3, 8).k2_cover == 160
