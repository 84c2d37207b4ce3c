"""Intersection catalog on the blown-up plane and the tangent-sheaf chain."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surface_lab.picard_lattice import (
    E,
    L,
    Component,
    DivisorClass,
    catalog,
    chi_bundle_hrr,
    chi_restricted_twist,
    cls,
    intersect,
    rank_of_span,
    selfint,
    theta_cohomology_report,
    twisted_cotangent_chern,
    verify_configuration,
)

from oracles import gram_matrix, symmetric_signature

BASIS = [L, *E]


def frac_rank(classes):
    """Row-reduction oracle over Q, independent of integer_algebra."""
    rows = [[Fraction(x) for x in c.vector()] for c in classes]
    rank = 0
    for col in range(7):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestCatalog:
    def test_self_intersections(self):
        c = catalog()
        assert [selfint(s) for s in c.S] == [-2, -2, -2, -2]
        assert [selfint(d) for d in c.Delta] == [-1, -1, -1]
        assert [selfint(f) for f in c.f] == [0, 0, 0]
        assert selfint(c.K) == 3

    def test_conic_class_shape(self):
        # each f_i is a conic missing exactly two of the six points
        for f in catalog().f:
            assert f.d == 2
            assert sorted(f.m) == [-1, -1, -1, -1, 0, 0]

    def test_branch_divisors_are_the_documented_sums(self):
        c = catalog()
        assert c.branch_divisor(0) == c.Delta[0] + c.f[1] + c.S[0] + c.S[1]
        assert c.branch_divisor(1) == c.Delta[1] + c.f[2]
        assert c.branch_divisor(2) == (
            c.Delta[2] + 2 * c.f[0] + c.S[2] + c.S[3]
        )

    def test_vector_arithmetic(self):
        a = cls(1, -1, 0, 0, 0, 0, 0)
        assert -a == cls(-1, 1, 0, 0, 0, 0, 0)
        assert 3 * a == cls(3, -3, 0, 0, 0, 0, 0)
        assert a - a == cls(0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            DivisorClass(1, (0, 0, 0))


class TestIntersect:
    def test_frozen_pairs(self):
        c = catalog()
        assert intersect(c.Delta[0], c.f[0]) == 2
        assert intersect(L, L) == 1
        assert intersect(c.f[0], c.f[1]) == 2
        assert intersect(c.S[0], c.S[2]) == 0

    def test_basis_gram_is_standard(self):
        g = gram_matrix(BASIS)
        expected = [[0] * 7 for _ in range(7)]
        expected[0][0] = 1
        for i in range(1, 7):
            expected[i][i] = -1
        assert g.to_lists() == expected


class TestVerifyConfiguration:
    def test_full_catalog_passes(self):
        report = verify_configuration(catalog())
        assert report.ok
        assert report.failures == ()
        assert report.checks_run > 40

    def test_mutated_side_fails_disjointness(self):
        c = catalog()
        bad_s1 = L - E[0] - E[1]  # drop E5 from S1
        mutated = dataclasses.replace(c, S=(bad_s1, c.S[1], c.S[2], c.S[3]))
        report = verify_configuration(mutated)
        assert not report.ok
        assert any("S1.S" in f and "= 0" in f for f in report.failures)

    def test_branch_degree_on_e2(self):
        c = catalog()
        total = 2 * c.f[0] + c.S[0] + c.S[1] + c.S[2] + c.S[3] + E[1]
        assert intersect(E[1], total) == 3


class TestRankOfSpan:
    def test_frozen_spans(self):
        c = catalog()
        assert rank_of_span([c.Delta[0], c.f[1], c.S[0], c.S[1], c.f[0]]) == 5
        assert rank_of_span([c.f[2], *c.S, E[0], E[2]]) == 6
        assert rank_of_span([c.f[0], *c.S, E[1]]) == 6
        assert rank_of_span([L, L]) == 1
        assert rank_of_span([]) == 0

    def test_matches_fraction_oracle_on_catalog_spans(self):
        c = catalog()
        spans = [
            [c.Delta[0], c.f[1], c.S[0], c.S[1], c.f[0]],
            [c.f[2], *c.S, E[0], E[2]],
            [c.f[0], *c.S, E[1]],
            list(c.S),
            [*c.Delta, *c.f, c.K],
        ]
        for span in spans:
            assert rank_of_span(span) == frac_rank(span)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant_and_bounded(self, data):
        c = catalog()
        pool = [*c.S, *c.Delta, *c.f, c.K, *c.chern, *E, L]
        picked = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=10)
        )
        shuffled = data.draw(st.permutations(picked))
        r = rank_of_span(picked)
        assert r == rank_of_span(list(shuffled))
        assert r <= 7


class TestChiBundle:
    def test_twisted_cotangent_by_canonical(self):
        rk, c1, c2 = twisted_cotangent_chern(catalog().K)
        assert (rk, c1, c2) == (2, 3 * catalog().K, 15)
        assert chi_bundle_hrr(rk, c1, c2) == -4

    def test_untwisted_cotangent(self):
        zero = cls(0, 0, 0, 0, 0, 0, 0)
        rk, c1, c2 = twisted_cotangent_chern(zero)
        assert (rk, c1, c2) == (2, catalog().K, 9)
        assert chi_bundle_hrr(rk, c1, c2) == -7

    def test_trivial_line_bundle(self):
        assert chi_bundle_hrr(1, cls(0, 0, 0, 0, 0, 0, 0), 0) == 1

    def test_line_bundle_matches_riemann_roch(self):
        # chi(O(C)) = chi(O) + (C^2 - C.K)/2 for a handful of classes
        k = catalog().K
        for c in [L, E[0], 2 * L - E[1], k, -1 * k, 3 * L - E[0] - E[4]]:
            expected = 1 + (selfint(c) - intersect(c, k)) // 2
            assert chi_bundle_hrr(1, c, 0) == expected

    @given(
        rk=st.integers(min_value=1, max_value=4),
        d=st.integers(min_value=-5, max_value=5),
        m=st.lists(st.integers(min_value=-5, max_value=5), min_size=6, max_size=6),
        c2=st.integers(min_value=-20, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_integral(self, rk, d, m, c2):
        # c1^2 - c1.K is even for every class, so HRR never leaves Z
        assert isinstance(chi_bundle_hrr(rk, DivisorClass(d, tuple(m)), c2), int)


class TestChiRestricted:
    def test_frozen_components(self):
        c = catalog()
        assert chi_restricted_twist(c.f[1], 0, c.K) == -1
        assert chi_restricted_twist(c.S[0], 0, c.K) == 1

    def test_total_over_branch_divisors(self):
        c = catalog()
        per_divisor = [
            sum(
                chi_restricted_twist(comp.divisor, comp.genus, c.K)
                for comp in c.branch_components[i]
            )
            for i in range(3)
        ]
        assert per_divisor == [1, -1, 0]
        assert sum(per_divisor) == 0


class TestThetaReport:
    def test_headline_numbers(self):
        report = theta_cohomology_report()
        assert report.ok
        assert report.chi_cotangent_twisted == -4
        assert report.chi_restricted_total == 0
        assert report.invariant_h1 == 4
        assert report.span_ranks == (5, 6, 6)
        assert report.character_bounds == (2, 3, 3)
        assert report.h2_bound == 8
        assert report.chi_theta == 4
        assert (report.h1, report.h2) == (4, 8)

    def test_restriction_degrees(self):
        report = theta_cohomology_report()
        assert report.restriction_degrees == {"f1": 3, "E1": 2, "E3": 2, "E2": 3}

    def test_chi_consistency(self):
        report = theta_cohomology_report()
        assert report.h2 - report.h1 == report.chi_theta

    def test_wrong_surface_invariants_are_flagged(self):
        report = theta_cohomology_report(ks_squared=6, chi_os=1)
        assert not report.ok

    def test_reports_are_frozen(self):
        theta = theta_cohomology_report()
        audit = verify_configuration(catalog())
        with pytest.raises(dataclasses.FrozenInstanceError):
            theta.h1 = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            audit.checks_run = 0
        with pytest.raises(TypeError):
            theta.restriction_degrees["f1"] = 0
        assert isinstance(theta.failures, tuple) and isinstance(audit.failures, tuple)

    def test_given_catalog_and_audit_are_used(self):
        c = catalog()
        broken = dataclasses.replace(c, S=(L - E[0] - E[1], *c.S[1:]))
        audit = verify_configuration(broken)
        assert not audit.ok
        report = theta_cohomology_report(configuration=broken, audit=audit)
        assert not report.ok
        assert report.failures[: len(audit.failures)] == audit.failures
        assert theta_cohomology_report(configuration=c, audit=verify_configuration(c)) == (
            theta_cohomology_report()
        )


class TestLatticeInvariants:
    def test_signature_1_6(self):
        assert symmetric_signature(gram_matrix(BASIS)) == (1, 6, 0)

    def test_signature_stable_under_unimodular_change(self):
        shear = [BASIS[i] + BASIS[i + 1] for i in range(6)] + [BASIS[6]]
        assert symmetric_signature(gram_matrix(shear)) == (1, 6, 0)
        c = catalog()
        mixed = [c.K, c.f[0], c.S[0], c.Delta[0], E[1], E[3], L + E[5]]
        if rank_of_span(mixed) == 7:
            pos, neg, zero = symmetric_signature(gram_matrix(mixed))
            assert (pos, neg) == (1, 6) and zero == 0

    def test_adjunction_for_every_catalog_curve(self):
        c = catalog()
        for comp in c.curve_components():
            lhs = selfint(comp.divisor) + intersect(c.K, comp.divisor)
            assert lhs == 2 * comp.genus - 2, comp.name

    def test_anticanonical_degrees(self):
        c = catalog()
        minus_k = -c.K
        assert [intersect(minus_k, d) for d in c.Delta] == [1, 1, 1]
        assert [intersect(minus_k, f) for f in c.f] == [2, 2, 2]
        assert [intersect(minus_k, s) for s in c.S] == [0, 0, 0, 0]

    def test_component_dataclass(self):
        comp = Component("test", L, 0)
        assert comp.genus == 0 and comp.divisor == L
