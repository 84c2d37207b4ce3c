"""Intersection catalog on the blown-up plane and the tangent-sheaf chain."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surface_lab import checks as checks_mod
from surface_lab.checks import CHECKS, RunConfig, run
from surface_lab.integer_algebra import rank
from surface_lab.picard_lattice import (
    CURVES,
    RELATIONS,
    DivisorClass,
    E,
    L,
    catalog,
    chi_bundle_hrr,
    chi_restricted_twist,
    cls,
    configuration_report,
    intersect,
    restriction_degrees,
    selfint,
    theta_cohomology_report,
    twisted_cotangent_chern,
)
from surface_lab.product_threefold import adjunction_chain

from oracles import (
    branch_component_names,
    curve_components,
    gram_matrix,
    replace,
    symmetric_signature,
)

BASIS = [L, *E]


def frac_rank(classes):
    """Row-reduction oracle over Q, independent of integer_algebra."""
    rows = [[Fraction(x) for x in c] for c in classes]
    found = 0
    for col in range(7):
        pivot = next((i for i in range(found, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for i in range(len(rows)):
            if i != found and rows[i][col]:
                factor = rows[i][col] / rows[found][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[found])]
        found += 1
    return found


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
            assert f[0] == 2
            assert sorted(f[1:]) == [-1, -1, -1, -1, 0, 0]

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
        # entrywise, never tuple concatenation or repetition
        assert a + a == cls(2, -2, 0, 0, 0, 0, 0)
        assert a * 3 == 3 * a
        for result in (-a, 3 * a, a * 3, a - a, a + a):
            assert len(result) == 7
            assert type(result) is DivisorClass


class TestIntersect:
    def test_frozen_pairs(self):
        c = catalog()
        assert intersect(c.Delta[0], c.f[0]) == 2
        assert intersect(L, L) == 1
        assert intersect(c.f[0], c.f[1]) == 2
        assert intersect(c.S[0], c.S[2]) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=14, max_size=14))
    def test_matches_the_form_written_out(self, xs):
        a, b = cls(*xs[:7]), cls(*xs[7:])
        d, m = xs[0], xs[1:7]
        d2, m2 = xs[7], xs[8:]
        expected = d * d2 - sum(m[i] * m2[i] for i in range(6))
        assert intersect(a, b) == expected == intersect(b, a)

    def test_basis_gram_is_standard(self):
        g = gram_matrix(BASIS)
        expected = [[0] * 7 for _ in range(7)]
        expected[0][0] = 1
        for i in range(1, 7):
            expected[i][i] = -1
        assert [list(row) for row in g] == expected


def picard_config_on(monkeypatch, c):
    """The picard_config result of a run on catalog c."""
    monkeypatch.setattr(checks_mod, "catalog", lambda: c)
    [result] = run(RunConfig(checks=("picard_config",), taus=()))
    return result


class TestConfigurationReport:
    def test_full_catalog_matches_the_frozen_claim(self):
        report = configuration_report(catalog())
        assert report == CHECKS["picard_config"].expected
        assert [len(row) for row in report.intersections] == list(range(len(CURVES), 0, -1))
        assert sum(map(len, report.intersections)) == 66
        assert len(report.relations) == len(RELATIONS) == 10
        assert not any(map(any, report.relations))

    def test_matrix_entries_are_the_named_intersections(self):
        c = catalog()
        curves = dict(zip(CURVES, (c.K, *c.S, *c.Delta, *c.f)))
        rows = configuration_report(c).intersections
        for i, a in enumerate(CURVES):
            for b, x in zip(CURVES[i:], rows[i]):
                assert x == intersect(curves[a], curves[b]), (a, b)

    def test_side_without_e5_fails_picard_config(self, monkeypatch):
        # S1 through P1 P2 alone: S1^2 = -1, and the first entry that
        # differs in CURVES order is K.S1
        c = catalog()
        bad = replace(c, S=(L - E[0] - E[1], *c.S[1:]))
        assert configuration_report(bad).intersections[1][0] == -1  # S1.S1
        result = picard_config_on(monkeypatch, bad)
        assert (result.status, result.actual) == ("fail", "K.S1 = -1, want 0")
        assert result.expected != result.actual

    def test_conic_through_p1_fails_picard_config(self, monkeypatch):
        # a conic f1 through P1 in place of P4 moves the degree of
        # D1 + f1 - E4 on f1 from 3 to 1
        c = catalog()
        bad = replace(c, f=(c.f[0] - E[0] + E[3], *c.f[1:]))
        assert configuration_report(bad).degrees["f1"] == 1
        result = picard_config_on(monkeypatch, bad)
        assert (result.status, result.actual) == ("fail", "S1.f1 = -1, want 0")

    def test_wrong_l2_fails_a_relation(self, monkeypatch):
        c = catalog()
        bad = replace(c, chern=(c.chern[0], c.chern[1] + E[0], c.chern[2]))
        relations = configuration_report(bad).relations
        assert [name for name, r in zip(RELATIONS, relations) if any(r)] == [
            "K + L2 + Delta2 - S1 - S2 - S3 - S4 - E1 - E3",
            "2L2 - D1 - D3",
        ]
        result = picard_config_on(monkeypatch, bad)
        assert result.status == "fail"
        assert result.actual == (
            "K + L2 + Delta2 - S1 - S2 - S3 - S4 - E1 - E3 = (0, 1, 0, 0, 0, 0, 0), "
            "want (0, 0, 0, 0, 0, 0, 0)"
        )

    def test_failing_text_names_the_degree(self):
        claim = CHECKS["picard_config"]
        frozen = claim.expected
        moved = replace(frozen, degrees={**frozen.degrees, "f1": 1})
        assert claim.show(moved) == "degree on f1 = 1, want 3"
        steeper = replace(frozen, degrees={**frozen.degrees, "Delta3": -3})
        assert claim.show(steeper) == "degree on Delta3 = -3, want -2"
        assert claim.show(frozen) == "82/82 numbers exact"

    def test_branch_degree_on_e2(self):
        c = catalog()
        total = 2 * c.f[0] + c.S[0] + c.S[1] + c.S[2] + c.S[3] + E[1]
        assert intersect(E[1], total) == 3


class TestRankOfSpan:
    def test_frozen_spans(self):
        c = catalog()
        assert rank([c.Delta[0], c.f[1], c.S[0], c.S[1], c.f[0]]) == 5
        assert rank([c.f[2], *c.S, E[0], E[2]]) == 6
        assert rank([c.f[0], *c.S, E[1]]) == 6
        assert rank([L, L]) == 1
        assert rank([]) == 0

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
            assert rank(span) == frac_rank(span)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant_and_bounded(self, data):
        c = catalog()
        pool = [*c.S, *c.Delta, *c.f, c.K, *c.chern, *E, L]
        picked = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=10)
        )
        shuffled = data.draw(st.permutations(picked))
        r = rank(picked)
        assert r == rank(list(shuffled))
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

    def test_non_integral_chern_data_raises(self):
        # an integral c1 always gives an even c1^2 - c1.K, so only a
        # half-integral c2 can leave Z; the message carries the value
        with pytest.raises(ValueError, match=r"non-integral chi 1/2;"):
            chi_bundle_hrr(1, cls(0, 0, 0, 0, 0, 0, 0), Fraction(1, 2))
        with pytest.raises(ValueError, match=r"non-integral chi -15/2;"):
            chi_bundle_hrr(2, catalog().K, Fraction(19, 2))

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
        assert isinstance(chi_bundle_hrr(rk, cls(d, *m), c2), int)


class TestChiRestricted:
    def test_frozen_components(self):
        c = catalog()
        assert chi_restricted_twist(c.f[1], c.K) == -1
        assert chi_restricted_twist(c.S[0], c.K) == 1

    def test_total_over_branch_divisors(self):
        c = catalog()
        per_divisor = [
            sum(
                chi_restricted_twist(comp, c.K)
                for comp in c.branch_components[i]
            )
            for i in range(3)
        ]
        assert per_divisor == [1, -1, 0]
        assert sum(per_divisor) == 0


class TestThetaReport:
    def test_headline_numbers(self):
        report = theta_cohomology_report(catalog(), restriction_degrees(catalog()))
        assert report.chi_cotangent_twisted == -4
        assert report.chi_restricted_total == 0
        assert report.span_ranks == (5, 6, 6)
        assert report.character_bounds == (2, 3, 3)
        assert report.h2_bound == 8
        assert report.h1 == 4

    def test_restriction_degrees(self):
        assert restriction_degrees(catalog()) == {"f1": 3, "E1": 2, "E3": 2, "E2": 3}

    def test_chi_consistency(self):
        # h2 - h1 = chi(Theta) = 2 K^2 - 10 chi(O) of the quotient surface
        # meets the bound on h2 exactly, which pins h1 = 4 and h2 = 8
        report = theta_cohomology_report(catalog(), restriction_degrees(catalog()))
        chain = adjunction_chain(5, 32)
        chi_theta = 2 * chain.k2_quotient - 10 * chain.chi_quotient
        assert chi_theta == 4
        assert report.h1 + chi_theta == report.h2_bound

    def test_reports_are_frozen(self):
        theta = theta_cohomology_report(catalog(), restriction_degrees(catalog()))
        config = configuration_report(catalog())
        with pytest.raises(AttributeError):
            theta.h1 = 5
        with pytest.raises(AttributeError):
            config.intersections = ()
        assert isinstance(config.intersections, tuple)
        assert isinstance(config.relations, tuple)

    def test_given_catalog_is_used(self):
        # the report computes from the catalog it is given and judges
        # nothing: a moved side changes the rank of the first span
        c = catalog()
        moved = replace(c, S=(L - E[0] - E[2] - E[4], *c.S[1:]))
        assert theta_cohomology_report(moved, restriction_degrees(moved)).span_ranks != (5, 6, 6)
        theta = theta_cohomology_report(c, restriction_degrees(c))
        assert theta == theta_cohomology_report(catalog(), restriction_degrees(catalog()))


class TestLatticeInvariants:
    def test_signature_1_6(self):
        assert symmetric_signature(gram_matrix(BASIS)) == (1, 6, 0)

    def test_signature_stable_under_unimodular_change(self):
        shear = [BASIS[i] + BASIS[i + 1] for i in range(6)] + [BASIS[6]]
        assert symmetric_signature(gram_matrix(shear)) == (1, 6, 0)
        c = catalog()
        mixed = [c.K, c.f[0], c.S[0], c.Delta[0], E[1], E[3], L + E[5]]
        if rank(mixed) == 7:
            pos, neg, zero = symmetric_signature(gram_matrix(mixed))
            assert (pos, neg) == (1, 6) and zero == 0

    def test_adjunction_for_every_catalog_curve(self):
        c = catalog()
        # every curve is rational: C^2 + K.C = 2g - 2 with g = 0
        for name, curve in curve_components(c):
            assert selfint(curve) + intersect(c.K, curve) == -2, name

    def test_anticanonical_degrees(self):
        c = catalog()
        minus_k = -c.K
        assert [intersect(minus_k, d) for d in c.Delta] == [1, 1, 1]
        assert [intersect(minus_k, f) for f in c.f] == [2, 2, 2]
        assert [intersect(minus_k, s) for s in c.S] == [0, 0, 0, 0]

    def test_branch_components_are_the_named_curves(self):
        # each component is a catalog curve, so rational, which is why
        # chi_restricted_twist takes no genus; f1' is a second member of f1
        c = catalog()
        curves = dict(curve_components(c))
        named = tuple(
            tuple(curves[name.rstrip("'")] for name in names)
            for names in branch_component_names()
        )
        assert c.branch_components == named
