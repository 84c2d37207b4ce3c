"""Acceptance suite: nine headline criteria, one test (one pass/fail
line under pytest -v) per criterion.

Tolerances are stated inline: integer and lattice claims use exact
equality (zero tolerance); floating-point identity claims use
EPS = 1e-9; the two runtime budgets are asserted directly.
"""

import random
import time

from surface_lab.affine_groups import (
    abelianize_extension,
    actions_mod2,
    commutator,
    commutator_subspan_rank,
    standard_generators,
)
from surface_lab.character_calculus import (
    curve_span,
    d_factor_branch_elements,
    invariant_dim,
    legendre_pair_space,
    pencil_invariant_count,
    pencil_spaces,
    tensor,
)
from surface_lab.checks import CHECKS
from surface_lab.integer_algebra import (
    FinAbGroup,
    smith_normal_form,
)
from surface_lab.legendre_numerics import (
    Tolerance,
    evaluator_agreement,
    invariant_pencil_constant,
    legendre_params,
    verify_identities,
)
from surface_lab.orbifold_covers import (
    classify_corank1_subgroups,
    cover_genus,
    fixed_point_count,
    orbifold_abelianization,
)
from surface_lab.picard_lattice import (
    catalog,
    configuration_report,
    intersect,
    theta_cohomology_report,
)
from surface_lab.product_threefold import adjunction_chain, kunneth_h

from oracles import (
    curve_components,
    determinant,
    groups_isomorphic,
    homology_bound,
    matmul,
    translate,
)

EPS = 1e-9
DEFAULT_TAUS = (1j, (1 + 3j) / 2, 2j, (1 + 5j) / 3)


def test_criterion_1_first_homology_group():
    start = time.perf_counter()
    group = abelianize_extension(standard_generators())
    elapsed = time.perf_counter() - start
    assert group == FinAbGroup(0, (2, 2, 2, 2, 4))  # Z/4 x (Z/2)^4, exact
    assert elapsed < 0.1, f"homology took {elapsed:.3f}s, budget 0.1s"


def test_criterion_2_commutator_table_exact():
    table = {
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
    gens = standard_generators()
    assert len(table) == 10
    for (i, j), coords in table.items():
        # zero tolerance: exact lattice vectors
        assert commutator(gens[i], gens[j]) == coords, (i, j)


def test_criterion_3_orbifold_bound():
    bound, actual = homology_bound()
    assert (bound, actual) == (64, 64)  # 2 * |(Z/2)^5| attained exactly
    assert orbifold_abelianization(5) == FinAbGroup(0, (2, 2, 2, 2))
    assert commutator_subspan_rank(standard_generators()) == 3


def test_criterion_4_subgroup_classification():
    # the genus-5 cover the generators induce on their curve factor
    data = d_factor_branch_elements(curve_span(actions_mod2(standard_generators())))
    assert cover_genus(data) == 5
    histogram = classify_corank1_subgroups(data)
    assert histogram == {(1, 1): 5, (3, 0): 10}
    assert sum(histogram.values()) == 15
    branch = set(data.branch_images)
    assert len(branch) == 5
    for v in range(1, 16):
        assert fixed_point_count(data, v) == (8 if v in branch else 0)


def test_criterion_5_numerical_invariants():
    chain = adjunction_chain(5, 32)
    assert chain.k2_cover == 224
    assert chain.k2_quotient == 7
    assert chain.pg_cover == 38
    assert chain.chi_cover == 32
    assert chain.chi_quotient == 1
    kunneth = (
        chain.h_canonical[0],
        chain.h_adjoint[0],
        chain.h_canonical[1],
        chain.h_canonical[2],
    )
    assert kunneth == (5, 32, 11, 7)
    from surface_lab.character_calculus import one_forms_invariants, one_forms_space

    actions = actions_mod2(standard_generators())
    curve = curve_span(actions)
    space = one_forms_space(d_factor_branch_elements(curve), actions, curve)
    assert one_forms_invariants(space) == 0  # q(S) = 0, exact


def test_criterion_6_picard_and_tangent_sheaf():
    config = configuration_report(catalog())
    assert config == CHECKS["picard_config"].expected  # every configuration number, exact
    assert not any(map(any, config.relations))  # every linear equivalence holds
    report = theta_cohomology_report(catalog(), config.degrees)
    assert report.span_ranks == (5, 6, 6)
    assert report.chi_cotangent_twisted == -4
    assert report.chi_restricted_total == 0
    assert report.character_bounds == (2, 3, 3)
    chain = adjunction_chain(5, 32)
    chi_theta = 2 * chain.k2_quotient - 10 * chain.chi_quotient
    assert chi_theta == 4
    assert report.h1 == 4
    assert chi_theta + report.h1 == report.h2_bound == 8


def test_criterion_7_character_decompositions():
    # negate the first coordinate, the second, shift both by an e-half:
    # on either coordinate the translations are (0, 0), (0, 0), (1, 0)
    v = legendre_pair_space([(0, 0), (0, 0), (1, 0)])
    assert invariant_dim(tensor([v, v]), [0b100, 0b010, 0b001]) == 2
    triple = tensor(pencil_spaces(actions_mod2(standard_generators())))
    assert sorted(triple.values()) == [2, 2, 2, 2]
    constant = invariant_pencil_constant(
        DEFAULT_TAUS[:3], Tolerance(eps=EPS, samples=10, seed=0)
    )
    assert pencil_invariant_count(constant) == 2


def test_criterion_8_legendre_identities():
    start = time.perf_counter()
    tol = Tolerance(eps=EPS, samples=100, seed=0)
    params = []
    for tau in DEFAULT_TAUS:
        p = legendre_params(tau, tol)
        params.append(p)
        report = verify_identities(p, tol)
        assert report.ok, (tau, report.failures)
        for name in (
            "evenness",
            "period_one",
            "period_tau",
            "half_shift_negates",
            "tau_half_product",
            "quadratic_ratio_constancy",
        ):
            assert report.residuals[name] < EPS, (tau, name)
        assert abs(p.b**2 - p.a) / max(1.0, abs(p.a)) < EPS
        assert evaluator_agreement(tau, tol) < EPS
    b123 = params[0].b * params[1].b * params[2].b
    a123 = params[0].a * params[1].a * params[2].a
    assert abs(b123**2 - a123) / max(1.0, abs(a123)) < EPS
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s, budget 5s"


def _padded_diagonal(diag, nrows, ncols):
    m = [[0] * ncols for _ in range(nrows)]
    for i, d in enumerate(diag):
        m[i][i] = d
    return tuple(map(tuple, m))


def test_criterion_9_property_suites():
    # SNF certification on 500 random small matrices, exact
    rng = random.Random(2024)
    for _ in range(500):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        f = smith_normal_form(rows, transforms=True)
        assert matmul(f.left, rows, f.right) == _padded_diagonal(f.diagonal, nrows, ncols)
        assert abs(determinant(f.left)) == 1
        assert abs(determinant(f.right)) == 1
        for a, b in zip(f.diagonal, f.diagonal[1:]):
            assert a > 0 and b % a == 0

    # abelianization is independent of the chosen lifts: 50 perturbations
    base = abelianize_extension(standard_generators())
    for _ in range(50):
        gens = []
        for g in standard_generators():
            shift = tuple(rng.randint(-4, 4) for _ in range(8))
            gens.append(translate(g, shift))
        lifted = abelianize_extension(tuple(gens))
        assert groups_isomorphic(lifted, base)

    # adjunction for every catalog curve, exact
    config = catalog()
    for name, curve in curve_components(config):
        lhs = intersect(curve, curve) + intersect(config.K, curve)
        assert lhs == -2, name  # 2g - 2 with g = 0

    # Kuenneth convolution is invariant under permuting the factors
    genera = (1, 1, 5)
    for degrees in ((0, 0, 8), (2, 2, 12), (0, 0, 0), (2, 0, 10)):
        reference = sorted(kunneth_h(genera, degrees))
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0), (0, 2, 1), (2, 0, 1)):
            shuffled = kunneth_h(
                tuple(genera[i] for i in perm), tuple(degrees[i] for i in perm)
            )
            assert sorted(shuffled) == reference
