"""Named verification checks and the engine that runs them.

Every check is one row of the claims table CHECKS: the paper claim it
verifies, the frozen expected value, and a function that recomputes the
value from the run's Facts.  The engine compares the two, and only it:
builders compute and report numbers, never judge them, so each expected
value is written once, here; a failing table names its first wrong entry.
Facts builds each shared intermediate (the generators, the theta report,
...) on first use and lives for one run only, so every run recomputes
from scratch and checks that read the same report read the same object.
The engine runs whatever subset is requested and reports results in a
fixed canonical order (sorted by check name), so identical configurations
produce byte-identical machine output.  A check that raises is reported
with status "error" and does not stop the others.

Algebraic checks ignore the numeric knobs entirely.  The two numeric
checks (legendre_identities, pencil_two_invariants) consume the moduli
list and tolerance, and report status "skipped" when the run supplies
fewer moduli than they need.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable
from functools import cached_property
from itertools import combinations
from operator import attrgetter

from ._record import record
from .affine_groups import (
    AffineElement,
    abelianize_extension,
    check_sign_condition,
    commutator,
    commutator_subspan_rank,
    standard_generators,
)
from .character_calculus import (
    d_factor_branch_elements,
    invariant_dim,
    legendre_pair_space,
    one_forms_invariants,
    one_forms_space,
    pencil_invariant_count,
    pencil_spaces,
    tensor,
)
from .integer_algebra import FinAbGroup
from .legendre_numerics import (
    EllipticParams,
    IdentityFailure,
    Tolerance,
    _check_tau,
    _nan_max,
    evaluator_agreement,
    invariant_pencil_constant,
    legendre_params,
    verify_identities,
)
from .orbifold_covers import (
    BranchedCoverData,
    classify_corank1_subgroups,
    cover_genus,
    fixed_point_count,
    orbifold_abelianization,
)
from .picard_lattice import (
    ConfigCatalog,
    ConfigReport,
    ThetaReport,
    catalog,
    configuration_report,
    theta_cohomology_report,
)
from .product_threefold import AdjunctionReport, adjunction_chain

DEFAULT_TAUS: tuple[complex, ...] = (1j, (1 + 3j) / 2, 2j, (1 + 5j) / 3)

SCHEMA_VERSION = "1"


class UnknownCheck(Exception):
    """A requested check name is not in the registry."""


@record
class RunConfig:
    """One run's settings.  eps, samples and seed default to Tolerance's
    and are checked by it; tolerance is the one Tolerance the run's
    numeric checks share."""

    checks: tuple[str, ...] = ("all",)
    taus: tuple[complex, ...] = DEFAULT_TAUS
    eps: float = Tolerance.eps
    samples: int = Tolerance.samples
    seed: int = Tolerance.seed
    output_format: str = "text"
    timings: bool = False

    def __post_init__(self) -> None:
        if not self.checks:
            raise ValueError("checks must be nonempty")
        object.__setattr__(self, "tolerance", Tolerance(self.eps, self.samples, self.seed))
        for tau in self.taus:
            _check_tau(tau)
        if self.output_format not in ("text", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")


@record
class CheckResult:
    name: str
    status: str  # pass | fail | skipped | error
    expected: str
    actual: str
    paper_anchor: str
    elapsed_ms: float | None = None


class Problems(tuple):
    """Problems a check found (equal to () if none), shown as its own text."""

    def __new__(cls, problems, text: str) -> "Problems":
        self = super().__new__(cls, problems)
        self.text = text
        return self

    def __str__(self) -> str:
        return self.text


class Facts:
    """The intermediates that several checks share, for one run.

    run() makes one per call and passes it to every measure.  Each member
    (and each modulus's Legendre parameters, elliptic(i)) is built on first
    use by the builder this module imports, looked up at call time (so a
    replaced builder is seen by the next run), and kept until the run
    ends; nothing outlives the Facts object.  Whatever reads the group
    action (the cover, the one-forms, the pencil) is given the generators,
    and the adjunction chain the cover's genus and their group's order.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self._elliptic: dict[int, EllipticParams] = {}

    def elliptic(self, i: int) -> EllipticParams:
        """The Legendre parameters of the run's i-th modulus, which both
        numeric checks read."""
        if i not in self._elliptic:
            self._elliptic[i] = legendre_params(self.config.taus[i], self.config.tolerance)
        return self._elliptic[i]

    @cached_property
    def generators(self) -> tuple[AffineElement, ...]:
        return standard_generators()

    @cached_property
    def cover(self) -> BranchedCoverData:
        return d_factor_branch_elements(self.generators)

    @cached_property
    def catalog(self) -> ConfigCatalog:
        return catalog()

    @cached_property
    def config_report(self) -> ConfigReport:
        return configuration_report(self.catalog)

    @cached_property
    def theta(self) -> ThetaReport:
        return theta_cohomology_report(self.catalog, self.config_report.degrees)

    @cached_property
    def chain(self) -> AdjunctionReport:
        return adjunction_chain(cover_genus(self.cover), 1 << len(self.generators))

    @cached_property
    def h1(self) -> FinAbGroup:
        return abelianize_extension(self.generators)


@record
class Claim:
    """One row of the claims table.

    The check passes when measure(facts) equals expected.  show renders a
    value as report text; the expected text is show(expected) unless text
    overrides it (text may name the run's tolerance as {eps}).  With fewer
    than `moduli` moduli the check is skipped with the texts in skip.
    """

    name: str
    anchor: str
    expected: object
    measure: Callable[[Facts], object]
    text: str | None = None
    show: Callable[[object], str] = str
    moduli: int = 0
    skip: tuple[str, str] = ("", "")

    def expected_text(self, config: RunConfig) -> str:
        if self.text is None:
            return self.show(self.expected)
        return self.text.format(eps=config.eps)

    def verdict(self, facts: Facts) -> tuple[str, str, str]:
        """(status, expected text, actual text) of this claim on a run."""
        if len(facts.config.taus) < self.moduli:
            return ("skipped", *self.skip)
        got = self.measure(facts)
        status = "pass" if got == self.expected else "fail"
        return status, self.expected_text(facts.config), self.show(got)


_COMMUTATOR_TABLE: dict[str, tuple[int, ...]] = {
    "[g1, g2]": (0, 1, 0, 0, 0, 0, 0, 0),
    "[g1, g3]": (-1, 0, 0, 0, 0, 0, 0, 0),
    "[g1, g4]": (0, 0, 0, 0, 0, 0, 0, 0),
    "[g1, g5]": (0, 0, 0, 0, -1, 0, 0, 0),
    "[g2, g3]": (0, 0, 1, 0, 0, 0, 0, 0),
    "[g2, g4]": (0, 0, 1, 1, 0, 0, 0, 0),
    "[g2, g5]": (0, 0, 0, 0, 0, -1, 0, -1),
    "[g3, g4]": (0, 0, 1, 1, 0, 0, 0, 0),
    "[g3, g5]": (0, 0, 0, 0, 0, 0, -1, -1),
    "[g4, g5]": (0, 0, 0, 0, 0, 0, -1, -1),
}


def _commutators(f: Facts) -> dict[str, tuple[int, ...]]:
    gens = f.generators
    return {
        f"[g{i + 1}, g{j + 1}]": commutator(gens[i], gens[j])
        for i, j in combinations(range(len(gens)), 2)
    }


def _first_difference(have: dict, want: dict, passed: str) -> str:
    """The first name whose values differ, want's names first, as "name =
    value, want value" (never the pass text); passed if none does."""
    if have != want:
        for name in {**want, **have}:
            if have.get(name, 0) != want.get(name, 0):
                return f"{name} = {have.get(name, 0)}, want {want.get(name, 0)}"
    return passed


def _fixed_point_histogram(f: Facts) -> dict[int, int]:
    n = f.cover.n
    counts = Counter(
        fixed_point_count(f.cover, tuple((k >> i) & 1 for i in range(n)))
        for k in range(1, 1 << n)
    )
    return dict(sorted(counts.items()))


def _orbifold_bound(f: Facts) -> tuple[int, int, FinAbGroup, int]:
    # the surface group maps onto the five-point orbifold group extended by
    # a central involution, and abelianizing adds at most one more factor
    # of 2: the homology order is at most 2 * (|orbifold| * 2)
    orbifold = orbifold_abelianization(len(f.cover.branch_images))
    bound = 2 * ((orbifold.order() or 0) * 2)
    order = f.h1.order() or 0
    return bound, order, orbifold, commutator_subspan_rank(f.generators)


def _kunneth_list(f: Facts) -> tuple[int, int, int, int]:
    c = f.chain
    return c.h_canonical[0], c.h_adjoint[0], c.h_canonical[1], c.h_canonical[2]


# the upper triangle of the intersection matrix of picard_lattice.CURVES
# (K, S1..S4, Delta1..3, f1..3) row by row, ten zero classes, six degrees
_CONFIGURATION = ConfigReport(
    (
        (3, 0, 0, 0, 0, -1, -1, -1, -2, -2, -2),
        (-2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (-2, 0, 0, 0, 0, 0, 0, 0, 0),
        (-2, 0, 0, 0, 0, 0, 0, 0),
        (-2, 0, 0, 0, 0, 0, 0),
        (-1, 1, 1, 2, 0, 0),
        (-1, 1, 0, 2, 0),
        (-1, 0, 0, 2),
        (0, 2, 2),
        (0, 2),
        (0,),
    ),
    ((0,) * 7,) * 10,
    {"Delta2": -2, "Delta3": -2, "f1": 3, "E1": 2, "E3": 2, "E2": 3},
)
_NAMED_CONFIGURATION = _CONFIGURATION.named()

# the seven one-form characters, each of multiplicity 1: those of the two
# torus coordinates, then one per line of the genus-5 curve
_CHARACTERS = ("10000", "01000", "00100", "00101", "00110", "01001", "01110")
_ONE_FORMS = (0, sorted((tuple(map(int, bits)), 1) for bits in _CHARACTERS))


def _one_forms(f: Facts) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    space = one_forms_space(f.cover, f.generators)
    return one_forms_invariants(space), sorted(space.items())


def _h1_h2(f: Facts) -> tuple[int, int, int]:
    """(h1, h2, the bound on h2) of the tangent sheaf downstairs.  The
    theta report's h1, the dimension of the invariant part, bounds h1 from
    below; h2 - h1 = chi(Theta) = 2 K^2 - 10 chi(O), with the chain's K^2
    and chi, turns it into a lower bound on h2.  The character bounds sum
    to an upper bound on h2, so where the two meet they pin h1 and h2."""
    h1 = f.theta.h1
    return h1, 2 * f.chain.k2_quotient - 10 * f.chain.chi_quotient + h1, f.theta.h2_bound


def _show_h1_h2(v: tuple[int, int, int]) -> str:
    # the bound is shown only where it misses h2, so a failing text never
    # reads the same as the expected one
    h1, h2, bound = v
    text = f"h1 = {h1}, h2 = {h2}"
    return text if h2 == bound else f"{text}, bound {bound}"


def _character_decomposition(f: Facts) -> tuple[int, list[int]]:
    # two-factor model with three involutions: negate first coordinate,
    # negate second, shift both by a half period; both coordinates see the
    # translations (0, 0), (0, 0), (1, 0), so the two factors are one space
    v = legendre_pair_space([(0, 0), (0, 0), (1, 0)])
    pair_dim = invariant_dim(tensor([v, v]), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return pair_dim, sorted(tensor(pencil_spaces(f.generators)).values())


def _pencil_invariants(f: Facts) -> int | str:
    """The number of invariant pencil members, or the message of the
    identity that failed on the way: a false identity is a fail, as in
    legendre_identities, not a check that could not run."""
    params = tuple(f.elliptic(i) for i in range(3))
    try:
        constant = invariant_pencil_constant(params, f.config.tolerance)
    except IdentityFailure as err:
        return str(err)
    return pencil_invariant_count(constant)


def _identity_problems(f: Facts) -> Problems:
    cfg = f.config
    tol = cfg.tolerance
    residuals = []
    problems = []
    for i, tau in enumerate(cfg.taus):
        params = f.elliptic(i)
        report = verify_identities(params, tol)
        residuals.append(report.worst_residual)
        if not report.ok:
            problems.extend(f"tau={tau}: {f}" for f in report.failures)
        agreement = evaluator_agreement(params, tol)
        residuals.append(agreement)
        if not agreement <= tol.eps:
            problems.append(f"tau={tau}: evaluator disagreement {agreement:.3e}")
    summary = f"worst residual {_nan_max(residuals):.3e} over {len(cfg.taus)} moduli"
    return Problems(problems, "; ".join(problems[:4]) or summary)


# the claims table; output order is sorted(name)
CHECKS: dict[str, Claim] = {
    claim.name: claim
    for claim in (
        Claim(
            "homology_h1",
            "first integral homology of the quotient surface is Z/4 x (Z/2)^4",
            FinAbGroup(0, (2, 2, 2, 2, 4)),
            lambda f: f.h1,
            text="Z/4 x (Z/2)^4, factors (2, 2, 2, 2, 4)",
        ),
        Claim(
            "commutator_table",
            "pairwise commutators of the five generators are the frozen half-lattice translations",
            _COMMUTATOR_TABLE,
            _commutators,
            text="all 10 commutators match the frozen table",
            show=lambda v: _first_difference(v, _COMMUTATOR_TABLE, "10/10 pairs exact"),
        ),
        Claim(
            "sign_condition",
            "every coordinate is negated by some generator, and g1 alone negates the first",
            (True, False),
            # g1 alone negates the first coordinate, so without it the condition must fail
            lambda f: (check_sign_condition(f.generators), check_sign_condition(f.generators[1:])),
            text="sign condition holds",
            show=lambda pair: "holds" if pair == (True, False) else "violated",
        ),
        Claim(
            "hurwitz_genus5",
            "the (Z/2)^4 cover of the line branched in five points has genus 5",
            5,
            lambda f: cover_genus(f.cover),
            show="genus {}".format,
        ),
        Claim(
            "subgroup_classification",
            "the 15 index-2 subgroups split as 5 with one branch image (genus 1 quotient) and 10 with three (genus 0)",
            {(1, 1): 5, (3, 0): 10},
            lambda f: dict(sorted(classify_corank1_subgroups(f.cover).items())),
        ),
        Claim(
            "fixed_points_8",
            "exactly the five branch involutions act with fixed points, eight each",
            {0: 10, 8: 5},
            _fixed_point_histogram,
            text="5 involutions with 8 fixed points, 10 with none",
        ),
        Claim(
            "orbifold_bound_64",
            "the orbifold surjection caps the homology order at 64 and the cap is attained",
            (64, 64, FinAbGroup(0, (2, 2, 2, 2)), 3),
            _orbifold_bound,
            text="bound 64 attained; five-point orbifold abelianization (Z/2)^4; span rank 3",
            show=lambda v: "bound {}, order {}, orbifold {}, rank {}".format(*v),
        ),
        Claim(
            "k2_hat_224",
            "the adjoint class on the product threefold has triple self-product 224 against the hypersurface",
            224,
            lambda f: f.chain.k2_cover,
        ),
        Claim(
            "ks2_7",
            "dividing 224 by the group order 32 gives canonical self-intersection 7",
            7,
            lambda f: f.chain.k2_quotient,
        ),
        Claim(
            "pg_38",
            "the smooth invariant hypersurface has geometric genus 38",
            38,
            lambda f: f.chain.pg_cover,
        ),
        Claim(
            "chi_32",
            "holomorphic Euler characteristics: 32 upstairs, 1 for the quotient",
            (32, 1),
            attrgetter("chain.chi_cover", "chain.chi_quotient"),
            show=lambda v: "cover {}, quotient {}".format(*v),
        ),
        Claim(
            "kunneth_list",
            "cohomology dimensions along the adjunction chain are (5, 32, 11, 7)",
            (5, 32, 11, 7),
            _kunneth_list,
        ),
        Claim(
            "q_S_zero",
            "no one-form on the product is invariant, so the quotient has irregularity 0",
            _ONE_FORMS,
            _one_forms,
            text="0 invariant one-forms",
            # the invariant count alone while the inventory is the frozen one
            show=lambda v: _first_difference(dict(v[1]), dict(_ONE_FORMS[1]), str(v[0])),
        ),
        Claim(
            "picard_config",
            "all linear equivalences and intersection numbers of the branch configuration hold",
            _CONFIGURATION,
            attrgetter("config_report"),
            text="the frozen 66 intersections, 10 zero relations and 6 degrees",
            show=lambda v: _first_difference(
                v.named(), _NAMED_CONFIGURATION, "82/82 numbers exact"
            ),
        ),
        Claim(
            "independence_ranks",
            "the three curve families span sublattices of ranks 5, 6 and 6",
            (5, 6, 6),
            lambda f: f.theta.span_ranks,
        ),
        Claim(
            "chi_omega_minus4",
            "the canonically twisted cotangent bundle has Euler characteristic -4",
            -4,
            lambda f: f.theta.chi_cotangent_twisted,
        ),
        Claim(
            "chi_restricted_zero",
            "the twisted restrictions to the branch divisors have total Euler characteristic 0",
            0,
            lambda f: f.theta.chi_restricted_total,
        ),
        Claim(
            "theta_bounds_233",
            "the three character eigenspaces are bounded by 2, 3 and 3 sections",
            ((2, 3, 3), 8),
            attrgetter("theta.character_bounds", "theta.h2_bound"),
            text="eigenspace bounds (2, 3, 3) totalling 8",
            show=lambda v: "{} totalling {}".format(*v),
        ),
        Claim(
            "theta_h1_4_h2_8",
            "the tangent sheaf of the quotient surface has h1 = 4 and h2 = 8",
            (4, 8, 8),
            _h1_h2,
            show=_show_h1_h2,
        ),
        Claim(
            "character_decomposition",
            "the invariant part of the section-pair tensor square is 2-dimensional; the triple tensor splits into four characters of multiplicity 2",
            (2, [2, 2, 2, 2]),
            _character_decomposition,
            text="invariant pair dimension 2; four characters of multiplicity 2",
            show=lambda v: "pair dimension {}; multiplicities {}".format(*v),
        ),
        Claim(
            "pencil_two_invariants",
            "the residual involution fixes exactly two members of the hypersurface pencil",
            2,
            _pencil_invariants,
            show=lambda v: v if isinstance(v, str) else f"{v} invariant members",
            moduli=3,
            skip=("exactly two invariant pencil members", "needs three moduli"),
        ),
        Claim(
            "legendre_identities",
            "the constructed degree-2 elliptic function satisfies its defining functional equations",
            (),
            _identity_problems,
            text="all residuals < {eps:g}",
            moduli=1,
            skip=("all identity residuals under eps", "no modulus supplied"),
        ),
    )
}


def canonical_names() -> list[str]:
    return sorted(CHECKS)


def resolve_names(requested: tuple[str, ...]) -> list[str]:
    """Validate every name, then expand "all"; canonical sorted order."""
    unknown = [name for name in requested if name != "all" and name not in CHECKS]
    if unknown:
        raise UnknownCheck(
            f"unknown check(s): {', '.join(sorted(unknown))}; "
            f"valid names: {', '.join(canonical_names())}"
        )
    if "all" in requested:
        return canonical_names()
    return sorted(set(requested))


def run(config: RunConfig) -> list[CheckResult]:
    """Run the requested checks on one fresh Facts object.

    An exception raised inside a check becomes that check's status
    "error", with "<type>: <message>" as its actual text; the other checks
    still run.  Unknown names raise UnknownCheck before any check runs.
    """
    facts = Facts(config)
    results = []
    for name in resolve_names(config.checks):
        claim = CHECKS[name]
        start = time.perf_counter()
        try:
            status, expected, actual = claim.verdict(facts)
        except Exception as err:  # noqa: BLE001 - one check must not sink the report
            status = "error"
            expected = claim.expected_text(config)
            actual = f"{type(err).__name__}: {err}"
        elapsed = (time.perf_counter() - start) * 1000.0
        timing = elapsed if config.timings else None
        results.append(CheckResult(name, status, expected, actual, claim.anchor, timing))
    return results


def exit_code(results: list[CheckResult]) -> int:
    """3 if any check errored, else 1 if any failed, else 0."""
    statuses = {r.status for r in results}
    if "error" in statuses:
        return 3
    return 1 if "fail" in statuses else 0
