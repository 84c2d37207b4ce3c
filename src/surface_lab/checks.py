"""Named verification checks and the engine that runs them.

Every check is one row of the claims table CHECKS: the paper claim it
verifies, the frozen expected value, and a function that recomputes the
value from the run's Facts.  The engine compares the two, and only it:
the builders in the other modules compute and report numbers but do not
judge them, so each expected value is written once, here.  Facts builds
each shared intermediate (the theta report, the adjunction chain, ...)
on first use and lives for one run only, so every run recomputes from
scratch and checks that read the same report read the same object.  The
engine runs whatever subset is requested and reports results in a fixed
canonical order (sorted by check name), so identical configurations
produce byte-identical machine output.  A check that raises is reported
with status "error" and does not stop the others.

Algebraic checks ignore the numeric knobs entirely.  The two numeric
checks (legendre_identities, pencil_two_invariants) consume the moduli
list and tolerance, and report status "skipped" when the run supplies
fewer moduli than they need.
"""

from __future__ import annotations

import cmath
import time
from collections import Counter
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import Any, Callable

from ._record import record
from .affine_groups import (
    ExtensionData,
    abelianize_extension,
    check_sign_condition,
    commutator,
    commutator_subspan_rank,
    standard_generators,
)
from .character_calculus import (
    invariant_dim,
    legendre_pair_space,
    one_forms_invariants,
    pencil_invariant_count,
    pencil_spaces,
    tensor,
)
from .integer_algebra import FinAbGroup
from .legendre_numerics import (
    EllipticParams,
    IdentityFailure,
    Tolerance,
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
    standard_cover_data,
)
from .picard_lattice import (
    ConfigCatalog,
    ConfigReport,
    ThetaReport,
    catalog,
    theta_cohomology_report,
    verify_configuration,
)
from .product_threefold import AdjunctionReport, adjoint_cube, adjunction_chain, ks_squared

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
            if not cmath.isfinite(tau):
                raise ValueError(f"modulus {tau!r} is not finite")
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
    ends; nothing outlives the Facts object.
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
    def generators(self) -> ExtensionData:
        return standard_generators()

    @cached_property
    def cover(self) -> BranchedCoverData:
        return standard_cover_data(4)

    @cached_property
    def catalog(self) -> ConfigCatalog:
        return catalog()

    @cached_property
    def audit(self) -> ConfigReport:
        return verify_configuration(self.catalog)

    @cached_property
    def theta(self) -> ThetaReport:
        return theta_cohomology_report(self.catalog)

    @cached_property
    def chain(self) -> AdjunctionReport:
        return adjunction_chain()

    @cached_property
    def h1(self) -> FinAbGroup:
        return abelianize_extension(self.generators)

    @cached_property
    def orbifold5(self) -> FinAbGroup:
        return orbifold_abelianization(5)


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
    expected: Any
    measure: Callable[[Facts], Any]
    text: str | None = None
    show: Callable[[Any], str] = str
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


_COMMUTATOR_TABLE: dict[tuple[int, int], tuple[int, ...]] = {
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


def _commutators(f: Facts) -> dict[tuple[int, int], tuple[int, ...]]:
    gens = f.generators.generators
    return {
        (i, j): commutator(gens[i], gens[j])
        for i, j in combinations(range(len(gens)), 2)
    }


def _show_commutators(got: dict[tuple[int, int], tuple[int, ...]]) -> str:
    bad = [
        f"[g{i + 1}, g{j + 1}] = {coords}"
        for (i, j), coords in got.items()
        if _COMMUTATOR_TABLE.get((i, j)) != coords
    ]
    return "; ".join(bad) or "10/10 pairs exact"


def _fixed_point_histogram(f: Facts) -> dict[int, int]:
    counts = Counter(
        fixed_point_count(f.cover, tuple((k >> i) & 1 for i in range(4)))
        for k in range(1, 16)
    )
    return dict(sorted(counts.items()))


def _orbifold_bound(f: Facts) -> tuple[int, int, FinAbGroup, int]:
    # the surface group maps onto the five-point orbifold group extended by
    # a central involution, and abelianizing adds at most one more factor
    # of 2: the homology order is at most 2 * (|orbifold| * 2)
    bound = 2 * ((f.orbifold5.order() or 0) * 2)
    order = f.h1.order() or 0
    return bound, order, f.orbifold5, commutator_subspan_rank(f.generators, 0)


def _kunneth_list(f: Facts) -> tuple[int, int, int, int]:
    c = f.chain
    return c.h_canonical[0], c.h_adjoint[0], c.h_canonical[1], c.h_canonical[2]


def _configuration_audit(f: Facts) -> Problems:
    report = f.audit
    text = f"{report.checks_run} identities checked, {len(report.failures)} failures"
    if report.failures:
        text += ": " + "; ".join(report.failures[:3])
    return Problems(report.failures, text)


def _h1_h2(f: Facts) -> tuple[int, int, int]:
    """(h1, h2, the bound on h2) of the tangent sheaf downstairs.  The
    theta report's h1, the dimension of the invariant part, bounds h1 from
    below; h2 - h1 = chi(Theta) = 2 K^2 - 10 chi(O), with the run's own K^2
    and chi, turns it into a lower bound on h2.  The character bounds sum
    to an upper bound on h2, so where the two meet they pin h1 and h2."""
    h1 = f.theta.h1
    return h1, 2 * ks_squared() - 10 * f.chain.chi_quotient + h1, f.theta.h2_bound


def _show_h1_h2(v: tuple[int, int, int]) -> str:
    # the bound is shown only where it misses h2, so a failing text never
    # reads the same as the expected one
    h1, h2, bound = v
    text = f"h1 = {h1}, h2 = {h2}"
    return text if h2 == bound else f"{text}, bound {bound}"


def _character_decomposition(f: Facts) -> tuple[int, list[int]]:
    # two-factor model with three involutions: negate first coordinate,
    # negate second, shift both by a half period
    v1 = legendre_pair_space([(-1, 0), (1, 0), (1, 1)])
    v2 = legendre_pair_space([(1, 0), (-1, 0), (1, 1)])
    pair_dim = invariant_dim(tensor([v1, v2]), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return pair_dim, sorted(tensor(pencil_spaces()).values())


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
            show=_show_commutators,
        ),
        Claim(
            "sign_condition",
            "every coordinate is negated by some generator, and g1 alone negates the first",
            True,
            # g1 alone negates the first coordinate, so without it the condition must fail
            lambda f: check_sign_condition(f.generators)
            and not check_sign_condition(ExtensionData(4, f.generators.generators[1:])),
            text="sign condition holds",
            show=lambda ok: "holds" if ok else "violated",
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
            lambda f: adjoint_cube(),
        ),
        Claim(
            "ks2_7",
            "dividing 224 by the group order 32 gives canonical self-intersection 7",
            7,
            lambda f: ks_squared(),
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
            0,
            lambda f: one_forms_invariants(),
            text="0 invariant one-forms",
        ),
        Claim(
            "picard_config",
            "all linear equivalences and intersection numbers of the branch configuration hold",
            (),
            _configuration_audit,
            text="all configuration identities hold",
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
    """Expand "all" and validate, returning canonical sorted order."""
    if "all" in requested:
        return canonical_names()
    unknown = [name for name in requested if name not in CHECKS]
    if unknown:
        raise UnknownCheck(
            f"unknown check(s): {', '.join(sorted(unknown))}; "
            f"valid names: {', '.join(canonical_names())}"
        )
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
