"""Tests for the check registry, the run engine, and the CLI wrapper."""

import ast
import gc
import importlib
import json
import math
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surface_lab import affine_groups as affine_groups_mod
from surface_lab import checks as checks_mod
from surface_lab import legendre_numerics as numerics_mod
from surface_lab import product_threefold as product_mod
from surface_lab.affine_groups import commutator_table, standard_generators
from surface_lab.character_calculus import one_forms_space
from surface_lab.checks import (
    CHECKS,
    DEFAULT_TAUS,
    CheckResult,
    RunConfig,
    UnknownCheck,
    canonical_names,
    exit_code,
    resolve_names,
    run,
)
from surface_lab.cli import (
    USAGE,
    build_parser,
    entry,
    format_tau,
    main,
    parse_args,
    parse_tau,
    render_json,
    render_text,
    _to_json,
)
from surface_lab.legendre_numerics import legendre_params
from surface_lab.orbifold_covers import BranchedCoverData
from surface_lab.picard_lattice import E, L, catalog

from oracles import build_parser as argparse_parser
from oracles import compose, json_dumps
from oracles import replace

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPT = SRC.parent / "scripts" / "run_verification.py"
GOLDEN_NO_TAUS = Path(__file__).parent / "data" / "verify_all_no_default_taus.json"
GOLDEN_NO_TAUS_TEXT = Path(__file__).parent / "data" / "verify_all_no_default_taus.txt"
GOLDEN_DEFAULT = Path(__file__).parent / "data" / "verify_all.json"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports surface_lab from this checkout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


ALGEBRAIC_SUBSET = (
    "homology_h1",
    "commutator_table",
    "ks2_7",
    "picard_config",
    "character_decomposition",
)

SHARED_BUILDERS = (
    "theta_cohomology_report",
    "configuration_report",
    "adjunction_chain",
    "abelianize_extension",
    "commutator_table",
    "actions_mod2",
    "d_factor_branch_elements",
)


def count_calls(monkeypatch, names) -> Counter:
    """Wrap the builders that checks looks up by name; count their calls."""
    calls: Counter = Counter()
    for name in names:
        def counted(*args, _fn=getattr(checks_mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(checks_mod, name, counted)
    return calls


def calls_in_one_run(*fns) -> Counter:
    """Calls of fns in one passing algebra run, counted by code object from
    wherever they come; count_calls sees only the names checks looks up."""
    codes = {fn.__code__: fn.__name__ for fn in fns}
    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        results = run(RunConfig(taus=()))
    finally:
        sys.setprofile(None)
    assert all(r.status in ("pass", "skipped") for r in results)
    return calls


def raise_in_pg_38(monkeypatch) -> None:
    def boom(facts):
        raise ZeroDivisionError("seeded defect")

    raising = replace(CHECKS["pg_38"], measure=boom)
    monkeypatch.setitem(checks_mod.CHECKS, "pg_38", raising)


class TestRegistry:
    def test_twenty_two_checks(self):
        assert len(CHECKS) == 22

    def test_canonical_names_sorted(self):
        names = canonical_names()
        assert names == sorted(names)
        assert "homology_h1" in names and "legendre_identities" in names

    def test_resolve_all(self):
        assert resolve_names(("all",)) == canonical_names()

    def test_resolve_subset_sorted_unique(self):
        assert resolve_names(("ks2_7", "homology_h1", "ks2_7")) == [
            "homology_h1",
            "ks2_7",
        ]

    def test_resolve_unknown(self):
        for requested in (("definitely_not_a_check",), ("all", "bogus")):
            with pytest.raises(UnknownCheck):
                resolve_names(requested)

    def test_anchor_strings_present(self):
        for name, claim in CHECKS.items():
            assert claim.name == name
            assert claim.anchor and isinstance(claim.anchor, str), name


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.taus == DEFAULT_TAUS
        assert cfg.eps == 1e-9 and cfg.samples == 100 and cfg.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(eps=0.0)
        with pytest.raises(ValueError):
            RunConfig(checks=())
        with pytest.raises(ValueError):
            RunConfig(output_format="xml")
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match="eps"):
                RunConfig(eps=eps)
        for tau in (complex(math.nan, 1), complex(0, math.inf), 1 - 1j, 3 + 0j):
            with pytest.raises(ValueError, match="modulus"):
                RunConfig(taus=(tau,))


class TestRun:
    def test_full_suite_all_pass(self):
        results = run(RunConfig())
        assert len(results) == 22
        assert [r.name for r in results] == canonical_names()
        assert all(r.status == "pass" for r in results)
        assert exit_code(results) == 0

    def test_default_run_draws_and_evaluates_each_sample_once(self, monkeypatch):
        # four moduli, each drawn once by legendre_identities, plus the
        # next seed's draw for the pencil's second modulus; L per modulus:
        # one null, 6 samples + 4 in verify_identities, and 2 samples for
        # the pencil's second modulus; the row series: three half periods
        # and the samples per modulus
        counts = Counter()
        frame, nome = numerics_mod._LegendreFrame, numerics_mod._NomeFrame
        draw, value_slopes, values, wps = (
            numerics_mod.sample_points, frame.value_slopes, frame.values, nome.wps
        )

        def counted_draw(tau, tol):
            counts["sample_points"] += 1
            return draw(tau, tol)

        def counted_value_slopes(self, zs):
            counts["L"] += len(zs)
            return value_slopes(self, zs)

        def counted_values(self, zs):
            counts["L"] += len(zs)
            return values(self, zs)

        def counted_wps(self, zs, eps):
            counts["rows"] += len(zs)
            return wps(self, zs, eps)

        monkeypatch.setattr(numerics_mod, "sample_points", counted_draw)
        monkeypatch.setattr(frame, "value_slopes", counted_value_slopes)
        monkeypatch.setattr(frame, "values", counted_values)
        monkeypatch.setattr(nome, "wps", counted_wps)
        config = RunConfig()
        assert all(r.status == "pass" for r in run(config))
        samples, moduli = config.tolerance.samples, len(config.taus)
        assert (samples, moduli) == (100, 4)
        assert counts == {"sample_points": 5, "L": 2620, "rows": 412}

    def test_algebraic_checks_ignore_numeric_knobs(self):
        base = run(RunConfig(checks=ALGEBRAIC_SUBSET))
        tweaked = run(
            RunConfig(checks=ALGEBRAIC_SUBSET, taus=(), eps=0.5, samples=3, seed=99)
        )
        assert [(r.name, r.status, r.actual) for r in base] == [
            (r.name, r.status, r.actual) for r in tweaked
        ]

    def test_numeric_checks_skip_without_moduli(self):
        results = run(
            RunConfig(
                checks=("legendre_identities", "pencil_two_invariants"), taus=()
            )
        )
        assert all(r.status == "skipped" for r in results)
        assert exit_code(results) == 0

    def test_pencil_needs_three_moduli(self):
        results = run(RunConfig(checks=("pencil_two_invariants",), taus=(1j, 2j)))
        assert results[0].status == "skipped"

    def test_failure_reported_with_both_sides(self, monkeypatch):
        wrong = replace(CHECKS["ks2_7"], measure=lambda cfg: 6)
        monkeypatch.setitem(checks_mod.CHECKS, "ks2_7", wrong)
        results = run(RunConfig(checks=("ks2_7",)))
        assert results[0].status == "fail"
        assert results[0].expected == "7" and results[0].actual == "6"
        assert exit_code(results) == 1

    def test_timings_flag_controls_elapsed(self):
        untimed = run(RunConfig(checks=("ks2_7",)))
        timed = run(RunConfig(checks=("ks2_7",), timings=True))
        assert untimed[0].elapsed_ms is None
        assert isinstance(timed[0].elapsed_ms, float)

    def test_loose_tolerance_single_modulus(self):
        results = run(
            RunConfig(checks=("legendre_identities",), taus=(1j,), eps=1e-3, samples=20)
        )
        assert results[0].status == "pass"
        assert "residual" in results[0].actual

    def test_large_a_and_translated_moduli_pass(self):
        # 6i, 8i and 1e16+i ended in IdentityFailure and 10i in a false
        # fail while L was built from a quadratic root solve
        taus = (6j, 8j, 10j, 1e16 + 1j)
        config = RunConfig(checks=("legendre_identities", "pencil_two_invariants"), taus=taus)
        assert [r.status for r in run(config)] == ["pass", "pass"]

    def test_outside_the_domain_is_a_typed_error(self):
        for tau in (0.05j, 0.5 + 0.01j):
            [result] = run(RunConfig(checks=("legendre_identities",), taus=(1j, tau)))
            assert result.status == "error"
            assert result.actual.startswith("OutsideDomain: ")

    def test_wrong_e3_fails_legendre_identities(self, monkeypatch):
        def shifted(tau, tol):
            params = legendre_params(tau, tol)
            return replace(params, e3=params.e3 + 1e-6 * abs(params.e1))

        monkeypatch.setattr(checks_mod, "legendre_params", shifted)
        [result] = run(RunConfig(checks=("legendre_identities",), taus=(1j,)))
        assert result.status == "fail"
        assert "half_period_values: worst residual" in result.actual

    def test_offset_wp_fails_legendre_identities(self, monkeypatch):
        # every row-series value shifted by a constant (pi^2 / 3 -> 3 pi^2
        # in _NomeFrame.wps): a Moebius map fitted to the shifted half
        # periods absorbed it, the closed forms do not
        original = numerics_mod._NomeFrame.wps

        def shifted(self, points, eps):
            return [w - 8 * math.pi**2 / 3 for w in original(self, points, eps)]

        monkeypatch.setattr(numerics_mod._NomeFrame, "wps", shifted)
        for tau in DEFAULT_TAUS:
            [result] = run(RunConfig(checks=("legendre_identities",), taus=(tau,)))
            assert result.status == "fail"
            assert f"tau={tau}: half_period_values: worst residual" in result.actual

    def test_sign_test_that_ignores_the_sign_fails_sign_condition(self, monkeypatch):
        # the mutant `g.signs[i] == -1` -> `!= -1` holds on the five
        # generators too; the control without g1 is what fails it
        def ignores_the_sign(gens):
            return all(any(g.signs[i] != -1 for g in gens) for i in range(gens[0].n))

        monkeypatch.setattr(checks_mod, "check_sign_condition", ignores_the_sign)
        [result] = run(RunConfig(checks=("sign_condition",), taus=()))
        assert (result.status, result.expected, result.actual) == (
            "fail",
            "sign condition holds",
            "violated",
        )

    def test_wrong_commutator_names_the_first_pair(self, monkeypatch):
        # every commutator shifted by (1, ..., 1) in the one table the run
        # builds: the table claim names its first pair, and the two claims
        # that read the same table, the abelianization and the span rank,
        # fail with it
        def shifted(gens):
            return tuple(tuple(x + 1 for x in c) for c in commutator_table(gens))

        monkeypatch.setattr(checks_mod, "commutator_table", shifted)
        names = ("commutator_table", "homology_h1", "orbifold_bound_64")
        results = {r.name: r for r in run(RunConfig(checks=names, taus=()))}
        assert {r.status for r in results.values()} == {"fail"}
        assert results["commutator_table"].actual == (
            "[g1, g2] = (1, 2, 1, 1, 1, 1, 1, 1), want (0, 1, 0, 0, 0, 0, 0, 0)"
        )
        # the shifted [g1, g_j] are independent mod 2
        assert results["orbifold_bound_64"].actual.endswith(", rank 4")

    def test_complemented_torus_characters_fail_q_s_zero(self, monkeypatch):
        # the mutant `(1 - sign) // 2` -> `(1 + sign) // 2`, applied to the
        # sign bit that one_forms_space reads on the two torus coordinates
        # (bits 0 and 3), keeps the zero character out, so the invariant
        # count alone missed it; the curve bits, and so the cover, are kept
        def complemented(cover, actions, curve):
            return one_forms_space(cover, [a ^ 0o11 for a in actions], curve)

        monkeypatch.setattr(checks_mod, "one_forms_space", complemented)
        [result] = run(RunConfig(checks=("q_S_zero",), taus=()))
        assert (result.status, result.expected, result.actual) == (
            "fail",
            "0 invariant one-forms",
            "01000 = 0, want 1",
        )

    # on the presentation (*standard_generators(), g1 g2) of the same group,
    # the claims that may fail, and why; the order, the cover and every
    # number of the chain are measured from the actions, so the rest pass
    REDUNDANT_MAY_FAIL = {
        "commutator_table": "the claim is a table of the presentation itself",
        "homology_h1": "the presentation has no relation for g1 g2",
        "orbifold_bound_64": "the presentation has no relation for g1 g2",
        "q_S_zero": "reads positions: _CHARACTERS has one entry per standard generator",
        "sign_condition": "reads positions: its second half drops the first generator",
    }

    def test_a_redundant_generator_keeps_the_group_claims(self, monkeypatch):
        g = standard_generators()
        monkeypatch.setattr(checks_mod, "standard_generators", lambda: (*g, compose(g[0], g[1])))
        results = {r.name: r for r in run(RunConfig())}
        assert [r.actual for r in results.values() if r.status == "error"] == []
        for name in (
            "hurwitz_genus5",
            "subgroup_classification",
            "fixed_points_8",
            "k2_hat_224",
            "ks2_7",
            "pg_38",
            "chi_32",
            "kunneth_list",
            "theta_h1_4_h2_8",
        ):
            assert results[name].status == "pass", results[name]
        failed = {name for name, r in results.items() if r.status != "pass"}
        assert failed <= set(self.REDUNDANT_MAY_FAIL)

    def test_six_point_cover_fails_the_four_cover_claims(self, monkeypatch):
        # valid branch data (it sums to zero and spans F_2^4), but with six
        # branch points: every claim that reads the cover must see it
        six = BranchedCoverData(4, (0b1000, 0b0100, 0b0010, 0b0001, 0b1100, 0b0011))
        monkeypatch.setattr(checks_mod, "d_factor_branch_elements", lambda curve: six)
        names = ("hurwitz_genus5", "fixed_points_8", "subgroup_classification", "orbifold_bound_64")
        results = {r.name: r for r in run(RunConfig(taus=()))}
        assert {results[name].status for name in names} == {"fail"}
        assert results["hurwitz_genus5"].actual == "genus 9"
        assert results["fixed_points_8"].actual == "{0: 9, 8: 6}"
        assert results["subgroup_classification"].actual == "{(2, 1): 9, (4, 0): 6}"
        assert results["orbifold_bound_64"].actual.startswith("bound 128, order 64, ")
        # no functional is nontrivial on exactly the five other branch images
        assert results["q_S_zero"].actual == "ValueError: branch 0 has 0 dual functionals, not 1"
        # the chain reads the cover's genus too: at genus 9, chi = 4 * 9 + 12
        # = 48 upstairs, which 32 does not divide
        chain_error = "NonIntegral: chi 48 not divisible by 32"
        assert {n for n, r in results.items() if r.actual == chain_error} == {
            "chi_32",
            "k2_hat_224",
            "ks2_7",
            "kunneth_list",
            "pg_38",
            "theta_h1_4_h2_8",
        }

    def test_nan_values_fail_legendre_identities(self, monkeypatch):
        # the NaN mutant: with every L value NaN the check passed, because
        # each failure test read `residual > eps`
        nan = complex(math.nan, math.nan)
        monkeypatch.setattr(
            numerics_mod._LegendreFrame, "values", lambda self, zs: [nan] * len(zs)
        )
        [result] = run(RunConfig(checks=("legendre_identities",), taus=(1j,)))
        assert result.status == "fail"
        assert "worst residual nan" in result.actual

    def test_wrong_ks_squared_fails_ks2_7_and_theta_h1_h2(self, monkeypatch):
        # h2 - h1 = 2 K^2 - 10 chi is read from the run's own K^2
        chain = product_mod.adjunction_chain
        monkeypatch.setattr(
            checks_mod, "adjunction_chain", lambda *args: replace(chain(*args), k2_quotient=6)
        )
        results = {r.name: r for r in run(RunConfig(taus=()))}
        assert {n for n, r in results.items() if r.status == "fail"} == {
            "ks2_7",
            "theta_h1_4_h2_8",
        }
        theta = results["theta_h1_4_h2_8"]
        assert theta.expected == "h1 = 4, h2 = 8"
        assert theta.actual == "h1 = 4, h2 = 6, bound 8"

    def test_broken_catalog_fails_picard_config_only(self, monkeypatch):
        good = catalog()
        broken = replace(good, S=(L - E[0] - E[1], *good.S[1:]))
        monkeypatch.setattr(checks_mod, "catalog", lambda: broken)
        results = run(RunConfig(taus=()))
        failed = [r for r in results if r.status == "fail"]
        assert [r.name for r in failed] == ["picard_config"]
        assert {r.status for r in results} == {"pass", "fail", "skipped"}
        assert all(r.expected != r.actual for r in failed)
        assert failed[0].actual == "K.S1 = -1, want 0"

    def test_broken_identity_fails_pencil_two_invariants(self, monkeypatch):
        # a false identity is a fail (exit 1), as in legendre_identities;
        # an exception of any other type still makes the check an error
        out_of_domain = run(RunConfig(checks=("pencil_two_invariants",), taus=(1j, 2j, 0.05j)))
        assert out_of_domain[0].status == "error"
        assert out_of_domain[0].actual.startswith("OutsideDomain: ")
        nan = complex(math.nan, math.nan)
        monkeypatch.setattr(
            numerics_mod._LegendreFrame, "values", lambda self, zs: [nan] * len(zs)
        )
        results = run(RunConfig(checks=("pencil_two_invariants",)))
        assert results[0].status == "fail"
        assert results[0].expected == "2 invariant members"
        assert results[0].actual == "(b1 b2 b3)^2 = a1 a2 a3 failed"
        assert exit_code(results) == 1

    def test_raising_shared_builder_errors_only_its_readers(self, monkeypatch):
        def boom(genus, order):
            raise RuntimeError("no chain")

        monkeypatch.setattr(checks_mod, "adjunction_chain", boom)
        results = run(RunConfig(taus=()))
        errored = {r.name for r in results if r.status == "error"}
        assert errored == {
            "chi_32",
            "k2_hat_224",
            "ks2_7",
            "kunneth_list",
            "pg_38",
            "theta_h1_4_h2_8",
        }
        assert all(
            r.actual == "RuntimeError: no chain" for r in results if r.name in errored
        )
        assert {r.status for r in results if r.name not in errored} == {"pass", "skipped"}

    def test_exit_code_error_outranks_fail(self):
        fail = CheckResult("a", "fail", "7", "6", "c")
        error = CheckResult("b", "error", "7", "KeyError: 'x'", "c")
        assert exit_code([fail]) == 1
        assert exit_code([fail, error]) == 3
        assert exit_code([CheckResult("c", "skipped", "x", "y", "c")]) == 0


class TestSharedFacts:
    def test_one_run_builds_each_shared_report_once(self, monkeypatch):
        calls = count_calls(monkeypatch, SHARED_BUILDERS)
        results = run(RunConfig(taus=()))
        assert all(r.status in ("pass", "skipped") for r in results)
        assert calls == {name: 1 for name in SHARED_BUILDERS}

    def test_one_run_builds_the_generators_once(self):
        # the character calculus takes the run's generators
        calls = calls_in_one_run(affine_groups_mod.standard_generators)
        assert calls == {"standard_generators": 1}

    def test_one_run_spans_the_actions_twice(self):
        # once for the group order, once on the curve coordinates, which
        # the cover and the one-forms both read
        calls = calls_in_one_run(affine_groups_mod.span_mod2)
        assert calls == {"span_mod2": 2}

    def test_one_run_computes_each_commutator_once(self):
        # the commutator table, the abelianization and the span rank read
        # one table of the ten pairs
        calls = calls_in_one_run(affine_groups_mod.commutator)
        assert calls == {"commutator": 10}

    def test_one_run_computes_the_product_numbers_once(self):
        # K^2 and chi of the cover and the quotient come from one
        # adjunction_chain, which takes the one triple product
        calls = calls_in_one_run(product_mod.adjunction_chain, product_mod.triple_product)
        assert calls == {"adjunction_chain": 1, "triple_product": 1}

    def test_one_run_reads_the_chain_at_the_runs_genus_and_order(self, monkeypatch):
        # genus 5 from the cover, 32 from the size of the actions' span
        seen = []
        chain = product_mod.adjunction_chain

        def spy(genus, order):
            seen.append((genus, order))
            return chain(genus, order)

        monkeypatch.setattr(checks_mod, "adjunction_chain", spy)
        results = run(RunConfig(taus=()))
        assert {r.status for r in results} == {"pass", "skipped"}
        assert seen == [(5, 32)]

    def test_every_run_recomputes(self, monkeypatch):
        calls = count_calls(monkeypatch, SHARED_BUILDERS)
        run(RunConfig(taus=()))
        run(RunConfig(taus=()))
        assert calls == {name: 2 for name in SHARED_BUILDERS}

    def test_patched_builder_is_seen_by_the_next_run(self, monkeypatch):
        config = RunConfig(checks=("picard_config", "theta_h1_4_h2_8"), taus=())
        assert [r.status for r in run(config)] == ["pass", "pass"]
        good = catalog()
        broken = replace(good, S=(L - E[0] - E[1], *good.S[1:]))
        monkeypatch.setattr(checks_mod, "catalog", lambda: broken)
        # the claims table judges the catalog's numbers; the theta report's
        # lattice numbers do not depend on S1 being a (-2)-curve
        assert [r.status for r in run(config)] == ["fail", "pass"]

    def test_one_run_builds_each_modulus_once(self, monkeypatch):
        # legendre_identities reads all four default moduli and
        # pencil_two_invariants the first three, from the same parameters
        calls = count_calls(monkeypatch, ("legendre_params",))
        results = run(RunConfig())
        assert {r.status for r in results} == {"pass"}
        assert calls == {"legendre_params": len(DEFAULT_TAUS)}

    def test_experiment_script_builds_each_parameter_set_once(self, monkeypatch, capsys):
        # one legendre_params per row (modulus, eps) of the scaling table and
        # one per modulus of the pencil triple; run() builds its own through
        # checks, which this does not count
        calls: Counter = Counter()
        build = numerics_mod.legendre_params

        def counted(*args, **kwargs):
            calls["legendre_params"] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(numerics_mod, "legendre_params", counted)
        script = runpy.run_path(str(SCRIPT), run_name="run_verification")
        monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--samples", "10"])
        assert script["main"]() == 0
        assert "pencil constant" in capsys.readouterr().out
        rows = len(DEFAULT_TAUS) * len(script["EPS_GRID"])
        assert calls == {"legendre_params": rows + 3}

    def test_unread_reports_are_not_built(self, monkeypatch):
        names = (*SHARED_BUILDERS, "catalog")
        calls = count_calls(monkeypatch, names)
        assert run(RunConfig(checks=("ks2_7",)))[0].status == "pass"
        # the chain reads the cover's genus and the group order, both
        # measured from the generators' actions
        assert calls == {"adjunction_chain": 1, "d_factor_branch_elements": 1, "actions_mod2": 1}


class TestTauParsing:
    def test_accepts_standard_forms(self):
        assert parse_tau("0+1i") == 1j
        assert parse_tau("2i") == 2j
        assert parse_tau("0.5+1.5i") == 0.5 + 1.5j
        assert parse_tau("-0.25+0.75i") == -0.25 + 0.75j

    def test_rejects_garbage_and_lower_half_plane(self):
        for bad in ("bogus", "1+2", "0-1i", "3+0i"):
            with pytest.raises(ValueError):
                parse_tau(bad)

    def test_format_round_trips(self):
        for tau in DEFAULT_TAUS:
            assert parse_tau(format_tau(tau)) == tau


class TestRenderers:
    def test_text_fail_line_has_both_sides(self):
        r = CheckResult("ks2_7", "fail", "7", "6", "claim")
        text = render_text([r])
        assert "expected 7" in text and "got 6" in text
        assert "1 failed" in text

    def test_text_summary_counts_skips(self):
        rs = [
            CheckResult("a", "pass", "x", "x", "c"),
            CheckResult("b", "skipped", "x", "no modulus", "c"),
        ]
        assert "1 passed, 0 failed, 1 skipped" in render_text(rs)
        assert "errored" not in render_text(rs)

    def test_text_error_line_and_summary(self):
        rs = [
            CheckResult("a", "pass", "x", "x", "c"),
            CheckResult("b", "error", "7", "ValueError: boom", "c"),
        ]
        text = render_text(rs)
        assert "expected 7; raised ValueError: boom" in text
        assert text.endswith("2 checks: 1 passed, 0 failed, 1 errored")

    def test_json_document_shape(self):
        cfg = RunConfig(checks=("ks2_7", "homology_h1"))
        results = run(cfg)
        doc = json.loads(render_json(cfg, results))
        assert doc["schema_version"] == "1"
        assert doc["config"]["eps"] == 1e-9
        assert len(doc["config"]["taus"]) == 4
        assert [r["name"] for r in doc["results"]] == ["homology_h1", "ks2_7"]
        for record in doc["results"]:
            assert set(record) == {
                "name",
                "status",
                "expected",
                "actual",
                "paper_anchor",
                "elapsed_ms",
            }
            assert record["elapsed_ms"] is None

    def test_json_byte_identical_across_runs(self):
        cfg = RunConfig(checks=("legendre_identities",), output_format="json")
        first = render_json(cfg, run(cfg))
        second = render_json(cfg, run(cfg))
        assert first == second


class TestMain:
    def test_subset_pass(self, capsys):
        assert main(["verify", "homology_h1", "ks2_7"]) == 0
        out = capsys.readouterr().out
        assert "2 checks: 2 passed" in out

    def test_list_prints_names(self, capsys):
        assert main(["verify", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == canonical_names()

    def test_unknown_check_is_usage_error(self, capsys):
        for names in (["nope"], ["all", "bogus"]):
            assert main(["verify", *names]) == 2
            assert "unknown check" in capsys.readouterr().err

    def test_bad_tau_is_usage_error(self, capsys):
        for bad in ("wat", "nan+1i", "0+nani", "0+infi", "inf+1i", "1e999+1i"):
            assert main(["verify", "legendre_identities", "--tau", bad]) == 2
            err = capsys.readouterr().err
            assert "modulus" in err and bad in err and err.count("\n") == 1, err

    def test_bad_eps_is_usage_error(self, capsys):
        for bad, shown in (("-1", "-1.0"), ("0", "0.0"), ("nan", "nan"), ("inf", "inf")):
            assert main(["verify", "ks2_7", "--eps", bad]) == 2
            err = capsys.readouterr().err
            assert "eps" in err and shown in err and err.count("\n") == 1, err

    def test_no_default_taus_skips(self, capsys):
        assert main(["verify", "legendre_identities", "--no-default-taus"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_explicit_tau_loose_eps(self, capsys):
        code = main(
            ["verify", "legendre_identities", "--eps", "1e-3", "--tau", "0+1i"]
        )
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_failure_exit_code(self, monkeypatch, capsys):
        wrong = replace(CHECKS["ks2_7"], measure=lambda cfg: 6)
        monkeypatch.setitem(checks_mod.CHECKS, "ks2_7", wrong)
        assert main(["verify", "ks2_7"]) == 1
        assert "expected 7; got 6" in capsys.readouterr().out

    def test_json_output_parses(self, capsys):
        assert main(["verify", "ks2_7", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["status"] == "pass"

    def test_bad_samples_is_usage_error(self, capsys):
        for samples in ("0", "1"):
            assert main(["verify", "legendre_identities", "--samples", samples]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "samples" in captured.err and captured.err.count("\n") == 1

    def test_raising_check_text_report_is_complete(self, monkeypatch, capsys):
        raise_in_pg_38(monkeypatch)
        assert main(["verify", "all", "--no-default-taus"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == canonical_names()
        [row] = [line for line in lines if line.startswith("pg_38 ")]
        assert row.split()[1] == "error"
        assert "expected 38; raised ZeroDivisionError: seeded defect" in row
        assert lines[-1] == "22 checks: 19 passed, 0 failed, 2 skipped, 1 errored"

    def test_raising_check_json_report_is_complete(self, monkeypatch, capsys):
        raise_in_pg_38(monkeypatch)
        assert main(["verify", "all", "--no-default-taus", "--format", "json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in doc["results"]] == canonical_names()
        by_name = {r["name"]: r for r in doc["results"]}
        bad = by_name.pop("pg_38")
        assert bad["status"] == "error"
        assert bad["expected"] == "38"
        assert bad["actual"] == "ZeroDivisionError: seeded defect"
        assert {r["status"] for r in by_name.values()} == {"pass", "skipped"}

    def test_no_default_taus_text_matches_golden_file(self, capsys):
        # the file is this command's output at the commit before checks
        # could report "error"; no status other than pass/skipped appears.
        # Only picard_config's text has changed since, when the configuration
        # audit became a frozen report
        assert main(["verify", "all", "--no-default-taus"]) == 0
        assert capsys.readouterr().out.encode() == GOLDEN_NO_TAUS_TEXT.read_bytes()

    def test_no_default_taus_json_matches_golden_file(self):
        # the file is this command's output at the commit before the claims
        # table; it holds no floating-point residual, so no platform drift.
        # Only picard_config's two texts have changed since, when the
        # configuration audit became a frozen report
        args = ("verify", "all", "--no-default-taus", "--format", "json")
        out = run_python("-m", "surface_lab.cli", *args)
        assert out.returncode == 0, out.stderr
        assert out.stdout == GOLDEN_NO_TAUS.read_bytes()

    def test_default_json_matches_golden_file(self, capsys):
        # the file is this command's output with the theta-form L; its
        # legendre_identities residual text pins the numerics on the four
        # default moduli, which the --no-default-taus files cannot.  Only
        # that text (2.383e-11 -> 2.641e-11 -> 2.866e-15) and picard_config's
        # two texts, when the configuration audit became a frozen report,
        # have changed since the file was first written
        assert main(["verify", "all", "--format", "json"]) == 0
        assert capsys.readouterr().out.encode() == GOLDEN_DEFAULT.read_bytes()

    def test_cli_import_leaves_numpy_out(self):
        out = run_python(
            "-c", "import sys, surface_lab.cli; assert 'numpy' not in sys.modules"
        )
        assert out.returncode == 0, out.stderr

    def test_cli_import_leaves_the_class_machinery_out(self):
        # dataclasses (with inspect, ast and dis) and fractions (with decimal)
        # were a third of the import time of a cold `verify`
        out = run_python(
            "-c", "import surface_lab.cli; import sys; print(sorted(sys.modules))"
        )
        assert out.returncode == 0, out.stderr
        loaded = set(ast.literal_eval(out.stdout.decode()))
        assert loaded.isdisjoint({"dataclasses", "inspect", "fractions"}), loaded
        assert "surface_lab.checks" in loaded

    def test_cold_verify_leaves_argparse_gettext_and_locale_out(self):
        # argparse, and the gettext and locale that its first message imports,
        # cost a cold `verify` more than its parse, and json (with re and
        # enum) more than writing the report; only the interpreter's own
        # start-up (site, .pth files) may load them
        def imported(*args: str) -> set[str]:
            out = run_python("-X", "importtime", *args)
            assert out.returncode == 0, out.stderr
            lines = out.stderr.decode().splitlines()
            return {line.rsplit("|", 1)[1].strip() for line in lines if "|" in line}

        cold = imported("-m", "surface_lab.cli", "verify", "all", "--format", "json")
        assert "surface_lab.checks" in cold
        unwanted = {"argparse", "gettext", "locale", "json"}
        assert cold.isdisjoint(unwanted - imported("-c", "pass"))

    def test_bare_interpreter_import_leaves_json_typing_re_and_enum_out(self):
        # with -S no site or .pth file preloads them, so the package's own
        # imports are all that can bring them in
        script = "import sys, surface_lab.cli; print(sorted(sys.modules))"
        out = run_python("-S", "-c", script)
        assert out.returncode == 0, out.stderr
        loaded = set(ast.literal_eval(out.stdout.decode()))
        assert "surface_lab.checks" in loaded
        assert loaded.isdisjoint({"json", "typing", "re", "enum"}), loaded

    def test_numerics_import_leaves_algebra_out(self):
        script = (
            "import sys\n"
            "from surface_lab import legendre_numerics\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('surface_lab.'))\n"
            "assert loaded == ['surface_lab._record', 'surface_lab.legendre_numerics'], loaded\n"
            "from surface_lab import run, Tolerance\n"
            "assert Tolerance is legendre_numerics.Tolerance\n"
            "assert run.__module__ == 'surface_lab.checks'\n"
        )
        out = run_python("-c", script)
        assert out.returncode == 0, out.stderr

    def test_closed_stdout_exits_cleanly(self):
        # `surface-lab verify all | head -1`: the reader is gone before the
        # report (or the --list names) is written; this ended in a
        # BrokenPipeError traceback
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        for args in (["all", "--no-default-taus"], ["--list"]):
            proc = subprocess.Popen(
                [sys.executable, "-m", "surface_lab.cli", "verify", *args],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path},
            )
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait() == 0, args
            assert stderr == b"", args

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2



# strings that reach every branch of a JSON string escape: the quote, the
# backslash, the short escapes, other control characters, DEL, non-ASCII in
# the BMP, an astral character (a surrogate pair) and lone surrogates
ESCAPED = '"\\\b\t\n\f\r\x00\x1f\x7f\x80\xe9\u20ac\U0001f600\ud800\udfff'
json_strings = st.text(
    st.sampled_from(ESCAPED) | st.characters(max_codepoint=127) | st.characters(exclude_categories=()),
    max_size=6,
)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300])
    | json_strings
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=3),
    max_leaves=8,
)


def escape_example(chars: str) -> dict:
    """chars as a key, a value, and inside ASCII text, nested."""
    return {chars: [chars, f"a{chars}z", (chars,)]}


class TestJsonWriter:
    # one fixed document per escape class the writer handles, so the drawn
    # documents can stay few and small
    @settings(max_examples=40, deadline=None)
    @given(json_documents)
    @example(escape_example('"'))
    @example(escape_example("\\"))
    @example(escape_example("\b\t\n\f\r"))
    @example(escape_example("\x00\x01\x1f"))
    @example(escape_example(" ~\x7f"))
    @example(escape_example("\x80\xe9\u20ac\uffff"))
    @example(escape_example("\U0001f600\U0010ffff"))
    @example(escape_example("\ud800\udfff"))
    @example(dict.fromkeys(ESCAPED, 0))  # key order across the classes
    @example([math.nan, math.inf, -math.inf, -0.0, 1e-300, 2**70, -(2**70), True, None])
    def test_writes_what_json_dumps_wrote(self, document):
        assert _to_json(document) == json_dumps(document)

    def test_empty_containers_and_nesting(self):
        document = {"b": [], "a": {}, "c": [{}, [[]], {"x": ()}]}
        assert _to_json(document) == json_dumps(document)

    def test_rejects_what_json_rejected(self):
        with pytest.raises(TypeError):
            _to_json({"a": {1, 2}})

    def test_error_result_with_non_ascii_message(self):
        cfg = RunConfig(checks=("pg_38",), taus=())
        message = "ValueError: p_g \u2260 38 f\xfcr \u03c4 = 2i \U0001f600"
        text = render_json(cfg, [CheckResult("pg_38", "error", "38", message, "anchor")])
        assert text.isascii()
        assert "\\u2260" in text and "\\ud83d\\ude00" in text
        document = json.loads(text)
        assert document["results"][0]["actual"] == message
        assert text == json_dumps(document)


class TestEntry:
    """entry, not main, freezes the GC heap: tests and the benchmark call main
    in-process and must get their collector back as it was."""

    def test_main_never_freezes(self, capsys):
        assert main(["verify", "--list"]) == 0
        assert main(["verify", "ks2_7", "--format", "json"]) == 0
        assert gc.get_freeze_count() == 0

    def test_script_target_is_the_freezing_entry(self, monkeypatch, capsys):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
        module, _, name = project["scripts"]["surface-lab"].partition(":")
        target = getattr(importlib.import_module(module), name)
        assert target is entry
        monkeypatch.setattr(sys, "argv", ["surface-lab", "verify", "--list"])
        try:
            with pytest.raises(SystemExit) as info:
                target()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert info.value.code == 0
        assert capsys.readouterr().out.splitlines() == canonical_names()

    def test_module_run_freezes_and_keeps_the_exit_code(self):
        script = (
            "import gc, runpy, sys\n"
            "sys.argv = ['surface-lab', 'verify', 'nope']\n"
            "try:\n"
            "    runpy.run_module('surface_lab.cli', run_name='__main__')\n"
            "except SystemExit as exit:\n"
            "    print(exit.code, gc.get_freeze_count() > 0)\n"
        )
        out = run_python("-c", script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.decode().split() == ["2", "True"]


# command lines that argparse read; the table-driven parser must read each
# to the same values
PARSED = (
    ["verify"],
    ["verify", "all"],
    ["verify", "ks2_7", "homology_h1"],
    ["verify", "--tau", "0+1i"],
    ["verify", "--tau=0.5+1.5i"],
    ["verify", "--tau", "0+1i", "--tau", "2i", "--tau=1.2+1i"],
    ["verify", "--eps", "1e-3"],
    ["verify", "--eps=1e-12"],
    ["verify", "--samples", "5"],
    ["verify", "--samp", "5"],
    ["verify", "--samples=7"],
    ["verify", "--seed", "-3"],
    ["verify", "--seed=11"],
    ["verify", "--format", "json"],
    ["verify", "--form=text"],
    ["verify", "--list"],
    ["verify", "--timings", "--no-default-taus"],
    ["verify", "--no-def"],
    ["verify", "--format", "json", "--seed", "2", "ks2_7", "pg_38"],
    ["verify", "ks2_7", "pg_38", "--seed", "2", "--li"],
    ["verify", "all", "--format", "json", "--seed", "7"],
    ["verify", "ks2_7", "--", "--list"],
)

# and those it rejected with exit code 2, as the new parser must
UNPARSED = (
    [],
    ["check"],
    ["verify", "--bogus"],
    ["verify", "--t", "0+1i"],
    ["verify", "--samples", "x"],
    ["verify", "--format", "xml"],
    ["verify", "--eps"],
    ["verify", "--list=yes"],
)


class TestParser:
    @pytest.mark.parametrize("argv", PARSED, ids=" ".join)
    def test_reads_what_argparse_read(self, argv):
        assert vars(parse_args(argv)) == vars(argparse_parser().parse_args(argv))

    def test_bench_calling_shape(self):
        argv = ["verify", "all", "--format", "json", "--seed", "7"]
        assert build_parser().parse_args(argv) == parse_args(argv)

    @pytest.mark.parametrize("argv", UNPARSED, ids=repr)
    def test_rejects_what_argparse_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            parse_args(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.split("\nsurface-lab: error: ")
        assert usage == USAGE.split("\n\n")[0] and error.count("\n") == 1
        with pytest.raises(SystemExit) as info:
            argparse_parser().parse_args(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["verify", "-h"], ["verify", "ks2_7", "--he"]], ids=" ".join
    )
    def test_help_prints_usage_and_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            parse_args(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out == USAGE + "\n"
        with pytest.raises(SystemExit) as info:
            argparse_parser().parse_args(argv)
        assert info.value.code == 0

    def test_readme_shows_the_usage_text(self):
        assert USAGE in (SRC.parent / "README.md").read_text()

    def test_negative_tau_is_read_as_a_value(self):
        # an intended difference: argparse took "-0.5+1i", which starts with
        # "-" and is no plain number, for an option
        argv = ["verify", "--tau", "-0.5+1i"]
        with pytest.raises(SystemExit):
            argparse_parser().parse_args(argv)
        assert parse_args(argv).tau == ["-0.5+1i"]
        assert main([*argv, "legendre_identities"]) == 0

    def test_check_names_on_both_sides_of_an_option(self):
        # the other intended difference: argparse's nargs="*" took one run
        # of check names, and rejected the second as unrecognized
        argv = ["verify", "ks2_7", "--format", "json", "pg_38", "--seed", "2", "homology_h1"]
        with pytest.raises(SystemExit):
            argparse_parser().parse_args(argv)
        assert parse_args(argv).checks == ["ks2_7", "pg_38", "homology_h1"]
