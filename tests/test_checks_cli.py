"""Tests for the check registry, the run engine, and the CLI wrapper."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from surface_lab import checks as checks_mod
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
from surface_lab.cli import format_tau, main, parse_tau, render_json, render_text
from surface_lab.legendre_numerics import legendre_params
from surface_lab.picard_lattice import E, L, catalog

SRC = Path(__file__).resolve().parents[1] / "src"
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
    "verify_configuration",
    "adjunction_chain",
    "abelianize_extension",
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


def raise_in_pg_38(monkeypatch) -> None:
    def boom(facts):
        raise ZeroDivisionError("seeded defect")

    raising = dataclasses.replace(CHECKS["pg_38"], measure=boom)
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
        with pytest.raises(UnknownCheck):
            resolve_names(("definitely_not_a_check",))

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
        for tau in (complex(math.nan, 1), complex(0, math.inf)):
            with pytest.raises(ValueError, match="modulus"):
                RunConfig(taus=(tau,))


class TestRun:
    def test_full_suite_all_pass(self):
        results = run(RunConfig())
        assert len(results) == 22
        assert [r.name for r in results] == canonical_names()
        assert all(r.status == "pass" for r in results)
        assert exit_code(results) == 0

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
        wrong = dataclasses.replace(CHECKS["ks2_7"], measure=lambda cfg: 6)
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
            return dataclasses.replace(params, e3=params.e3 + 1e-6 * abs(params.e1))

        monkeypatch.setattr(checks_mod, "legendre_params", shifted)
        [result] = run(RunConfig(checks=("legendre_identities",), taus=(1j,)))
        assert result.status == "fail"
        assert "M(e3) = -a off by" in result.actual

    def test_raising_shared_builder_errors_only_its_readers(self, monkeypatch):
        def boom():
            raise RuntimeError("no chain")

        monkeypatch.setattr(checks_mod, "adjunction_chain", boom)
        results = run(RunConfig(taus=()))
        errored = {r.name for r in results if r.status == "error"}
        assert errored == {"chi_32", "kunneth_list", "pg_38"}
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

    def test_every_run_recomputes(self, monkeypatch):
        calls = count_calls(monkeypatch, SHARED_BUILDERS)
        run(RunConfig(taus=()))
        run(RunConfig(taus=()))
        assert calls == {name: 2 for name in SHARED_BUILDERS}

    def test_patched_builder_is_seen_by_the_next_run(self, monkeypatch):
        config = RunConfig(checks=("picard_config", "theta_h1_4_h2_8"), taus=())
        assert [r.status for r in run(config)] == ["pass", "pass"]
        good = catalog()
        broken = dataclasses.replace(good, S=(L - E[0] - E[1], *good.S[1:]))
        monkeypatch.setattr(checks_mod, "catalog", lambda: broken)
        assert [r.status for r in run(config)] == ["fail", "fail"]

    def test_one_run_builds_each_modulus_once(self, monkeypatch):
        # legendre_identities reads all four default moduli and
        # pencil_two_invariants the first three, from the same parameters
        calls = count_calls(monkeypatch, ("legendre_params",))
        results = run(RunConfig())
        assert {r.status for r in results} == {"pass"}
        assert calls == {"legendre_params": len(DEFAULT_TAUS)}

    def test_unread_reports_are_not_built(self, monkeypatch):
        names = (*SHARED_BUILDERS, "catalog")
        calls = count_calls(monkeypatch, names)
        assert run(RunConfig(checks=("ks2_7",)))[0].status == "pass"
        assert not calls


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
        assert main(["verify", "nope"]) == 2
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
        wrong = dataclasses.replace(CHECKS["ks2_7"], measure=lambda cfg: 6)
        monkeypatch.setitem(checks_mod.CHECKS, "ks2_7", wrong)
        assert main(["verify", "ks2_7"]) == 1
        assert "expected 7; got 6" in capsys.readouterr().out

    def test_json_output_parses(self, capsys):
        assert main(["verify", "ks2_7", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["status"] == "pass"

    def test_bad_samples_is_usage_error(self, capsys):
        assert main(["verify", "legendre_identities", "--samples", "0"]) == 2
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
        # could report "error"; no status other than pass/skipped appears
        assert main(["verify", "all", "--no-default-taus"]) == 0
        assert capsys.readouterr().out.encode() == GOLDEN_NO_TAUS_TEXT.read_bytes()

    def test_no_default_taus_json_matches_golden_file(self):
        # the file is this command's output at the commit before the claims
        # table; it holds no floating-point residual, so no platform drift
        args = ("verify", "all", "--no-default-taus", "--format", "json")
        out = run_python("-m", "surface_lab.cli", *args)
        assert out.returncode == 0, out.stderr
        assert out.stdout == GOLDEN_NO_TAUS.read_bytes()

    def test_default_json_matches_golden_file(self, capsys):
        # the file is this command's output with the theta-form L; its
        # legendre_identities residual text pins the numerics on the four
        # default moduli, which the --no-default-taus files cannot.  Only
        # that text has changed since the file was first written
        # (2.383e-11 -> 2.641e-11 -> 2.866e-15)
        assert main(["verify", "all", "--format", "json"]) == 0
        assert capsys.readouterr().out.encode() == GOLDEN_DEFAULT.read_bytes()

    def test_cli_import_leaves_numpy_out(self):
        out = run_python(
            "-c", "import sys, surface_lab.cli; assert 'numpy' not in sys.modules"
        )
        assert out.returncode == 0, out.stderr

    def test_numerics_import_leaves_algebra_out(self):
        script = (
            "import sys\n"
            "from surface_lab import legendre_numerics\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('surface_lab.'))\n"
            "assert loaded == ['surface_lab.legendre_numerics'], loaded\n"
            "from surface_lab import run, Tolerance\n"
            "assert Tolerance is legendre_numerics.Tolerance\n"
            "assert run.__module__ == 'surface_lab.checks'\n"
        )
        out = run_python("-c", script)
        assert out.returncode == 0, out.stderr

    def test_closed_stdout_exits_cleanly(self):
        # `surface-lab verify all | head -1`: the reader is gone before the
        # report is written; this ended in a BrokenPipeError traceback
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "surface_lab.cli", "verify", "all", "--no-default-taus"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert stderr == b""

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

