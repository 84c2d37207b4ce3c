"""Per-layer measurements for the traced run.

Every function here returns {metric name: value}; names and units are the
``per_layer`` entries of BENCHMARK.json, and METRICS.md says which
end-to-end metric each should move on which workload.  Layers are timed
from outside, through their public functions, with the tracer removed;
self times and call counts come from spans over a few traced operations.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from tracing import LAYER_MODULES, Tracer
from workloads import ROOT, SAMPLES, numeric_inputs, package_env, residual_margin

# where the cost of the elliptic evaluators depends on Im tau
NUMERIC_PROBES = {"im_low": complex(0.1, 0.3), "im_high": complex(0.1, 4.0)}
ALGEBRA_OPS = 10


def per_call(fn, repeat: int, number: int = 1) -> float:
    """Median over `repeat` batches of the wall seconds of one call."""
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def import_layer(repeat: int = 3) -> dict[str, float]:
    """`-X importtime` of a fresh `import surface_lab.cli`, plus bare start-up."""
    env = package_env()
    # a module that is no longer imported (numpy, once it leaves the runtime
    # path) reports 0
    found: dict[str, list[float]] = {
        f"import.{m}_ms": [] for m in ("numpy", "surface_lab", *LAYER_MODULES)
    }
    for _ in range(repeat):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import surface_lab.cli"],
            capture_output=True, text=True, env=env, cwd=ROOT, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            self_us, cumulative_us, module = int(parts[0]), int(parts[1]), parts[2].strip()
            if module in ("numpy", "surface_lab"):
                found[f"import.{module}_ms"].append(cumulative_us / 1e3)
            elif module.removeprefix("surface_lab.") in LAYER_MODULES:
                found[f"import.{module.removeprefix('surface_lab.')}_ms"].append(self_us / 1e3)
    out = {name: statistics.median(v) if v else 0.0 for name, v in found.items()}
    out["import.interpreter_ms"] = 1e3 * per_call(
        lambda: subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True),
        repeat=5,
    )
    return out


def cli_layer(seed: int) -> dict[str, float]:
    from surface_lab import cli
    from surface_lab.checks import RunConfig, run

    argv = ["verify", "all", "--format", "json", "--seed", str(seed)]
    config = RunConfig(output_format="json", seed=seed)
    results = run(config)
    return {
        "cli.parse_ms": 1e3 * per_call(lambda: cli.build_parser().parse_args(argv), 15),
        "cli.render_json_us": 1e6 * per_call(lambda: cli.render_json(config, results), 15, 20),
    }


def checks_layer(seed: int) -> dict[str, float]:
    from surface_lab.checks import RunConfig, canonical_names, run

    out = {}
    for name in canonical_names():
        config = RunConfig(checks=(name,), seed=seed)
        out[f"checks.{name}_ms"] = 1e3 * per_call(lambda: run(config), 5)
    return out


# spans reported as self time per call, and as calls per op, on algebra_warm
ALGEBRA_SELF = (
    "affine_groups.abelianize_extension",
    "affine_groups.commutator",
    "orbifold_covers.classify_corank1_subgroups",
    "orbifold_covers.orbifold_abelianization",
    "orbifold_covers.homology_bound",
    "product_threefold.adjunction_chain",
    "picard_lattice.theta_cohomology_report",
    "picard_lattice.verify_configuration",
    "character_calculus.one_forms_invariants",
    "character_calculus.tensor",
)
ALGEBRA_COUNTS = (
    "affine_groups.standard_generators",
    "integer_algebra.smith_normal_form",
    "product_threefold.adjunction_chain",
    "picard_lattice.theta_cohomology_report",
)


def algebra_layer() -> dict[str, float]:
    from surface_lab.affine_groups import abelianization_relations, standard_generators
    from surface_lab.checks import RunConfig, run
    from surface_lab.integer_algebra import smith_normal_form

    config = RunConfig(taus=())
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(ALGEBRA_OPS):
            tracer.op_id = i
            run(config)
    finally:
        tracer.uninstall()
    stats = tracer.self_times()
    out = {}
    for label in ALGEBRA_SELF:
        calls, seconds = stats.get(label, (0, 0.0))
        out[f"{label}_us"] = 1e6 * seconds / calls if calls else 0.0
    for label in ALGEBRA_COUNTS:
        out[f"{label}.calls_per_op"] = stats.get(label, (0, 0.0))[0] / ALGEBRA_OPS

    relations = abelianization_relations(standard_generators())  # 29 x 13
    out["integer_algebra.smith_normal_form_us"] = 1e6 * per_call(
        lambda: smith_normal_form(relations), 15
    )
    out["integer_algebra.smith_normal_form_transforms_us"] = 1e6 * per_call(
        lambda: smith_normal_form(relations, transforms=True), 15
    )
    return out


def numeric_layer(seed: int) -> dict[str, float]:
    from surface_lab import legendre_numerics as ln

    out = {}
    for where, tau in NUMERIC_PROBES.items():
        tol = ln.Tolerance(eps=1e-9, samples=SAMPLES, seed=seed)
        se = tol.series_eps
        points = ln.sample_points(tau, ln.Tolerance(samples=16, seed=seed))
        for fn in (ln.weierstrass_p, ln.weierstrass_p_theta, ln.weierstrass_p_prime):
            us = 1e6 * per_call(lambda: [fn(z, tau, eps=se) for z in points], 9) / len(points)
            out[f"legendre_numerics.{fn.__name__}_us.{where}"] = us
        out[f"legendre_numerics.legendre_params_us.{where}"] = 1e6 * per_call(
            lambda: ln.legendre_params(tau, tol), 15
        )
        params = ln.legendre_params(tau, tol)
        out[f"legendre_numerics.verify_identities_us_per_sample.{where}"] = (
            1e6 * per_call(lambda: ln.verify_identities(params, tol), 3) / SAMPLES
        )
        out[f"legendre_numerics.evaluator_agreement_us_per_sample.{where}"] = (
            1e6 * per_call(lambda: ln.evaluator_agreement(tau, tol), 3) / SAMPLES
        )
        triple = (tau, tau + 0.2, tau - 0.2)
        pencil_tol = ln.Tolerance(seed=seed)
        out[f"legendre_numerics.invariant_pencil_constant_ms.{where}"] = 1e3 * per_call(
            lambda: ln.invariant_pencil_constant(triple, pencil_tol), 3
        )

        tracer = Tracer()
        tracer.install()
        try:
            p = ln.legendre_params(tau, tol)
            ln.verify_identities(p, tol)
            ln.evaluator_agreement(tau, tol)
        finally:
            tracer.uninstall()
        calls = tracer.self_times().get("legendre_numerics.weierstrass_p", (0, 0.0))[0]
        out[f"legendre_numerics.weierstrass_p.calls_per_sample.{where}"] = calls / SAMPLES
    return out


def margin_layer(seed: int) -> dict[str, float]:
    """Median residual margin over one round of the seed's numeric sweep."""
    from surface_lab import legendre_numerics as ln

    margins = []
    for m in numeric_inputs(seed, 1):
        tol = ln.Tolerance(eps=m.eps, samples=SAMPLES, seed=m.sample_seed)
        try:
            report = ln.verify_identities(ln.legendre_params(m.tau, tol), tol)
            gap = ln.evaluator_agreement(m.tau, tol)
        except Exception:  # noqa: BLE001 - raising moduli have no residual
            continue
        margins.append(residual_margin(report, gap))
    return {"legendre_numerics.residual_margin.p50": statistics.median(margins)}


def all_layers(seed: int) -> dict[str, float]:
    out = {}
    out.update(import_layer())
    out.update(cli_layer(seed))
    out.update(checks_layer(seed))
    out.update(algebra_layer())
    out.update(numeric_layer(seed))
    out.update(margin_layer(seed))
    return out

