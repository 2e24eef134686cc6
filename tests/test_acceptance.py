"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s`); the suite is
the package's exit gate.  Criteria 1 and 2 share one sweep over all built-in
warps, dimensions 2..5, derivative ranks up to 4, five profile families, and
a 256-point logarithmic radial grid.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import Poly, dense_norms, oracle_christoffel

from radwarp.cli import main as cli_main
from radwarp.funcspace import RadialFunction, default_families
from radwarp.geometry import covariant_bundle, pointwise_norm
from radwarp.manifold import ManifoldSpec, WarpSpec, sphere_volume
from radwarp.quadrature import DecayEnvelope, Integrand, integrate_weighted
from radwarp.verify import CheckSpec, GridSpec, run_check

GOLDEN_CHECKS = Path(__file__).parent / "data" / "default_suite_checks.json"

BUILTIN_WARPS = (
    WarpSpec.euclidean(),
    WarpSpec.hyperbolic(),
    WarpSpec.spherical(),
    WarpSpec.tanh_cap(),
)


def _verdict(number: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _sweep_grid(radius: float) -> np.ndarray:
    lo = max(1e-3, radius / 1e4 if math.isfinite(radius) else 1e-3)
    hi = min(0.999 * radius, 10.0)
    return np.geomspace(lo, hi, 256)


@pytest.fixture(scope="module")
def full_sweep():
    """Identity gaps and gradient margins over the full acceptance sweep."""
    start = time.perf_counter()
    worst_gap = {"value": -1.0}
    worst_margin = {"value": math.inf}
    for w in BUILTIN_WARPS:
        grid = _sweep_grid(w.radius)
        families = default_families(w.radius)
        for n in (2, 3, 4, 5):
            m = ManifoldSpec(w, n)
            for f in families:
                metric, tensors = covariant_bundle(f, m, grid, 4)
                vjet = f.eval_jet(grid, 4)
                for k in range(1, 5):
                    lhs = tensors[k].component((1,) * k).value
                    rhs = vjet.derivative(k)
                    rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
                    i = int(np.argmax(rel))
                    if rel[i] > worst_gap["value"]:
                        worst_gap = {"value": float(rel[i]), "warp": w.kind,
                                     "N": n, "k": k, "family": f.label,
                                     "r": float(grid[i])}
                for j in range(5):
                    margin = pointwise_norm(tensors[j], metric) - np.abs(
                        vjet.derivative(j)
                    )
                    i = int(np.argmin(margin))
                    if margin[i] < worst_margin["value"]:
                        worst_margin = {"value": float(margin[i]), "warp": w.kind,
                                        "N": n, "j": j, "family": f.label,
                                        "r": float(grid[i])}
    runtime = time.perf_counter() - start
    return {"gap": worst_gap, "margin": worst_margin, "runtime_s": runtime}


def test_criterion_01_identity_suite(full_sweep):
    gap = full_sweep["gap"]
    runtime = full_sweep["runtime_s"]
    ok = gap["value"] <= 1e-8 and runtime < 60.0
    _verdict(1, "pure-radial identity sweep", ok,
             f"max rel gap {gap['value']:.3e} at {gap} in {runtime:.1f}s")


def test_criterion_02_gradient_inequality(full_sweep):
    margin = full_sweep["margin"]
    ok = margin["value"] >= -1e-10
    _verdict(2, "tensor norm dominates radial derivative", ok,
             f"min margin {margin['value']:.3e} at {margin}")


def test_criterion_03_k1_norm_equality():
    worst = -1.0
    detail = ""
    for w in BUILTIN_WARPS:
        for p in (1.0, 2.0, 3.0):
            res = run_check(CheckSpec(
                kind="k1_norm_equality",
                manifold=ManifoldSpec(w, 3),
                p=p,
            ))
            rel = res.measured["max_rel_diff"]
            assert res.verdict == "pass", (w.kind, p, res.measured)
            if rel > worst:
                worst = rel
                detail = f"{w.kind}, p={p}"
    _verdict(3, "first-order norms agree across routes", worst <= 1e-8,
             f"max rel diff {worst:.3e} ({detail})")


def test_criterion_04_angle_independence():
    angle_sets = {
        3: [(math.pi / 2,) * 2, (0.8, 2.2), (1.9, 0.4)],
        4: [(math.pi / 2,) * 3, (0.8, 2.2, 1.1), (1.9, 0.4, 2.7)],
    }
    worst = -1.0
    for w in BUILTIN_WARPS:
        grid = _sweep_grid(w.radius)[::8]
        for n in (3, 4):
            m = ManifoldSpec(w, n)
            for f in (RadialFunction.gaussian(1.0), RadialFunction.log_profile(5.0)):
                # the dense route: the pattern form behind norm_profiles
                # reads no angle, so it would test nothing
                base = dense_norms(f, m, grid, 3, angle_sets[n][0])
                scale = np.maximum(np.abs(base), 1e-12)
                for angles in angle_sets[n][1:]:
                    other = dense_norms(f, m, grid, 3, angles)
                    worst = max(worst, float(np.max(np.abs(other - base) / scale)))
    _verdict(4, "tensor norms independent of evaluation angles", worst <= 1e-8,
             f"max rel spread {worst:.3e}")


def test_criterion_05_christoffel_oracle():
    from radwarp.geometry import christoffel_at
    from radwarp.manifold import metric_at
    from itertools import product as iproduct

    worst = -1.0
    zero_exact = True
    for w in BUILTIN_WARPS:
        for n in (2, 3, 4, 5):
            m = ManifoldSpec(w, n)
            for point in [(0.7, 1.1, 0.8, 2.1, 0.5)[:n], (1.9, 2.0, 1.4, 0.9, 2.4)[:n]]:
                if point[0] >= w.radius:
                    continue
                gamma = christoffel_at(metric_at(m, point, order=2))
                oracle = oracle_christoffel(w, n, point)
                for k, i, j in iproduct(range(1, n + 1), repeat=3):
                    expected = oracle.get((k, i, j), 0.0)
                    entry = gamma.entry(k, i, j)
                    got = float(entry.value) if entry is not None else 0.0
                    if expected == 0.0:
                        zero_exact = zero_exact and got == 0.0
                    else:
                        worst = max(worst, abs(got - expected) / abs(expected))
    ok = worst <= 1e-12 and zero_exact
    _verdict(5, "computed symbols match the closed-form table", ok,
             f"max rel err {worst:.3e}, zero family exact: {zero_exact}")


def test_criterion_06_hessian_sanity():
    worst = -1.0
    v = Poly(0.0, 0.0, 0.5)  # t^2 / 2
    for n in (2, 3, 4, 5):
        m = ManifoldSpec(WarpSpec.euclidean(), n)
        metric, tensors = covariant_bundle(v, m, 1.3, 2)
        got = float(pointwise_norm(tensors[2], metric))
        worst = max(worst, abs(got - math.sqrt(n)) / math.sqrt(n))
    _verdict(6, "flat second-derivative norm is sqrt(N)", worst <= 1e-10,
             f"max rel err {worst:.3e}")


def test_criterion_07_decay_lemma():
    worst = -1.0
    for w in (WarpSpec.hyperbolic(), WarpSpec.euclidean()):
        for n in (2, 3, 4):
            for p in (1.0, 2.0):
                res = run_check(CheckSpec(
                    kind="decay_lemma",
                    manifold=ManifoldSpec(w, n),
                    p=p,
                    grid=GridSpec(n=128),
                ))
                assert res.verdict == "pass", (w.kind, n, p, res.measured)
                worst = max(worst, res.measured["max_ratio"])
    _verdict(7, "pointwise decay bound holds", worst <= 1.0 + 1e-6,
             f"max ratio {worst:.9f}")


def test_criterion_08_radial_lemmas():
    power_tuples = [
        (WarpSpec.euclidean(1.0), 3, 1, 2.0),
        (WarpSpec.euclidean(1.0), 5, 2, 2.0),
        (WarpSpec.tanh_cap(2.0), 4, 1, 3.0),
        (WarpSpec.spherical(2.0), 3, 1, 2.0),
        (WarpSpec.tanh_cap(2.0), 5, 1, 4.0),
    ]
    log_tuples = [
        (WarpSpec.euclidean(1.0), 2, 1, 2.0),
        (WarpSpec.euclidean(1.0), 3, 1, 3.0),
        (WarpSpec.tanh_cap(2.0), 4, 2, 2.0),
        (WarpSpec.spherical(2.0), 4, 2, 2.0),
    ]
    worst_change = -1.0
    for kind, tuples in (("radial_lemma_power", power_tuples),
                         ("radial_lemma_log", log_tuples)):
        for w, n, k, p in tuples:
            res = run_check(CheckSpec(
                kind=kind, manifold=ManifoldSpec(w, n), k=k, p=p,
                grid=GridSpec(n=128),
            ))
            assert res.verdict == "pass", (kind, w.kind, n, k, p, res.measured)
            assert math.isfinite(res.measured["constant"])
            worst_change = max(worst_change, res.measured["grid_doubling_change"])
    _verdict(8, "radial lemma constants finite and grid-stable", worst_change <= 0.01,
             f"{len(power_tuples)} power + {len(log_tuples)} log tuples, "
             f"max doubling change {worst_change:.2e}")


def test_criterion_09_hardy():
    tuples = [
        (WarpSpec.euclidean(1.0), 3, 1, 1, 2.0),
        (WarpSpec.tanh_cap(2.0), 5, 2, 2, 2.0),
        (WarpSpec.euclidean(1.0), 4, 2, 1, 3.0),
        (WarpSpec.spherical(2.0), 5, 2, 1, 2.0),
    ]
    for w, n, k, j, p in tuples:
        res = run_check(CheckSpec(
            kind="hardy", manifold=ManifoldSpec(w, n), k=k, j=j, p=p,
        ))
        assert res.verdict == "pass", (w.kind, n, k, j, p, res.measured)
        assert math.isfinite(res.measured["constant"])
    res0 = run_check(CheckSpec(
        kind="hardy", manifold=ManifoldSpec(WarpSpec.euclidean(1.0), 3), k=2, j=0, p=2.0,
    ))
    ok = res0.verdict == "pass" and res0.measured["constant"] <= 1.0 + 1e-10
    _verdict(9, "weighted derivative quotients controlled", ok,
             f"{len(tuples)} slots + inclusion case C0 = {res0.measured['constant']:.12f}")


def test_criterion_10_counterexample():
    res_pow = run_check(CheckSpec(
        kind="counterexample", manifold=ManifoldSpec(WarpSpec.tanh_cap(2.0), 2),
        k=3, p=2.0,
    ))
    slope_ok = (
        res_pow.verdict == "pass"
        and res_pow.measured["fitted_law"] == "power"
        and abs(res_pow.measured["fitted_exponent"] - 2.0) <= 0.04
        and math.isfinite(res_pow.measured["interval_norm"])
    )
    res_log = run_check(CheckSpec(
        kind="counterexample", manifold=ManifoldSpec(WarpSpec.euclidean(1.0), 3),
        k=2, p=3.0,
    ))
    log_ok = res_log.verdict == "pass" and res_log.measured["fitted_law"] == "log"
    _verdict(10, "norm-equivalence failure regime detected", slope_ok and log_ok,
             f"fitted exponent {res_pow.measured['fitted_exponent']:.4f} (power), "
             f"log-law branch: {res_log.measured['fitted_law']}")


def test_criterion_11_asymptotic_leading():
    from radwarp.geometry import asymptotic_leading_ratio

    details = []
    ok = True
    for k, manifolds in ((3, (WarpSpec.hyperbolic(), WarpSpec.tanh_cap())),
                         (4, (WarpSpec.euclidean(), WarpSpec.spherical()))):
        target = (-1.0) ** k * math.factorial(k - 2)
        for w in manifolds:
            ratio = asymptotic_leading_ratio(ManifoldSpec(w, 3), k, 1e-3)
            ok = ok and abs(ratio - target) <= 0.01 * abs(target)
            details.append(f"k={k} {w.kind}: {ratio:.4f}")
    for w in BUILTIN_WARPS:
        ratio = asymptotic_leading_ratio(ManifoldSpec(w, 3), 2, 0.37)
        ok = ok and abs(ratio - 1.0) <= 1e-12
    _verdict(11, "small-radius leading coefficients", ok, "; ".join(details))


def test_criterion_12_quadrature_oracles():
    worst = -1.0
    one = lambda t: np.ones_like(t)
    for n in (2, 3, 4, 5, 6):
        res = integrate_weighted(Integrand(one, n - 1.0), WarpSpec.euclidean(1.0))
        worst = max(worst, abs(res.value - 1.0 / n) * n)
    res = integrate_weighted(Integrand(one, 1.0), WarpSpec.hyperbolic(1.0))
    worst = max(worst, abs(res.value - (math.cosh(1.0) - 1.0)) / (math.cosh(1.0) - 1.0))
    res = integrate_weighted(
        Integrand(lambda t: np.exp(-2.0 * t), 1.0, DecayEnvelope(1.0, 0.0, 2.0, 1.0)),
        WarpSpec.hyperbolic(),
    )
    worst = max(worst, abs(res.value - 1.0 / 3.0) * 3.0)
    _verdict(12, "closed-form integrals reproduced", worst <= 1e-10,
             f"max rel err {worst:.3e}")


def test_criterion_13_sphere_volumes():
    worst = max(
        abs(sphere_volume(2) - 2 * math.pi) / (2 * math.pi),
        abs(sphere_volume(3) - 4 * math.pi) / (4 * math.pi),
        abs(sphere_volume(4) - 2 * math.pi**2) / (2 * math.pi**2),
    )
    _verdict(13, "unit sphere volumes", worst <= 1e-12, f"max rel err {worst:.3e}")


def test_criterion_14_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(["run", "--default-suite", "--out", str(out1)])
    code2 = cli_main(["run", "--default-suite", "--out", str(out2)])

    def normalized(path):
        payload = json.loads(path.read_text())
        payload["run_meta"].pop("timestamp")
        for entry in payload["checks"]:
            entry.pop("runtime_ms")
        return payload

    p1, p2 = normalized(out1), normalized(out2)
    identical = json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    # the checks must also match the saved default-suite baseline exactly, so
    # a change that shifts every number alike cannot pass
    golden = json.loads(GOLDEN_CHECKS.read_text())
    matches_golden = (json.dumps(p1["checks"], sort_keys=True)  # text, so -0.0 != 0.0
                      == json.dumps(golden, sort_keys=True))
    ok = (code1 == 0 and code2 == 0 and identical and matches_golden
          and len(p1["checks"]) >= 10)
    _verdict(14, "byte-identical reports modulo volatile fields", ok,
             f"exit codes ({code1}, {code2}), {len(p1['checks'])} checks, "
             f"identical: {identical}, matches {GOLDEN_CHECKS.name}: {matches_golden}")
