"""The certification checks: verdicts, measured constants, and guard paths."""

import dataclasses
import math

import pytest

from radwarp.errors import InadmissibleParameterError
from radwarp.funcspace import RadialFunction
from radwarp.manifold import ManifoldSpec, WarpSpec
from radwarp.verify import (
    CheckSpec,
    GridSpec,
    run_check,
    run_suite,
)

SMALL = GridSpec(n=48)


def spec(kind, warp, n, families=None, **kw):
    return CheckSpec(
        kind=kind,
        manifold=ManifoldSpec(warp, n),
        families=tuple(families) if families else (),
        grid=kw.pop("grid", SMALL),
        **kw,
    )


class TestIdentity:
    def test_hyperbolic_sweep_passes(self):
        res = run_check(spec("identity", WarpSpec.hyperbolic(), 3, k=3))
        assert res.verdict == "pass"
        assert res.measured["max_rel_gap"] <= 1e-10
        assert set(res.worst_case) == {"r", "family", "order"}

    def test_tanh_rank4(self):
        res = run_check(spec("identity", WarpSpec.tanh_cap(), 4, k=4))
        assert res.verdict == "pass"

    def test_rank1_base_case_gap_zero(self):
        res = run_check(
            spec("identity", WarpSpec.euclidean(), 2, k=1,
                 families=[RadialFunction.linear()])
        )
        assert res.verdict == "pass"
        assert res.measured["max_rel_gap"] == 0.0


class TestGradientInequality:
    @pytest.mark.parametrize("w", [WarpSpec.euclidean(), WarpSpec.spherical()],
                             ids=lambda w: w.kind)
    def test_passes(self, w):
        res = run_check(spec("gradient_inequality", w, 3, k=3))
        assert res.verdict == "pass"
        assert res.measured["min_margin"] >= -1e-10


class TestK1NormEquality:
    def test_hyperbolic_gaussian(self):
        res = run_check(
            spec("k1_norm_equality", WarpSpec.hyperbolic(), 3, p=2.0,
                 families=[RadialFunction.gaussian(1.0)])
        )
        assert res.verdict == "pass"
        assert res.measured["max_rel_diff"] <= 1e-8

    def test_euclidean_bump_p1(self):
        res = run_check(
            spec("k1_norm_equality", WarpSpec.euclidean(), 5, p=1.0,
                 families=[RadialFunction.polynomial_bump((1.0, -0.3), support=2.0)])
        )
        assert res.verdict == "pass"


class TestRadialLemmas:
    def test_power_variant(self):
        res = run_check(spec("radial_lemma_power", WarpSpec.euclidean(1.0), 3, k=1, p=2.0))
        assert res.verdict == "pass"
        assert math.isfinite(res.measured["constant"])
        assert res.measured["grid_doubling_change"] <= 0.01

    def test_log_variant(self):
        res = run_check(spec("radial_lemma_log", WarpSpec.tanh_cap(2.0), 4, k=2, p=2.0))
        assert res.verdict == "pass"

    def test_grid_doubling_never_loses_the_supremum(self):
        # the doubled grid contains the coarse one, so the measured
        # constant cannot drop by more than rounding noise
        res = run_check(spec(
            "radial_lemma_power", WarpSpec.tanh_cap(2.0), 4, k=1, p=2.0,
            grid=GridSpec(n=40),
        ))
        assert res.measured["constant"] >= res.measured["constant_coarse_grid"] - 1e-12

    def test_doubled_grid_holds_the_coarse_grid_at_even_indices(self):
        # the coarse supremum is read from these points of the fine profile
        for n in (2, 3, 48, 255):
            for radius in (1.0, 2.5, math.inf):
                grid = GridSpec(n=n)
                fine = grid.doubled().resolve(radius)
                assert fine[::2].tobytes() == grid.resolve(radius).tobytes()

    def test_grid_meta_reports_the_resolved_ends(self):
        # meta reads the checked bounds, not the grid: np.geomspace sets its
        # first and last points to them exactly
        for grid in (GridSpec(n=2), GridSpec(n=97), GridSpec(n=255, lo=0.0123, hi=0.987),
                     GridSpec(n=7, lo=3e-6)):
            for radius in (1.0, 2.5, math.pi, math.inf):
                g, meta = grid.resolve(radius), grid.meta(radius)
                assert (meta["lo"], meta["hi"]) == (float(g[0]), float(g[-1]))
                assert meta["lo"].hex() == float(g[0]).hex()
                assert meta["hi"].hex() == float(g[-1]).hex()

    def test_constant_scale_invariance(self):
        base = run_check(spec(
            "radial_lemma_power", WarpSpec.euclidean(1.0), 3, k=1, p=2.0,
            families=[RadialFunction.polynomial_bump((1.0, 0.4), support=0.9)],
        ))
        scaled = run_check(spec(
            "radial_lemma_power", WarpSpec.euclidean(1.0), 3, k=1, p=2.0,
            families=[RadialFunction.polynomial_bump((2.0, 0.8), support=0.9)],
        ))
        assert scaled.measured["constant"] == pytest.approx(
            base.measured["constant"], rel=1e-9
        )

    def test_power_needs_n_above_kp(self):
        with pytest.raises(InadmissibleParameterError):
            spec("radial_lemma_power", WarpSpec.euclidean(1.0), 2, k=1, p=2.0)

    def test_log_needs_borderline(self):
        with pytest.raises(InadmissibleParameterError):
            spec("radial_lemma_log", WarpSpec.euclidean(1.0), 3, k=1, p=2.0)

    def test_warp_vanishing_at_edge_rejected(self):
        with pytest.raises(InadmissibleParameterError):
            spec("radial_lemma_power", WarpSpec.spherical(), 3, k=1, p=2.0)

    def test_unbounded_domain_rejected(self):
        with pytest.raises(InadmissibleParameterError):
            spec("radial_lemma_power", WarpSpec.euclidean(), 3, k=1, p=2.0)


class TestDecayLemma:
    def test_hyperbolic(self):
        res = run_check(spec("decay_lemma", WarpSpec.hyperbolic(), 3, k=1, p=2.0))
        assert res.verdict == "pass"
        assert res.measured["max_ratio"] <= 1.0 + 1e-6
        assert res.measured["prefactor"] == pytest.approx(
            math.sqrt(2.0 / (4.0 * math.pi)), rel=1e-12
        )
        assert res.measured["c_phi"] == 1.0

    def test_euclidean_strauss_prefactor(self):
        res = run_check(spec("decay_lemma", WarpSpec.euclidean(), 2, k=1, p=2.0))
        assert res.verdict == "pass"
        assert res.measured["prefactor"] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_non_decaying_families_are_skipped(self):
        res = run_check(spec("decay_lemma", WarpSpec.hyperbolic(), 3, k=1, p=2.0))
        assert "linear" in res.measured["skipped_families"]

    def test_zero_function_family_is_skipped(self):
        zero = RadialFunction.polynomial_bump((0.0,), support=1.0)
        res = run_check(spec(
            "decay_lemma", WarpSpec.hyperbolic(), 3, k=1, p=2.0,
            families=[RadialFunction.gaussian(1.0), zero],
        ))
        assert res.verdict == "pass"
        assert res.measured["skipped_families"] == [zero.label]

    def test_bounded_domain_rejected(self):
        with pytest.raises(InadmissibleParameterError):
            spec("decay_lemma", WarpSpec.euclidean(1.0), 3, k=1, p=2.0)


class TestHardy:
    def test_classical_regime(self):
        res = run_check(spec("hardy", WarpSpec.euclidean(1.0), 3, k=1, j=1, p=2.0))
        assert res.verdict == "pass"
        assert math.isfinite(res.measured["constant"])

    def test_j0_is_term_inclusion(self):
        res = run_check(spec("hardy", WarpSpec.euclidean(1.0), 3, k=2, j=0, p=2.0))
        assert res.verdict == "pass"
        assert res.measured["constant"] <= 1.0 + 1e-10

    def test_deep_slot(self):
        res = run_check(spec("hardy", WarpSpec.tanh_cap(2.0), 5, k=2, j=2, p=2.0))
        assert res.verdict == "pass"

    def test_n_le_jp_rejected(self):
        with pytest.raises(InadmissibleParameterError):
            spec("hardy", WarpSpec.euclidean(1.0), 2, k=1, j=1, p=2.0)

    def test_constant_scale_invariance(self):
        results = []
        for scale in (1.0, 7.0):
            results.append(run_check(spec(
                "hardy", WarpSpec.euclidean(1.0), 3, k=1, j=1, p=2.0,
                families=[RadialFunction.polynomial_bump((scale, 0.4 * scale), support=0.9)],
            )))
        assert results[0].measured["constant"] == pytest.approx(
            results[1].measured["constant"], rel=1e-9
        )


class TestEmbedding:
    def test_bounded_manifold_variant(self):
        res = run_check(spec(
            "embedding_ratio", WarpSpec.euclidean(1.0), 3, k=1, p=2.0, q=6.0, theta=0.0
        ))
        assert res.verdict == "pass"
        assert math.isfinite(res.measured["constant"])

    def test_unbounded_critical_q(self):
        # N=4, k=1, p=2, theta=1: critical q = (1+4)*2/(4-2) = 5
        res = run_check(spec(
            "embedding_ratio", WarpSpec.hyperbolic(), 4, k=1, p=2.0, q=5.0, theta=1.0,
            families=[RadialFunction.gaussian(1.0),
                      RadialFunction.polynomial_bump((1.0,), support=3.0)],
        ))
        assert res.verdict == "pass"
        assert "constant_at_q_critical" in res.measured

    def test_q_equals_p_term_inclusion(self):
        res = run_check(spec(
            "embedding_ratio", WarpSpec.euclidean(), 3, k=1, p=2.0, q=2.0, theta=0.0,
            families=[RadialFunction.gaussian(1.0)],
        ))
        assert res.verdict == "pass"
        assert res.measured["constant"] <= 1.0 + 1e-10

    def test_interval_variant(self):
        res = run_check(spec(
            "embedding_ratio", WarpSpec.tanh_cap(2.0), 3, k=1, p=2.0, q=2.0, theta=2.0,
            variant="interval",
        ))
        assert res.verdict == "pass"

    def test_out_of_range_q_rejected(self):
        with pytest.raises(InadmissibleParameterError):
            spec("embedding_ratio", WarpSpec.euclidean(1.0), 3, k=1, p=2.0, q=7.0)

    def test_interval_theta_floor(self):
        with pytest.raises(InadmissibleParameterError):
            spec("embedding_ratio", WarpSpec.tanh_cap(2.0), 5, k=1, p=2.0, q=2.0,
                 theta=0.0, variant="interval")

    def test_constant_scale_invariance(self):
        results = []
        for scale in (1.0, 11.0):
            results.append(run_check(spec(
                "embedding_ratio", WarpSpec.euclidean(1.0), 3, k=1, p=2.0, q=4.0,
                families=[RadialFunction.polynomial_bump((scale, -0.2 * scale), support=0.9)],
            )))
        assert results[0].measured["constant"] == pytest.approx(
            results[1].measured["constant"], rel=1e-9
        )


class TestCounterexample:
    def test_capped_warp_power_law(self):
        res = run_check(spec("counterexample", WarpSpec.tanh_cap(2.0), 2, k=3, p=2.0))
        assert res.verdict == "pass"
        assert res.measured["fitted_law"] == "power"
        assert res.measured["fitted_exponent"] == pytest.approx(2.0, rel=0.02)
        assert math.isfinite(res.measured["interval_norm"])

    def test_euclidean_log_law(self):
        res = run_check(spec("counterexample", WarpSpec.euclidean(1.0), 3, k=2, p=3.0))
        assert res.verdict == "pass"
        assert res.measured["fitted_law"] == "log"

    def test_equivalence_regime_rejected(self):
        with pytest.raises(InadmissibleParameterError):
            spec("counterexample", WarpSpec.euclidean(1.0), 4, k=2, p=2.0)


class TestAsymptoticLeading:
    def test_rank2_exact(self):
        res = run_check(spec("asymptotic_leading", WarpSpec.spherical(), 3, k=2))
        assert res.verdict == "pass"
        assert res.measured["target"] == 1.0

    def test_rank3_hyperbolic(self):
        res = run_check(spec("asymptotic_leading", WarpSpec.hyperbolic(), 3, k=3))
        assert res.verdict == "pass"
        assert res.measured["target"] == -1.0

    def test_rank4_euclidean(self):
        res = run_check(spec("asymptotic_leading", WarpSpec.euclidean(), 4, k=4))
        assert res.verdict == "pass"
        assert res.measured["target"] == 2.0


class TestSuite:
    def _specs(self):
        return [
            spec("identity", WarpSpec.hyperbolic(), 3, k=2,
                 families=[RadialFunction.gaussian(1.0)]),
            spec("asymptotic_leading", WarpSpec.euclidean(), 3, k=3),
            spec("radial_lemma_power", WarpSpec.euclidean(1.0), 3, k=1, p=2.0,
                 families=[RadialFunction.gaussian(1.0), RadialFunction.linear()]),
        ]

    def test_report_structure(self):
        report = run_suite(self._specs())
        assert report.all_passed
        d = report.to_dict()
        assert set(d) == {"run_meta", "checks"}
        for entry in d["checks"]:
            assert set(entry) == {
                "kind", "params", "verdict", "measured", "worst_case", "grid", "runtime_ms"
            }

    def test_deterministic_modulo_runtime(self):
        def strip(d):
            for entry in d["checks"]:
                entry.pop("runtime_ms")
            return d

        d1 = strip(run_suite(self._specs()).to_dict())
        d2 = strip(run_suite(self._specs()).to_dict())
        assert d1 == d2

    def test_nonfinite_measurements_serialize_as_strings(self):
        # a failing run can carry infinities; reports must stay strict JSON
        import json

        from radwarp.verify import CheckResult

        res = CheckResult(
            kind="identity", params={}, verdict="fail",
            measured={"max_rel_gap": math.inf, "nested": [math.nan]},
            worst_case={}, grid={}, runtime_ms=1.0,
        )
        text = json.dumps(res.to_dict(), allow_nan=False)
        assert "inf" in text and "nan" in text

    def test_tiny_radius_counterexample_rejected(self):
        with pytest.raises(InadmissibleParameterError):
            spec("counterexample", WarpSpec.tanh_cap(0.05), 2, k=3, p=2.0)

    def test_params_list_only_fields_the_kind_reads(self):
        gaussian = [RadialFunction.gaussian(1.0)]
        counter = spec("counterexample", WarpSpec.tanh_cap(2.0), 2, gaussian, k=3, p=2.0)
        assert counter.params_dict()["families"] == ["linear"]
        assert counter.params_dict()["p"] == 2.0
        for kind, warp, k in (("identity", WarpSpec.hyperbolic(), 2),
                              ("gradient_inequality", WarpSpec.hyperbolic(), 2),
                              ("asymptotic_leading", WarpSpec.euclidean(), 3)):
            params = spec(kind, warp, 3, gaussian, k=k, p=3.0).params_dict()
            assert "p" not in params
            assert ("families" in params) == (kind != "asymptotic_leading")

    def test_p_checked_only_where_read(self):
        spec("identity", WarpSpec.hyperbolic(), 3, k=2, p=0.5)
        with pytest.raises(InadmissibleParameterError, match="p must be at least 1"):
            spec("k1_norm_equality", WarpSpec.hyperbolic(), 3, p=0.5)


UNBOUNDED_CUSTOM = WarpSpec.custom((1.0, 0.1), math.inf)


class TestValidation:
    @pytest.mark.parametrize("kind", ["k1_norm_equality", "decay_lemma", "embedding_ratio"])
    def test_unbounded_custom_warp_rejected_for_tail_norms(self, kind):
        # no certified tail growth bound exists for a custom warp on R = inf
        with pytest.raises(InadmissibleParameterError, match="tail growth bound"):
            spec(kind, UNBOUNDED_CUSTOM, 3, q=2.0)

    def test_unbounded_custom_warp_identity_still_runs(self):
        res = run_check(spec("identity", UNBOUNDED_CUSTOM, 3, k=2))
        assert res.verdict == "pass"

    @pytest.mark.parametrize("kind", ["identity", "gradient_inequality"])
    def test_grid_below_the_evaluation_floor_rejected(self, kind):
        # the dense route evaluates down to geometry.MIN_RADIUS only, and
        # every grid check keeps that floor, also one that reads only norms
        with pytest.raises(InadmissibleParameterError, match="starts below"):
            spec(kind, WarpSpec.hyperbolic(), 3, grid=GridSpec(n=8, lo=1e-7))
        res = run_check(spec(kind, WarpSpec.hyperbolic(), 3, grid=GridSpec(n=8, lo=1e-6)))
        assert res.grid["lo"] == 1e-6

    @pytest.mark.parametrize("kind", ["k1_norm_equality", "decay_lemma", "hardy",
                                      "embedding_ratio"])
    def test_quadrature_looser_than_the_verdict_rejected(self, kind):
        # a kind that takes norms decides its verdict on integrals
        w = WarpSpec.euclidean(1.0) if kind == "hardy" else WarpSpec.hyperbolic()
        fields = dict(q=2.0, j=1, tol=1e-3)
        spec(kind, w, 3, quad_tol=1e-3, **fields)
        with pytest.raises(InadmissibleParameterError, match="outside the range"):
            spec(kind, w, 3, quad_tol=2e-3, **fields)

    def test_identity_needs_a_derivative_order(self):
        # at k = 0 no order is compared, and the check used to pass vacuously
        with pytest.raises(InadmissibleParameterError, match="k >= 1"):
            spec("identity", WarpSpec.hyperbolic(), 3, k=0)
        spec("identity", WarpSpec.hyperbolic(), 3, k=1)

    def test_quadrature_tolerance_of_a_normless_kind_unbounded_above(self):
        spec("identity", WarpSpec.hyperbolic(), 3, quad_tol=1.0)


NORM_FUNCTIONS = (
    "lq_theta_norm_1d",
    "sobolev_seminorms_1d",
    "sobolev_norm_1d",
    "sobolev_norm_manifold",
    "gradient_norm_manifold",
)


class TestNormReuse:
    """A check computes each norm once per distinct argument set."""

    def _norm_calls(self, monkeypatch, check_spec):
        from collections import Counter

        from radwarp import verify

        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[(name, args, tuple(sorted(kwargs.items())))] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in NORM_FUNCTIONS:
            monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
        assert run_check(check_spec).verdict == "pass"
        return calls

    def test_unbounded_embedding(self, monkeypatch):
        # N=3, k=1, p=2, theta=0: q* = 6 = q, and q = p is probed as well, so
        # at quad_tol the Sobolev side is needed three times and the q = 6
        # Lebesgue side twice
        calls = self._norm_calls(monkeypatch, spec(
            "embedding_ratio", WarpSpec.euclidean(), 3, k=1, p=2.0, q=6.0,
            families=[RadialFunction.gaussian(1.0)],
        ))
        assert sum(calls.values()) == 5
        assert max(calls.values()) == 1

    def test_power_radial_lemma(self, monkeypatch):
        calls = self._norm_calls(monkeypatch, spec(
            "radial_lemma_power", WarpSpec.euclidean(1.0), 3, k=1, p=2.0,
            families=[RadialFunction.gaussian(1.0), RadialFunction.linear()],
        ))
        assert sum(calls.values()) == 2
        assert max(calls.values()) == 1


class TestSegmentMemoScope:
    """Each check runs inside a shared_segments block of its own, whose
    segment stores are dropped when it ends."""

    HARDY = spec("hardy", WarpSpec.euclidean(1.0), 3, k=1, j=1, p=2.0,
                 families=[RadialFunction.gaussian(1.0)])

    def _patch_run(self, monkeypatch, run):
        from radwarp import verify

        row = verify.CHECK_TABLE["hardy"]
        monkeypatch.setitem(verify.CHECK_TABLE, "hardy", dataclasses.replace(row, run=run(row)))

    def test_each_check_has_its_own_memo(self, monkeypatch):
        from radwarp import funcspace

        seen = []

        def run(row):
            def observed(s):
                seen.append(funcspace._MEMO.get())
                return row.run(s)
            return observed

        self._patch_run(monkeypatch, run)
        assert run_check(self.HARDY).verdict == "pass"
        assert run_check(self.HARDY).verdict == "pass"
        assert None not in seen and seen[0] is not seen[1]
        assert funcspace._MEMO.get() is None

    def test_memo_is_dropped_when_a_check_raises(self, monkeypatch):
        from radwarp import funcspace

        def run(row):
            def failing(s):
                assert funcspace._MEMO.get() is not None
                raise RuntimeError("check failed")
            return failing

        self._patch_run(monkeypatch, run)
        with pytest.raises(RuntimeError, match="check failed"):
            run_check(self.HARDY)
        assert funcspace._MEMO.get() is None
