"""Quadrature against closed-form oracles, plus tail and tolerance invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from radwarp import funcspace
from radwarp.errors import DomainError, EvaluationError
from radwarp.funcspace import RadialFunction, sobolev_norm_manifold
from radwarp.manifold import ManifoldSpec, WarpSpec
from radwarp.quadrature import (
    DecayEnvelope,
    Integrand,
    divergence_probe,
    integrate_weighted,
)


def const_one(t):
    return np.ones_like(t)


class TestWeightedIntegrals:
    def test_monomial_against_euclidean_weight(self):
        # int_0^1 t^(N-1) dt = 1/N
        for n in range(2, 7):
            res = integrate_weighted(
                Integrand(const_one, weight_exponent=n - 1), WarpSpec.euclidean(1.0)
            )
            assert res.converged
            assert res.value == pytest.approx(1.0 / n, rel=1e-10)

    def test_sinh_weight(self):
        res = integrate_weighted(Integrand(const_one, 1.0), WarpSpec.hyperbolic(1.0))
        assert res.converged
        assert res.value == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-10)

    def test_exponential_against_sinh_tail(self):
        # int_0^inf exp(-2t) sinh t dt = 1/2 (1/1 - 1/3) = 1/3
        f = Integrand(
            lambda t: np.exp(-2.0 * t), 1.0, envelope=DecayEnvelope(1.0, 0.0, 2.0, 1.0)
        )
        res = integrate_weighted(f, WarpSpec.hyperbolic())
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_polynomial_against_spherical_weight(self):
        # int_0^1 t sin^2 t dt = 1/4 - sin(2)/4 - cos(2)/8 + 1/8
        oracle = 0.25 - math.sin(2.0) / 4 - math.cos(2.0) / 8 + 0.125
        res = integrate_weighted(
            Integrand(lambda t: t, 2.0), WarpSpec.spherical(1.0)
        )
        assert res.converged
        assert res.value == pytest.approx(oracle, rel=1e-10)

    def test_gaussian_tail_with_quadratic_envelope(self):
        # int_0^inf exp(-t^2) t^2 dt = sqrt(pi)/4
        f = Integrand(
            lambda t: np.exp(-(t**2)),
            2.0,
            envelope=DecayEnvelope(1.0, 0.0, 0.0, 1.0, quad_rate=1.0),
        )
        res = integrate_weighted(f, WarpSpec.euclidean())
        assert res.converged
        assert res.value == pytest.approx(math.sqrt(math.pi) / 4, rel=1e-10)

    def test_integrable_singularity(self):
        # int_0^1 t^(-1/2) dt = 2, graded panels handle the endpoint
        res = integrate_weighted(Integrand(lambda t: t**-0.5), WarpSpec.euclidean(1.0))
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-9)

    def test_divergent_integrand_flagged(self):
        res = integrate_weighted(Integrand(lambda t: t**-3.0), WarpSpec.euclidean(1.0))
        assert not res.converged
        assert math.isinf(res.error_estimate)

    def test_nan_evaluator_raises(self):
        bad = Integrand(lambda t: np.where(t < 0.5, np.nan, 1.0))
        with pytest.raises(EvaluationError):
            integrate_weighted(bad, WarpSpec.euclidean(1.0))

    def test_unbounded_domain_needs_envelope(self):
        with pytest.raises(DomainError):
            integrate_weighted(Integrand(const_one), WarpSpec.euclidean())

    def test_uncertified_tail_skips_evaluation(self):
        # t^-1/2 against the weight t: the envelope tail never drops below
        # tol, so the integral is reported unconverged before any evaluation
        def untouchable(t):
            raise AssertionError("evaluator called for an uncertified tail")

        env = DecayEnvelope(1.0, -0.5, 0.0, 1.0)
        res = integrate_weighted(Integrand(untouchable, 1.0, env), WarpSpec.euclidean())
        assert not res.converged
        assert math.isinf(res.error_estimate)
        assert res.subdivisions == 0

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            integrate_weighted(Integrand(const_one), WarpSpec.euclidean(1.0), tol=1e-14)

    def test_converged_error_contract(self):
        res = integrate_weighted(
            Integrand(lambda t: np.sin(3 * t), 2.0), WarpSpec.euclidean(1.0), tol=1e-10
        )
        assert res.converged
        assert res.error_estimate <= 1e-10 * max(1.0, abs(res.value))

    def test_mass_far_below_domain_scale_is_found(self):
        # narrow spike near t = 0.01 on (0, 1): the outer panels are all
        # zero, but the early stop must not fire before reaching the spike
        spike = lambda t: np.exp(-((1000.0 * (t - 0.01)) ** 2))
        res = integrate_weighted(Integrand(spike), WarpSpec.euclidean(1.0))
        assert res.converged
        assert res.value == pytest.approx(math.sqrt(math.pi) / 1000.0, rel=1e-8)


class TestInvariants:
    def test_halving_tol_does_not_increase_error(self):
        f = Integrand(lambda t: np.cos(t), 2.0)
        w = WarpSpec.hyperbolic(2.0)
        errs = []
        for tol in (1e-6, 5e-7, 2.5e-7, 1e-8, 1e-10):
            errs.append(integrate_weighted(f, w, tol=tol).error_estimate)
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= e1 * (1 + 1e-12)

    def test_tail_doubling_within_error(self):
        # forcing a later truncation point changes the value by less than
        # the reported error estimate
        base_env = DecayEnvelope(1.0, 0.0, 2.0, 1.0)
        f1 = Integrand(lambda t: np.exp(-2.0 * t), 1.0, envelope=base_env)
        # scaling the envelope coefficient up pushes the certified cut deeper
        f2 = Integrand(lambda t: np.exp(-2.0 * t), 1.0, envelope=base_env.scaled(4096.0))
        w = WarpSpec.hyperbolic()
        r1 = integrate_weighted(f1, w)
        r2 = integrate_weighted(f2, w)
        assert abs(r1.value - r2.value) < r1.error_estimate


class TestEnvelopeAlgebra:
    def test_tail_integral_linear(self):
        env = DecayEnvelope(2.0, 0.0, 3.0, 1.0)
        t = 2.0
        assert env.tail_integral(t) == pytest.approx(2.0 * math.exp(-6.0) / 3.0, rel=1e-12)

    def test_tail_integral_power_only(self):
        env = DecayEnvelope(1.0, -3.0, 0.0, 1.0)
        assert env.tail_integral(2.0) == pytest.approx(2.0**-2 / 2.0, rel=1e-12)

    def test_tail_integral_positive_power_exact(self):
        # the elementary bound T^P e^-T / (1 - P/T) at P = 1, above the exact
        # int_T^inf t e^-t dt = (T+1) e^-T
        env = DecayEnvelope(1.0, 1.0, 1.0, 0.5)
        t = 3.0
        bound = env.tail_integral(t)
        assert bound == pytest.approx(t**2 * math.exp(-t) / (t - 1.0), rel=1e-12)
        assert bound >= (t + 1) * math.exp(-t)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        coef=st.floats(0.1, 10.0),
        power=st.floats(-3.0, 10.0),
        rate=st.floats(0.1, 4.0),
        quad_rate=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        t=st.floats(1.0, 20.0),
    )
    # draws whose envelope values are subnormal on [split, inf) and on [t, split]
    @example(coef=9.770639823443702, power=10.0, rate=4.0, quad_rate=2.0, t=5.46935408880488)
    @example(coef=7.642932319716789, power=10.0, rate=1.3199110078564642,
             quad_rate=1.7547689355708396, t=20.0)
    def test_tail_integral_bounds_the_envelope_integral(self, coef, power, rate, quad_rate, t):
        env = DecayEnvelope(coef, power, rate, 1.0, quad_rate)

        # env(s) / env(t), taken in logs: it is 1 at t, so quad never meets
        # the subnormal values where it loses its relative accuracy
        def ratio(s):
            return math.exp(power * math.log(s / t) - rate * (s - t) - quad_rate * (s * s - t * t))

        # split where the integrand has decayed past its peak, so that quad
        # sees the whole bulk on a finite interval
        split = max(t, power / rate) + 50.0 / rate
        opts = dict(epsabs=0.0, epsrel=1e-11, limit=200)
        exact = env(t) * (quad(ratio, t, split, **opts)[0] + quad(ratio, split, math.inf, **opts)[0])
        bound = env.tail_integral(t)
        assert bound >= exact * (1.0 - 1e-9)
        x = rate * t
        if quad_rate == 0.0 and x > power >= 0.0:
            assert bound <= exact / (1.0 - power / x) * (1.0 + 1e-9)

    def test_non_decaying_tail_is_infinite(self):
        assert math.isinf(DecayEnvelope(1.0, 1.0, 0.0, 1.0).tail_integral(5.0))

    def test_compact_support(self):
        assert DecayEnvelope(0.0, 0.0, 0.0, 0.7).tail_integral(0.1) == 0.0

    def test_negative_quadratic_rate_rejected(self):
        # exp(-2t + 0.01 t^2) is not integrable: a growing quadratic term
        # certifies no tail
        with pytest.raises(DomainError, match="quadratic rate"):
            DecayEnvelope(1e4, 0.0, 2.0, 1.0, -0.01)

    def test_quadratic_dominates_linear_growth(self):
        env = DecayEnvelope(1.0, 0.0, -2.0, 1.0, quad_rate=1.0)  # e^{2t - t^2}
        # truncating far enough must certify: rate_eff = -2 + T
        assert env.tail_integral(8.0) < 1e-10


class TestDivergenceProbe:
    def test_cubic_blowup_power_law(self):
        # integrand t^-3: I(eps) ~ eps^-2 / 2, fitted slope 2
        res = divergence_probe(
            Integrand(lambda t: t**-3.0),
            WarpSpec.euclidean(1.0),
            r0=1.0,
            eps_list=[1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
        )
        assert res.kind == "power"
        assert res.exponent == pytest.approx(2.0, rel=1e-2)
        # oracle: closed form of the cut integral
        for e, v in zip(res.eps, res.values):
            assert v == pytest.approx((e**-2 - 1.0) / 2.0, rel=1e-8)

    def test_log_law(self):
        res = divergence_probe(
            Integrand(lambda t: 1.0 / t),
            WarpSpec.euclidean(1.0),
            r0=1.0,
            eps_list=[1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
        )
        assert res.kind == "log"
        assert res.exponent == pytest.approx(1.0, rel=1e-6)

    def test_convergent_signal(self):
        res = divergence_probe(
            Integrand(const_one),
            WarpSpec.euclidean(1.0),
            r0=1.0,
            eps_list=[1e-3, 3e-4, 1e-4, 3e-5, 1e-5],
        )
        assert res.kind == "convergent"
        assert res.exponent == 0.0

    def test_probe_preconditions(self):
        f = Integrand(const_one)
        w = WarpSpec.euclidean(1.0)
        with pytest.raises(DomainError):
            divergence_probe(f, w, 1.0, [1e-2, 1e-3])
        with pytest.raises(DomainError):
            divergence_probe(f, w, 1.0, [1e-3, 1e-2, 1e-4, 1e-5])
        with pytest.raises(DomainError):
            divergence_probe(f, w, 1.0, [1e-3, 1e-4, 1e-5, 1e-8])


class TestBatchedSchedule:
    """The batched GK schedule reproduces the sequential one bit for bit.

    The constants are float.hex values of the one-segment-per-call
    depth-first schedule; every accept and stop decision depends only on
    segment results, so evaluating many segments per call must not move
    a single bit.
    """

    CASES = {
        "bounded_hyperbolic": (
            Integrand(lambda t: np.cos(t), 2.0), WarpSpec.hyperbolic(2.0), 0.0,
            ("-0x1.f15673187c961p-3", "0x1.afc0cb0df77edp-47", 16, True),
        ),
        "oscillatory_wide_levels": (
            Integrand(lambda t: np.sin(200.0 * t) ** 2, 1.0), WarpSpec.euclidean(1.0), 0.0,
            ("0x1.0118142ad4534p-2", "0x1.1ce641bd2310cp-43", 135, True),
        ),
        "unbounded_exponential": (
            Integrand(lambda t: np.exp(-2.0 * t), 1.0,
                      envelope=DecayEnvelope(1.0, 0.0, 2.0, 1.0)),
            WarpSpec.hyperbolic(), 0.0,
            ("0x1.5555555554cd1p-2", "0x1.0eb99cc95fbe9p-38", 29, True),
        ),
        "unbounded_gaussian": (
            Integrand(lambda t: np.exp(-(t**2)), 2.0,
                      envelope=DecayEnvelope(1.0, 0.0, 0.0, 1.0, quad_rate=1.0)),
            WarpSpec.euclidean(), 0.0,
            ("0x1.c5bf891b4eea9p-2", "0x1.427e07b97106ap-40", 21, True),
        ),
        "integrable_singularity": (
            Integrand(lambda t: t**-0.5), WarpSpec.euclidean(1.0), 0.0,
            ("0x1.fffffffffa562p+0", "0x1.80da7333f68a4p-37", 80, True),
        ),
        "divergent": (
            Integrand(lambda t: t**-3.0), WarpSpec.euclidean(1.0), 0.0,
            ("0x1.ffff7ffffffe5p+16", "inf", 26, False),
        ),
        "min_t_floor": (
            Integrand(lambda t: np.log(t) ** 2, 1.0), WarpSpec.spherical(1.0), 1e-3,
            ("0x1.f54fbaab295b3p-3", "0x1.b79457f39f9aap-14", 9, False),
        ),
        "narrow_bump": (
            Integrand(lambda t: np.exp(-((1000.0 * (t - 0.01)) ** 2))),
            WarpSpec.euclidean(1.0), 0.0,
            ("0x1.d0a35d4b115d6p-10", "0x1.ee9f49e3c3f9ep-50", 18, True),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_results_bit_identical(self, name):
        f, w, min_t, (value, error, subdivisions, converged) = self.CASES[name]
        res = integrate_weighted(f, w, min_t=min_t)
        assert res.value.hex() == value
        assert res.error_estimate.hex() == error
        assert res.subdivisions == subdivisions
        assert res.converged is converged

    def test_nan_beyond_sequential_stop_is_not_raised(self):
        # the divergence stop fires on the panel [2^-9, 2^-8]; lookahead
        # evaluates deeper panels, whose NaN must never surface
        smallest = []

        def evaluator(t):
            smallest.append(float(np.min(t)))
            return np.where(t < 2.0**-9, np.nan, t**-3.0)

        res = integrate_weighted(Integrand(evaluator), WarpSpec.euclidean(1.0))
        assert min(smallest) < 2.0**-9
        assert res.value.hex() == "0x1.ffff7ffffffe5p+16"
        assert not res.converged

    def test_nan_on_first_panel_raises(self):
        bad = Integrand(lambda t: np.where(t > 0.9, np.nan, 1.0))
        with pytest.raises(EvaluationError, match="non-finite"):
            integrate_weighted(bad, WarpSpec.euclidean(1.0))

    def test_leftmost_nan_segment_is_reported(self):
        # the NaN at 0.875 sits on a node of the first bisection level, the
        # one at 0.5625 only on the second; the report names the one met
        # first in left-to-right refinement order
        bad = Integrand(lambda t: np.where(
            (abs(t - 0.5625) < 1e-4) | (abs(t - 0.875) < 1e-4), np.nan, np.sin(40.0 * t)))
        with pytest.raises(EvaluationError, match=r"near t=np\.float64\(0\.5625\)"):
            integrate_weighted(bad, WarpSpec.euclidean(1.0))

    def test_manifold_norm_batches_evaluator_calls(self, monkeypatch):
        calls = []
        integrate = funcspace.integrate_weighted

        def counting(f, *args, **kwargs):
            sizes = []
            calls.append(sizes)

            def evaluator(t):
                sizes.append(np.size(t))
                return f.evaluator(t)

            return integrate(Integrand(evaluator, f.weight_exponent, f.envelope),
                             *args, **kwargs)

        monkeypatch.setattr(funcspace, "integrate_weighted", counting)
        value = sobolev_norm_manifold(
            RadialFunction.gaussian(1.0), 1, 2.0, ManifoldSpec(WarpSpec.hyperbolic(), 3))
        assert value.hex() == "0x1.26c669441d1c0p+2"
        assert len(calls) == 2
        for sizes in calls:
            assert len(sizes) <= 8
            assert max(sizes) <= 240
