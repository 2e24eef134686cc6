"""Quadrature against closed-form oracles, plus tail and tolerance invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from radwarp import funcspace, quadrature
from radwarp.errors import DomainError, EvaluationError
from radwarp.funcspace import RadialFunction, sobolev_norm_manifold
from radwarp.manifold import ManifoldSpec, WarpSpec
from radwarp.quadrature import (
    DecayEnvelope,
    Integrand,
    divergence_probe,
    integrate_weighted,
)

from oracles import oracle_gk_segments


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

    def test_walk_stopped_by_the_budget_is_not_converged(self):
        # the first panel [1/2, 1] alone spends the subdivision budget, so no
        # decay ratio bounds the uncovered (0, 1/2), which holds half the mass
        res = integrate_weighted(Integrand(lambda t: np.sin(3e4 * t) ** 2),
                                 WarpSpec.euclidean(1.0))
        assert res.value == pytest.approx(0.25, rel=1e-3)
        assert math.isinf(res.error_estimate)
        assert not res.converged

    def test_bisection_stays_within_the_budget(self):
        # the first panel stops its bisection on the budget: its tree of
        # _PANEL_BUDGET leaves has fewer than twice as many segments, plus
        # the prefetched panel roots
        known = {}
        res = integrate_weighted(Integrand(lambda t: np.sin(3e4 * t) ** 2),
                                 WarpSpec.euclidean(1.0), known=known)
        assert res.subdivisions == quadrature._PANEL_BUDGET
        assert len(known) < 2 * quadrature._PANEL_BUDGET + quadrature._PREFETCH_PANELS
        assert not res.converged

    @pytest.mark.parametrize("budget", [1, 2, 3, 10, 101])
    def test_bisection_accepts_at_most_its_budget(self, budget):
        segments = quadrature._segment_source(lambda t: np.sin(3e4 * t) ** 2, {})
        _, _, accepted = quadrature._adaptive_interval(segments, 0.5, 1.0, 1e-10, budget)
        assert accepted == budget


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
        f1 = Integrand(lambda t: np.exp(-2.0 * t), 1.0,
                       envelope=DecayEnvelope(1.0, 0.0, 2.0, 1.0))
        # scaling the envelope coefficient up pushes the certified cut deeper
        f2 = Integrand(lambda t: np.exp(-2.0 * t), 1.0,
                       envelope=DecayEnvelope(4096.0, 0.0, 2.0, 1.0))
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
        at_t = coef * t**power * math.exp(-rate * t - quad_rate * t**2)
        exact = at_t * (quad(ratio, t, split, **opts)[0] + quad(ratio, split, math.inf, **opts)[0])
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

    def test_negative_coefficient_rejected(self):
        # a negative tail bound would be subtracted from the error: on
        # int_0^inf e^-t it certified 0.632 with error -0.368
        with pytest.raises(DomainError, match="nonnegative coefficient"):
            DecayEnvelope(-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("field", range(5))
    def test_nan_field_rejected(self, field):
        fields = [1.0, 0.0, 1.0, 1.0, 0.0]
        fields[field] = math.nan
        with pytest.raises(DomainError):
            DecayEnvelope(*fields)

    def test_quadratic_dominates_linear_growth(self):
        env = DecayEnvelope(1.0, 0.0, -2.0, 1.0, quad_rate=1.0)  # e^{2t - t^2}
        # truncating far enough must certify: rate_eff = -2 + T
        assert env.tail_integral(8.0) < 1e-10


class TestDivergenceProbe:
    def test_cubic_blowup_power_law(self):
        # integrand t^-3: I(eps) ~ eps^-2 / 2, fitted slope 2
        eps_list = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
        res = divergence_probe(
            Integrand(lambda t: t**-3.0),
            WarpSpec.euclidean(1.0),
            r0=1.0,
            eps_list=eps_list,
        )
        assert res.kind == "power"
        assert res.exponent == pytest.approx(2.0, rel=1e-2)
        # oracle: closed form of the cut integrals the fit is made on
        for e in eps_list:
            v = quadrature._integrate_log_window(lambda t: t**-3.0, e, 1.0, 1e-10)
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
            Integrand(lambda t: np.cos(t), 2.0), WarpSpec.hyperbolic(2.0),
            ("-0x1.f15673187c961p-3", "0x1.afc0cb0df77edp-47", 16, True),
        ),
        "oscillatory_wide_levels": (
            Integrand(lambda t: np.sin(200.0 * t) ** 2, 1.0), WarpSpec.euclidean(1.0),
            ("0x1.0118142ad4534p-2", "0x1.1ce641bd2310cp-43", 135, True),
        ),
        "unbounded_exponential": (
            Integrand(lambda t: np.exp(-2.0 * t), 1.0,
                      envelope=DecayEnvelope(1.0, 0.0, 2.0, 1.0)),
            WarpSpec.hyperbolic(),
            ("0x1.5555555554cd1p-2", "0x1.0eb99cc95fbe9p-38", 29, True),
        ),
        "unbounded_gaussian": (
            Integrand(lambda t: np.exp(-(t**2)), 2.0,
                      envelope=DecayEnvelope(1.0, 0.0, 0.0, 1.0, quad_rate=1.0)),
            WarpSpec.euclidean(),
            ("0x1.c5bf891b4eea9p-2", "0x1.427e07b97106ap-40", 21, True),
        ),
        "integrable_singularity": (
            Integrand(lambda t: t**-0.5), WarpSpec.euclidean(1.0),
            ("0x1.fffffffffa562p+0", "0x1.80da7333f68a4p-37", 80, True),
        ),
        "divergent": (
            Integrand(lambda t: t**-3.0), WarpSpec.euclidean(1.0),
            ("0x1.ffff7ffffffe5p+16", "inf", 26, False),
        ),
        "narrow_bump": (
            Integrand(lambda t: np.exp(-((1000.0 * (t - 0.01)) ** 2))),
            WarpSpec.euclidean(1.0),
            ("0x1.d0a35d4b115d6p-10", "0x1.ee9f49e3c3f9ep-50", 18, True),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_results_bit_identical(self, name):
        f, w, (value, error, subdivisions, converged) = self.CASES[name]
        res = integrate_weighted(f, w)
        assert res.value.hex() == value
        assert res.error_estimate.hex() == error
        assert res.subdivisions == subdivisions
        assert res.converged is converged

    def test_nan_beyond_sequential_stop_is_not_raised(self):
        # the divergence stop fires on the panel [2^-9, 2^-8]; the prefetch
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


def _bits(res):
    return (res.value.hex(), res.error_estimate.hex(), res.subdivisions, res.converged)


@pytest.fixture
def segment_counts(monkeypatch):
    """[segment store, segments evaluated] of each integral funcspace starts,
    in order."""
    counts = []
    gk_segments, integrate = quadrature._gk_segments, funcspace.integrate_weighted

    def counting(fn, bounds):
        counts[-1][1] += len(bounds)
        return gk_segments(fn, bounds)

    def recording(f, *args, **kwargs):
        counts.append([kwargs.get("known"), 0])
        return integrate(f, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_gk_segments", counting)
    monkeypatch.setattr(funcspace, "integrate_weighted", recording)
    return counts


class TestSegmentMemo:
    """Integrals given one segment store evaluate each GK segment once, and
    every result stays bit-identical to one made with a fresh store.  Inside
    funcspace.shared_segments, weighted_integral calls with equal arguments
    share one store, and no others do."""

    GAUSS = RadialFunction.gaussian(1.0)
    UNIT = WarpSpec.euclidean(1.0)
    # (v, j, p, theta, space) of weighted_integral, each one field from BASE
    BASE = (GAUSS, 1, 2.0, 2.0, UNIT)
    VARIANTS = {
        "family": (RadialFunction.gaussian(2.0), 1, 2.0, 2.0, UNIT),
        "j": (GAUSS, 2, 2.0, 2.0, UNIT),
        "p": (GAUSS, 1, 1.5, 2.0, UNIT),
        "weight_exponent": (GAUSS, 1, 2.0, 1.0, UNIT),
        "warp": (GAUSS, 1, 2.0, 2.0, WarpSpec.hyperbolic(1.0)),
        "manifold": (GAUSS, 1, 2.0, 2.0, ManifoldSpec(UNIT, 3)),
    }

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.one_of(
            st.floats(0.5, 2.0).map(RadialFunction.gaussian),
            st.floats(0.75, 2.0).map(RadialFunction.power_decay),
            st.tuples(st.floats(-0.5, 1.0), st.floats(0.3, 0.9)).map(
                lambda c: RadialFunction.polynomial_bump((1.0, c[0]), support=c[1])),
        ),
        j=st.integers(0, 2),
        p=st.sampled_from([1.0, 1.5, 2.0]),
        w=st.sampled_from([WarpSpec.euclidean(1.0), WarpSpec.hyperbolic(2.0),
                           WarpSpec.euclidean(), WarpSpec.hyperbolic()]),
        tol=st.sampled_from([1e-8, 1e-10]),
    )
    def test_results_equal_fresh_results(self, family, j, p, w, tol):
        env = family.decay_envelope()
        f = Integrand(lambda t: np.abs(family.derivative_values(t, j)) ** p, 2.0,
                      env.power_scaled(p))
        fresh = [_bits(integrate_weighted(f, w, t)) for t in (tol, tol / 16)]
        known = {}
        shared = [_bits(integrate_weighted(f, w, t, known=known)) for t in (tol, tol / 16)]
        assert shared == fresh

    @staticmethod
    def _counted_log_squared(calls):
        def evaluator(t):
            calls.append(t.size)
            return np.log(t) ** 2
        return Integrand(evaluator, 1.0)

    def test_repeat_integral_makes_no_evaluator_call(self):
        # t^-3 stops on divergence, before any small-panel mass probe, so
        # the first integral's store holds everything the repeat reads
        calls = []

        def evaluator(t):
            calls.append(t.size)
            return t**-3.0

        f, w, known = Integrand(evaluator), WarpSpec.euclidean(1.0), {}
        first = integrate_weighted(f, w, known=known)
        made = len(calls)
        second = integrate_weighted(f, w, known=known)
        assert made > 0 and len(calls) == made
        assert _bits(second) == _bits(first)

    def test_repeat_integral_evaluates_only_the_mass_probe(self):
        # log(t)^2 sin(t) settles through the small-panel stop, whose mass
        # probe of 24 points evaluates outside the segments: the repeat
        # makes that call again, and only that one
        calls = []
        f, w, known = self._counted_log_squared(calls), WarpSpec.spherical(1.0), {}
        first = integrate_weighted(f, w, known=known)
        made = list(calls)
        second = integrate_weighted(f, w, known=known)
        assert first.converged and made.count(24) > 0
        assert calls[len(made):] == [24] * made.count(24)
        assert _bits(second) == _bits(first)

    def test_integral_without_a_store_is_not_memoized(self):
        calls = []
        f, w = self._counted_log_squared(calls), WarpSpec.spherical(1.0)
        integrate_weighted(f, w)
        made = len(calls)
        integrate_weighted(f, w)
        assert len(calls) == 2 * made > 0

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_different_integrands_share_no_segment(self, segment_counts, name):
        variant = self.VARIANTS[name]
        with funcspace.shared_segments():
            funcspace.weighted_integral(*variant, 1e-10)
        with funcspace.shared_segments():
            funcspace.weighted_integral(*self.BASE, 1e-10)
            funcspace.weighted_integral(*variant, 1e-10)
        (_, alone), (base, _), (store, shared) = segment_counts
        assert shared == alone > 0 and store is not base

    def test_integer_and_float_exponent_share_segments(self, segment_counts):
        v, j, _, theta, w = self.BASE
        with funcspace.shared_segments():
            a = funcspace.weighted_integral(v, j, 2.0, theta, w, 1e-10)
            b = funcspace.weighted_integral(v, j, 2, theta, w, 1e-10)
        assert b.hex() == a.hex()
        (store_a, made), (store_b, repeated) = segment_counts
        assert store_a is store_b and made > 0 and repeated == 0

    def test_memo_is_inactive_after_its_block(self, segment_counts):
        v, j, p, theta, space = self.BASE
        with pytest.raises(RuntimeError):
            with funcspace.shared_segments():
                funcspace.weighted_integral(*self.BASE, 1e-10)
                memo = funcspace._MEMO.get()
                assert memo[v, j, p, theta, space] is segment_counts[0][0]
                assert memo[funcspace._ROWS][v]  # v's own rows, keyed by v alone
                raise RuntimeError("check failed")
        assert funcspace._MEMO.get() is None
        funcspace.weighted_integral(*self.BASE, 1e-10)
        (first, made), (store, again) = segment_counts
        assert store is not first and again == made > 0


@pytest.fixture
def gk_calls(monkeypatch):
    """The number of segments of each _gk_segments call, in order."""
    sizes = []
    gk_segments = quadrature._gk_segments

    def counting(fn, bounds):
        sizes.append(len(bounds))
        return gk_segments(fn, bounds)

    monkeypatch.setattr(quadrature, "_gk_segments", counting)
    return sizes


def _result_bits(results):
    return [(v.hex(), e.hex(), None if t is None else float(t).hex()) for v, e, t in results]


class TestSegmentSums:
    """_gk_segments tests finiteness once per evaluator call and reads each
    panel root straight from the store, and every result stays that of the
    one-segment-at-a-time oracle, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        bad_rows=st.lists(st.integers(0, 39), max_size=4),
        tiny_rows=st.lists(st.integers(0, 39), max_size=6),
    )
    # a chunk boundary with a bad row on each side, and an all-tiny row
    @example(n=17, seed=0, bad_rows=[15, 16], tiny_rows=[0])
    # one-segment and one whole 16-segment call, the last row summing to
    # -0.0; (n, 15) @ (15, 2), (n, 1, 15) @ (15, 2) and np.einsum each
    # round one of them differently
    @example(n=1, seed=175, bad_rows=[], tiny_rows=[])
    @example(n=16, seed=0, bad_rows=[], tiny_rows=[15])
    def test_batched_sums_equal_the_oracle(self, n, seed, bad_rows, tiny_rows):
        rng = np.random.default_rng(seed)
        size = quadrature._GK_NODES.size
        lefts = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 1, n)
        bounds = [(float(a), float(a + w))
                  for a, w in zip(lefts, 10.0 ** rng.uniform(-300.0, 0.0, n))]
        y = rng.standard_normal(n * size) * 10.0 ** rng.uniform(-320.0, 300.0, n * size)
        for row in tiny_rows:
            if row < n:  # half * sum underflows to -0.0 on the narrower segments
                y[row * size:(row + 1) * size] = -(10.0 ** rng.uniform(-320.0, -300.0, size))
        for row in bad_rows:
            if row < n:
                at = row * size + rng.choice(size, rng.integers(1, 4), replace=False)
                y[at] = rng.choice([math.nan, math.inf, -math.inf], at.size)

        def evaluator(seen):
            def fn(t):
                start = sum(map(np.size, seen))
                seen.append(t.copy())
                return y[start:start + t.size]
            return fn

        got_x, want_x = [], []
        got = quadrature._gk_segments(evaluator(got_x), bounds)
        want = oracle_gk_segments(evaluator(want_x), bounds)
        assert _result_bits(got) == _result_bits(want)
        assert [x.tobytes() for x in got_x] == [x.tobytes() for x in want_x]

    # a subnormal integrand on a narrow segment: half * sum underflows to -0.0
    TINY = staticmethod(lambda t: np.full_like(t, -1e-320))
    NARROW = (0.5, 0.5 + 2.0**-40)

    def test_a_non_finite_row_raises_no_warning(self):
        # inf against a zero Gauss weight, or inf - inf, would make the
        # stacked product raise "invalid value encountered in matmul"
        size = quadrature._GK_NODES.size
        y = np.ones(2 * size)
        y[1], y[2] = math.inf, -math.inf
        bounds = [(0.0, 1.0), (1.0, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadrature._gk_segments(lambda t: y[:t.size], bounds)
        assert _result_bits(got) == _result_bits(oracle_gk_segments(lambda t: y[:t.size], bounds))

    def test_negative_zero_sum_is_kept(self):
        (val, err, bad), = quadrature._gk_segments(self.TINY, [self.NARROW])
        assert (val.hex(), err.hex(), bad) == ("-0x0.0p+0", "0x0.0p+0", None)

    def test_root_fast_path_on_a_negative_zero_root(self, monkeypatch):
        known = {}
        segments = quadrature._segment_source(self.TINY, known)
        segments([self.NARROW])
        slow = quadrature._adaptive_interval(segments, *self.NARROW, 1e-10)

        def refused(*args):
            raise AssertionError("an accepted root bisects")

        monkeypatch.setattr(quadrature, "_adaptive_interval", refused)
        fast = quadrature._panel_integral(segments, known, *self.NARROW, 1e-10)
        assert (fast[0].hex(), fast[1].hex(), fast[2]) == ("0x0.0p+0", "0x0.0p+0", 1)
        assert (slow[0].hex(), slow[1].hex(), slow[2]) == ("0x0.0p+0", "0x0.0p+0", 1)

    @settings(max_examples=40, deadline=None)
    @given(freq=st.floats(0.0, 400.0), power=st.floats(-0.9, 3.0), m=st.integers(0, 30),
           tol=st.sampled_from([1e-6, 1e-10, 1e-13]))
    def test_panel_integral_equals_the_bisection(self, freq, power, m, tol):
        known = {}
        segments = quadrature._segment_source(lambda t: np.cos(freq * t) * t**power, known)
        a, b = quadrature._panel(1.0, m)
        segments([(a, b)])
        fast = quadrature._panel_integral(segments, known, a, b, tol)
        slow = quadrature._adaptive_interval(segments, a, b, tol)
        assert (fast[0].hex(), fast[1].hex(), fast[2]) == (slow[0].hex(), slow[1].hex(), slow[2])

    def test_no_evaluation_asks_for_no_segment(self, gk_calls):
        for f, w, _ in TestBatchedSchedule.CASES.values():
            integrate_weighted(f, w)
        divergence_probe(Integrand(lambda t: 1.0 / t), WarpSpec.euclidean(1.0), 1.0,
                         [1e-2, 3e-3, 1e-3, 3e-4])
        with funcspace.shared_segments():
            for tol in (1e-10, 1e-10 / 16):
                funcspace.weighted_integral(*TestSegmentMemo.BASE, tol)
        assert gk_calls and min(gk_calls) > 0
