"""Family jets against closed-form derivatives; norm oracles and invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, trapezoid
from scipy.special import erf

from radwarp import funcspace, geometry
from radwarp.errors import DomainError, InadmissibleParameterError
from radwarp.funcspace import (
    FAMILY_KINDS,
    RadialFunction,
    critical_q,
    default_families,
    gradient_norm_manifold,
    lq_theta_norm_1d,
    sobolev_norm_1d,
    sobolev_norm_manifold,
    sobolev_seminorms_1d,
    weighted_integral,
)
from radwarp.manifold import ManifoldSpec, WarpSpec, sphere_volume

from oracles import oracle_family_coeffs


class TestEvalJet:
    def test_linear(self):
        j = RadialFunction.linear().eval_jet(3.0, 2)
        assert [j.derivative(m) for m in range(3)] == [3.0, 1.0, 0.0]

    def test_gaussian_near_origin(self):
        j = RadialFunction.gaussian(1.0).eval_jet(1e-9, 2)
        np.testing.assert_allclose(
            [j.derivative(m) for m in range(3)], [1.0, 0.0, -2.0], atol=5e-9
        )

    def test_power_decay_at_one(self):
        j = RadialFunction.power_decay(1.0).eval_jet(1.0, 1)
        assert j.derivative(0) == pytest.approx(0.5, rel=1e-14)
        assert j.derivative(1) == pytest.approx(-0.5, rel=1e-14)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
    def test_gaussian_derivatives_closed_form(self, t):
        a = 0.8
        v = math.exp(-a * t**2)
        oracle = [
            v,
            -2 * a * t * v,
            (4 * a**2 * t**2 - 2 * a) * v,
            (-8 * a**3 * t**3 + 12 * a**2 * t) * v,
            (16 * a**4 * t**4 - 48 * a**3 * t**2 + 12 * a**2) * v,
        ]
        j = RadialFunction.gaussian(a).eval_jet(t, 4)
        np.testing.assert_allclose(
            [j.derivative(m) for m in range(5)], oracle, rtol=1e-12, atol=1e-13
        )

    def test_log_profile_closed_form(self):
        r_ref, delta, t = 2.0, 0.1, 0.5
        f = RadialFunction.log_profile(r_ref, delta)
        j = f.eval_jet(t, 2)
        d = t**2 + delta**2
        assert j.derivative(0) == pytest.approx(math.log(r_ref) - 0.5 * math.log(d), rel=1e-13)
        assert j.derivative(1) == pytest.approx(-t / d, rel=1e-13)
        assert j.derivative(2) == pytest.approx((t**2 - delta**2) / d**2, rel=1e-12)

    def test_bump_vanishes_beyond_support(self):
        f = RadialFunction.polynomial_bump((1.0, 0.5), support=1.0)
        j = f.eval_jet(np.array([0.5, 1.0, 2.0]), 3)
        assert np.all(j.coeffs[1] == 0.0)
        assert np.all(j.coeffs[2] == 0.0)
        assert abs(j.value[0]) > 0

    def test_bump_jets_match_finite_differences(self):
        f = RadialFunction.polynomial_bump((1.0, -0.3, 0.2), support=2.0)
        h = 1e-5
        for t in (0.4, 1.1, 1.8):
            j = f.eval_jet(t, 2)
            fd1 = (f.values(t + h) - f.values(t - h)) / (2 * h)
            fd2 = (f.values(t + h) - 2 * f.values(t) + f.values(t - h)) / h**2
            assert j.derivative(1) == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            assert j.derivative(2) == pytest.approx(fd2, rel=1e-4, abs=1e-5)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            RadialFunction.gaussian().eval_jet(-0.5, 2)
        with pytest.raises(DomainError):
            RadialFunction.gaussian().eval_jet(1.0, 5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([0.5, math.nan, 2.0])],
                             ids=["nan", "inf", "nan_in_batch"])
    def test_non_finite_points_are_rejected(self, t):
        # a NaN fails every comparison, so a check written as "t <= 0" let it
        # through; each family then returned NaN coefficients
        for f in default_families(3.0):
            with pytest.raises(DomainError):
                f.eval_jet(t, 2)

    @pytest.mark.parametrize("family", default_families(3.0) + (
        RadialFunction.polynomial_bump((2.0, 0.0, -0.4), support=1.5),
        RadialFunction.log_profile(1.0, 0.03),
    ), ids=lambda f: f.label)
    def test_jets_are_truncation_consistent(self, family):
        # the order-i jet is the order-j jet cut to i + 1 coefficients, bit
        # for bit, signs of zeros included: one jet of the top order serves
        # every lower order
        t = np.geomspace(1e-3, 6.0, 97)
        for j in range(5):
            top = family.eval_jet(t, j).coeffs
            for i in range(j + 1):
                low = family.eval_jet(t, i).coeffs
                assert top[..., : i + 1].tobytes() == low.tobytes(), (i, j)


# families of each kind with random parameters
FAMILIES = {
    "gaussian": st.floats(0.01, 60.0).map(RadialFunction.gaussian),
    "power_decay": st.floats(0.05, 10.0).map(RadialFunction.power_decay),
    "polynomial_bump": st.builds(RadialFunction.polynomial_bump,
                                 st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
                                 st.floats(0.05, 10.0)),
    "log_profile": st.builds(RadialFunction.log_profile, st.floats(0.1, 100.0),
                             st.floats(1e-3, 1.0)),
    "linear": st.just(RadialFunction.linear()),
}


class TestRows:
    # the family rows keep every bit of the coefficient-array chain they
    # replace (tests/oracles.py), signs of zeros included
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(FAMILY_KINDS), order=st.integers(0, 4),
           ts=st.lists(st.floats(1e-9, 40.0), min_size=1, max_size=6))
    def test_rows_are_the_coefficient_chain_bit_for_bit(self, data, kind, order, ts):
        f = data.draw(FAMILIES[kind])
        t = np.array(ts)
        if kind == "polynomial_bump":  # the edge of the cutoff, from both sides
            edge = f.param("support") * (1.0 - 1e-8)
            t = np.concatenate([t, [edge, np.nextafter(edge, 0.0), 1e-9 * edge]])
        for tt in [t] + list(t):  # a batch, then each point as a 0-d t
            want = oracle_family_coeffs(f, tt, order)
            got = f.eval_jet(tt, order).coeffs
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            deriv = f.derivative_values(tt, order)
            assert np.shape(deriv) == np.shape(tt)
            want_deriv = want[..., order] * float(math.factorial(order))
            assert np.array_equal(deriv.view(np.int64), want_deriv.view(np.int64))
            assert np.array_equal(f.values(tt).view(np.int64), want[..., 0].view(np.int64))

    @pytest.mark.parametrize("call", ["eval_jet", "derivative_values"])
    def test_negative_order_is_rejected(self, call):
        # it used to leak a bare StopIteration from the composition
        with pytest.raises(DomainError):
            getattr(RadialFunction.gaussian(), call)(1.0, -1)

    def test_fractional_order_is_rejected(self):
        with pytest.raises(DomainError):
            RadialFunction.gaussian().eval_jet(1.0, 2.5)

    def test_boolean_order_is_rejected(self):
        # True used to be served as order 1
        with pytest.raises(DomainError):
            RadialFunction.gaussian().eval_jet(1.0, True)

    @pytest.mark.parametrize("build", [
        lambda: RadialFunction.gaussian(math.inf),
        lambda: RadialFunction.gaussian(math.nan),
        lambda: RadialFunction.power_decay(math.nan),
        lambda: RadialFunction.power_decay(math.inf),
        lambda: RadialFunction.polynomial_bump((1.0,), support=math.nan),
        lambda: RadialFunction.polynomial_bump((1.0,), support=math.inf),
        lambda: RadialFunction.polynomial_bump((1.0, math.nan), support=1.0),
        lambda: RadialFunction.polynomial_bump((-math.inf,), support=1.0),
        lambda: RadialFunction.log_profile(math.nan),
        lambda: RadialFunction.log_profile(1.0, math.inf),
    ], ids=["gaussian_inf", "gaussian_nan", "power_decay_nan", "power_decay_inf",
            "bump_support_nan", "bump_support_inf", "bump_coeff_nan", "bump_coeff_inf",
            "log_ref_nan", "log_delta_inf"])
    def test_non_finite_parameters_are_rejected(self, build):
        # gaussian(inf) used to be v = 0 with an infinite envelope coefficient
        with pytest.raises(DomainError):
            build()


class TestEnvelopes:
    # the envelope is the only tail certificate of every norm on an unbounded
    # domain, the manifold norms of order <= 1 included
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_envelope_dominates_derivatives(self, kind, data):
        f = data.draw(FAMILIES[kind])
        env = f.decay_envelope()
        if kind in ("linear", "log_profile"):
            assert env is None
            return
        grid = np.geomspace(env.valid_from, 2.0**20, 241)
        bound = env.coef * grid**env.power * np.exp(-env.rate * grid - env.quad_rate * grid**2)
        for j in range(5):
            vals = np.abs(f.derivative_values(grid, j))
            assert np.all(vals <= bound), f"order {j} escapes the envelope"

    def test_admissibility_flags(self):
        # only the decaying families carry a tail certificate
        assert RadialFunction.gaussian().decay_envelope() is not None
        assert RadialFunction.polynomial_bump().decay_envelope() is not None
        assert RadialFunction.power_decay().decay_envelope() is not None
        assert RadialFunction.linear().decay_envelope() is None
        assert RadialFunction.log_profile(5.0).decay_envelope() is None


class TestLebesgueNorms:
    def test_linear_weighted_square(self):
        # (int_0^1 t^2 * t^2)^(1/2) = sqrt(1/5)
        val = lq_theta_norm_1d(RadialFunction.linear(), 2.0, 2.0, WarpSpec.euclidean(1.0))
        assert val == pytest.approx(math.sqrt(0.2), rel=1e-10)

    def test_plain_l1(self):
        val = lq_theta_norm_1d(RadialFunction.linear(), 1.0, 0.0, WarpSpec.euclidean(1.0))
        assert val == pytest.approx(0.5, rel=1e-10)

    def test_gaussian_against_sinh_closed_form(self):
        # int_0^inf exp(-2 t^2) sinh t dt = e^{1/8} sqrt(pi/8) erf(sqrt(2)/4)
        oracle = math.exp(0.125) * math.sqrt(math.pi / 8.0) * erf(math.sqrt(2.0) / 4.0)
        val = lq_theta_norm_1d(RadialFunction.gaussian(1.0), 2.0, 1.0, WarpSpec.hyperbolic())
        assert val == pytest.approx(math.sqrt(oracle), rel=1e-10)

    def test_divergent_norm_signals_inf(self):
        # t against sinh^3 on (0, inf) diverges
        val = lq_theta_norm_1d(RadialFunction.linear(), 2.0, 3.0, WarpSpec.hyperbolic())
        assert math.isinf(val)

    def test_small_support_bump_on_large_domain(self):
        # support 0.2 against domain radius 1: panels must descend into the
        # support; oracle is a dense trapezoid rule
        f = RadialFunction.polynomial_bump((1.0,), support=0.2)
        val = lq_theta_norm_1d(f, 1.0, 0.0, WarpSpec.euclidean(1.0))
        grid = np.linspace(1e-9, 0.2, 400_001)
        oracle = trapezoid(f.values(grid), grid)
        assert val == pytest.approx(oracle, rel=1e-6)
        # and agrees exactly with the same integral on a snug domain
        snug = lq_theta_norm_1d(f, 1.0, 0.0, WarpSpec.euclidean(0.25))
        assert val == pytest.approx(snug, rel=1e-10)


class TestSobolevNorms:
    def test_linear_two_monomials(self):
        # sqrt(int t^2 t^2 + int 1 t^2) = sqrt(1/5 + 1/3)
        val = sobolev_norm_1d(RadialFunction.linear(), 1, 2.0, 3, WarpSpec.euclidean(1.0))
        assert val == pytest.approx(math.sqrt(8.0 / 15.0), rel=1e-10)

    def test_zero_function(self):
        zero = RadialFunction.polynomial_bump((0.0,), support=1.0)
        assert sobolev_norm_1d(zero, 2, 2.0, 3, WarpSpec.euclidean(1.0)) == 0.0
        m = ManifoldSpec(WarpSpec.euclidean(1.0), 3)
        assert sobolev_norm_manifold(zero, 1, 2.0, m) == 0.0

    def test_gaussian_unbounded_finite(self):
        val = sobolev_norm_1d(RadialFunction.gaussian(1.0), 2, 2.0, 3, WarpSpec.hyperbolic())
        assert math.isfinite(val) and val > 0

    @settings(max_examples=12, deadline=None)
    @given(lam=st.floats(min_value=0.5, max_value=50.0))
    def test_homogeneity(self, lam):
        w = WarpSpec.euclidean(1.0)
        base = RadialFunction.polynomial_bump((1.0, -0.3), support=0.8)
        scaled = RadialFunction.polynomial_bump((lam, -0.3 * lam), support=0.8)
        for fn in (
            lambda f: lq_theta_norm_1d(f, 2.0, 1.0, w),
            lambda f: sobolev_norm_1d(f, 2, 2.0, 3, w),
        ):
            assert fn(scaled) == pytest.approx(lam * fn(base), rel=1e-8)

    def test_homogeneity_small_scale_within_quadrature_contract(self):
        # tiny integrals carry the quadrature's absolute floor
        # tol * max(1, |I|); the norm deviation is bounded by its propagation
        lam, tol = 1e-2, 1e-10
        w = WarpSpec.euclidean(1.0)
        base = RadialFunction.polynomial_bump((1.0, -0.3), support=0.8)
        scaled = RadialFunction.polynomial_bump((lam, -0.3 * lam), support=0.8)
        a = lq_theta_norm_1d(base, 2.0, 1.0, w, tol)
        b = lq_theta_norm_1d(scaled, 2.0, 1.0, w, tol)
        integral = (lam * a) ** 2
        norm_err_bound = 0.5 * tol * max(1.0, integral) / integral * (lam * a)
        assert abs(b - lam * a) <= 2.0 * norm_err_bound

    @pytest.mark.parametrize("k", [-1, 5])
    def test_orders_outside_the_jets_are_rejected(self, k):
        # unchecked, k = -1 gives 0.0 or [] from the norms and a bare
        # ValueError from weighted_integral
        f, w = RadialFunction.gaussian(1.0), WarpSpec.euclidean(1.0)
        m = ManifoldSpec(w, 3)
        for call in (lambda: sobolev_norm_1d(f, k, 2.0, 3, w),
                     lambda: sobolev_seminorms_1d(f, k, 2.0, 3, w),
                     lambda: sobolev_norm_manifold(f, k, 2.0, m),
                     lambda: weighted_integral(f, k, 2.0, 2.0, w, 1e-10),
                     lambda: weighted_integral(f, k, 2.0, 2.0, m, 1e-10)):
            with pytest.raises(InadmissibleParameterError, match="within 0..4"):
                call()

    def test_manifold_k1_structure(self):
        # rank-1 pointwise norms equal |v'|, so the manifold norm is exactly
        # omega^(1/p) (I0^(1/p) + I1^(1/p)) with the same 1-D integrals
        m = ManifoldSpec(WarpSpec.hyperbolic(2.0), 3)
        f = RadialFunction.gaussian(1.0)
        p = 2.0
        parts = sobolev_seminorms_1d(f, 1, p, 3, m.warp)
        oracle = sum((sphere_volume(3) * part) ** (1 / p) for part in parts)
        val = sobolev_norm_manifold(f, 1, p, m)
        assert val == pytest.approx(oracle, rel=1e-9)

    def test_linear_counterexample_manifold_norm_infinite(self):
        # v(t) = t on a capped profile: third derivative tensor blows up
        # near the origin fast enough that the manifold norm diverges
        m = ManifoldSpec(WarpSpec.tanh_cap(2.0), 2)
        val = sobolev_norm_manifold(RadialFunction.linear(), 3, 2.0, m)
        assert math.isinf(val)
        # while the interval norm stays finite
        assert math.isfinite(sobolev_norm_1d(RadialFunction.linear(), 3, 2.0, 2, m.warp))

    @pytest.mark.parametrize("wname,w", [
        ("euclidean", WarpSpec.euclidean(1.0)),
        ("tanh", WarpSpec.tanh_cap(2.0)),
    ])
    def test_interval_norm_dominated_by_manifold(self, wname, w):
        m = ManifoldSpec(w, 3)
        omega = sphere_volume(3)
        for f in (RadialFunction.gaussian(1.0), RadialFunction.power_decay(1.5)):
            for k, p in ((1, 2.0), (2, 2.0), (3, 1.0), (4, 2.0)):
                parts = sobolev_seminorms_1d(f, k, p, 3, w)
                manifold_norm = sobolev_norm_manifold(f, k, p, m)
                interval_sum = sum((omega * s) ** (1 / p) for s in parts)
                assert interval_sum <= manifold_norm + 1e-8

    def test_euclidean_weight_equivalence_bracket(self):
        # with phi bounded above/below near R, the phi^(N-1)-weighted norm
        # and the t^(N-1)-weighted norm differ by a fixed bracket
        w = WarpSpec.tanh_cap(2.0)
        n, k, p = 3, 2, 2.0
        grid = np.linspace(1e-4, 2.0 - 1e-9, 2001)
        ratio = np.tanh(grid) / grid
        lo, hi = ratio.min() ** ((n - 1) / p), ratio.max() ** ((n - 1) / p)
        for f in default_families(2.0):
            a = sobolev_norm_1d(f, k, p, n, w)
            b = sobolev_norm_1d(f, k, p, n, WarpSpec.euclidean(2.0))
            assert lo - 1e-9 <= a / b <= hi + 1e-9


class TestManifoldTails:
    """On an unbounded domain a manifold norm of order <= 1 takes its tail
    bound from the family's envelope; one of order >= 2 has none."""

    UNBOUNDED = ManifoldSpec(WarpSpec.euclidean(), 3)

    @pytest.mark.parametrize("a", [47.0, 50.0])
    @pytest.mark.parametrize("w,n", [(WarpSpec.euclidean(), 2), (WarpSpec.hyperbolic(), 3)],
                             ids=["euclidean_N2", "hyperbolic_N3"])
    def test_steep_gaussian_gradient_norm_is_the_interval_seminorm(self, w, n, a):
        # exp(-a t^2) underflows at t = 4 for a >= 47, where no ratio to the
        # envelope can be sampled
        f, p = RadialFunction.gaussian(a), 2.0
        seminorm = weighted_integral(f, 1, p, n - 1.0, w, 1e-10)
        value = gradient_norm_manifold(f, p, ManifoldSpec(w, n))
        assert math.isfinite(value)
        assert value == (sphere_volume(n) * seminorm) ** (1 / p)
        if w.kind == "euclidean":
            # int |grad u|^2 over R^2 is pi for every a
            assert value == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    @staticmethod
    def _recording(monkeypatch):
        integrands = []
        integrate = funcspace.integrate_weighted

        def recording(f, *args, **kwargs):
            integrands.append(f)
            return integrate(f, *args, **kwargs)

        monkeypatch.setattr(funcspace, "integrate_weighted", recording)
        return integrands

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("f", [RadialFunction.gaussian(2.0), RadialFunction.power_decay(3.0),
                                   RadialFunction.polynomial_bump((1.0, 0.5), support=2.0)],
                             ids=lambda f: f.family)
    def test_low_orders_take_the_family_envelope(self, monkeypatch, f, j):
        integrands = self._recording(monkeypatch)
        assert math.isfinite(weighted_integral(f, j, 1.5, 2.0, self.UNBOUNDED, 1e-10))
        assert [g.envelope for g in integrands] == [f.decay_envelope().power_scaled(1.5)]

    def test_second_order_tail_is_uncertified(self, monkeypatch):
        integrands = self._recording(monkeypatch)
        f = RadialFunction.gaussian(1.0)
        assert math.isinf(weighted_integral(f, 2, 2.0, 2.0, self.UNBOUNDED, 1e-10))
        assert integrands == []
        # the norm integrates order 2 first, which is inf before any integral
        assert math.isinf(sobolev_norm_manifold(f, 2, 2.0, self.UNBOUNDED))
        assert integrands == []
        assert math.isfinite(sobolev_norm_manifold(f, 2, 2.0,
                                                   ManifoldSpec(WarpSpec.hyperbolic(2.0), 3)))


class TestManifoldOrigin:
    """A manifold norm walks to the origin as an interval norm does: for a
    profile with v'(0) != 0, |grad^j u|_g ~ r^(1 - j), so the integral is
    finite exactly where N - 1 + p (1 - j) > -1."""

    BUMP = RadialFunction.polynomial_bump((1.0, 0.5), support=2.0)

    @staticmethod
    def _hessian_oracle(v, w, n, p, psi):
        # |grad^2 u|_g^2 = v''^2 + (N - 1) (psi v')^2: the Hessian of a
        # radial function has the eigenvalues v'' and psi v'
        def integrand(r):
            d1, d2 = (float(v.derivative_values(np.array([r]), j)[0]) for j in (1, 2))
            return (d2**2 + (n - 1) * (psi(r) * d1) ** 2) ** (p / 2) * w(r) ** (n - 1)
        return quad(integrand, 0.0, 2.0, epsabs=0.0, epsrel=1e-13, limit=400)[0]

    @pytest.mark.parametrize("warp, w, psi", [
        (WarpSpec.euclidean(3.0), lambda r: r, lambda r: 1.0 / r),
        (WarpSpec.hyperbolic(3.0), math.sinh, lambda r: 1.0 / math.tanh(r)),
        (WarpSpec.spherical(3.0), math.sin, lambda r: 1.0 / math.tan(r)),
    ], ids=["euclidean", "hyperbolic", "spherical"])
    @pytest.mark.parametrize("n, p", [(3, 2.0), (2, 1.5), (4, 2.5)])
    def test_second_order_integral_is_the_scipy_oracle(self, warp, w, psi, n, p):
        # the integrand tends to 0.5^p (N - 1)^(p/2) r^(N - 1 - p) at the
        # origin, which every case integrates; euclidean N = 3, p = 2 read
        # inf while manifold norms stopped at r = 1e-6
        value = weighted_integral(self.BUMP, 2, p, n - 1.0, ManifoldSpec(warp, n), 1e-10)
        oracle = self._hessian_oracle(self.BUMP, w, n, p, psi)
        assert value == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("n, j, p", [(2, 2, 2.0), (3, 2, 3.0), (5, 3, 2.5), (4, 4, 2.0)])
    def test_integral_at_or_below_the_borderline_is_inf(self, n, j, p):
        # N - 1 + p (1 - j) <= -1: the integral diverges at the origin
        m = ManifoldSpec(WarpSpec.hyperbolic(3.0), n)
        assert math.isinf(weighted_integral(self.BUMP, j, p, n - 1.0, m, 1e-10))

    def test_overflowing_integrand_is_inf_without_a_warning(self):
        # N - 1 + p (1 - j) = -0.91: finite, but the walk decays so slowly
        # that it reaches r ~ 8e-52, where the rank-4 rows overflow float64
        v = RadialFunction.polynomial_bump((1.0, 0.5), support=1.5)
        m = ManifoldSpec(WarpSpec.hyperbolic(2.0), 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isinf(weighted_integral(v, 4, 1.97, 5.0, m, 1e-10))


TABLE_WARPS = (WarpSpec.euclidean(), WarpSpec.hyperbolic(), WarpSpec.spherical(),
               WarpSpec.tanh_cap())


class TestRowMemo:
    """Inside shared_segments, the integrals of one (v, space) read v's rows
    from one memo, evaluated to the highest order asked for."""

    # the premise: rows 0..j of a higher-order evaluation are those of an
    # order-j one, bit for bit
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(FAMILY_KINDS), top=st.integers(0, 4),
           w=st.sampled_from(TABLE_WARPS), n=st.integers(2, 5),
           fractions=st.lists(st.floats(1e-6, 0.999), min_size=1, max_size=8))
    def test_higher_order_rows_keep_the_lower_rows(self, data, kind, top, w, n, fractions):
        f = data.draw(FAMILIES[kind])
        t = np.array(fractions) * min(w.radius, 40.0)
        m = ManifoldSpec(w, n)
        rows, profiles = f._rows(t, top), geometry.norm_profiles(f, m, t, top)
        for j in range(top + 1):
            assert rows[j].tobytes() == f._rows(t, j)[j].tobytes(), j
            assert profiles[j].tobytes() == geometry.norm_profiles(f, m, t, j)[j].tobytes(), j

    BUMP = RadialFunction.polynomial_bump((1.0, -0.3, 0.2), support=0.8)
    UNIT = WarpSpec.euclidean(1.0)

    @staticmethod
    def _counted_rows(monkeypatch):
        calls = []
        rows = RadialFunction._rows

        def counting(self, t, order):
            calls.append((self, order))
            return rows(self, t, order)

        monkeypatch.setattr(RadialFunction, "_rows", counting)
        return calls

    def test_a_block_evaluates_fewer_rows_and_keeps_every_bit(self, monkeypatch):
        calls = self._counted_rows(monkeypatch)
        alone = [x.hex() for x in sobolev_seminorms_1d(self.BUMP, 2, 2.0, 3, self.UNIT)]
        outside = len(calls)
        with funcspace.shared_segments():
            shared = [x.hex() for x in sobolev_seminorms_1d(self.BUMP, 2, 2.0, 3, self.UNIT)]
        inside = len(calls) - outside
        assert shared == alone
        assert 0 < inside < outside
        # order 2 is integrated first; lower orders evaluate only the arrays
        # their walks add, to their own order
        assert calls[outside][1] == 2 and {order for _, order in calls[outside:]} <= {0, 1, 2}

    @pytest.mark.parametrize("other", [
        (RadialFunction.gaussian(1.0), UNIT),
        (BUMP, WarpSpec.hyperbolic(1.0)),
        (BUMP, ManifoldSpec(UNIT, 3)),
    ], ids=["family", "warp", "manifold"])
    def test_different_families_or_spaces_share_no_rows(self, monkeypatch, other):
        calls = self._counted_rows(monkeypatch)
        v, space = other
        with funcspace.shared_segments():
            alone = weighted_integral(v, 1, 2.0, 2.0, space, 1e-10)
        made = len(calls)
        with funcspace.shared_segments():
            weighted_integral(self.BUMP, 1, 2.0, 2.0, self.UNIT, 1e-10)
            before = len(calls)
            shared = weighted_integral(v, 1, 2.0, 2.0, space, 1e-10)
            row_memos = [key for key in funcspace._MEMO.get() if len(key) == 2]
            assert row_memos == [(self.BUMP, self.UNIT), (v, space)]
        assert len(calls) - before == made > 0
        assert shared.hex() == alone.hex()

    def test_rows_are_evaluated_again_only_for_a_higher_order(self, monkeypatch):
        calls = self._counted_rows(monkeypatch)
        t, memo = np.linspace(0.1, 0.7, 15), {}
        source = lambda j: funcspace._row_source(self.BUMP, self.UNIT, j, memo)
        low = source(0)(t)
        assert source(0)(t.copy()) is low
        high = source(1)(t)
        assert source(0)(t) is high
        assert len(source(3)(t[1:])) == 4
        assert [order for _, order in calls] == [0, 1, 3]
        assert high[0].tobytes() == low[0].tobytes()

    def test_outside_a_block_each_integral_has_its_own_memo(self, monkeypatch):
        calls = self._counted_rows(monkeypatch)
        first = weighted_integral(self.BUMP, 1, 2.0, 2.0, self.UNIT, 1e-10)
        made = len(calls)
        assert weighted_integral(self.BUMP, 1, 2.0, 2.0, self.UNIT, 1e-10) == first
        assert len(calls) == 2 * made > 0
        assert funcspace._MEMO.get() is None


class TestRowWork:
    """Inside a block, each (v, space, node array) is evaluated only when an
    integral reads an order above the one it holds, so never above the
    highest order any integral on it reads."""

    WARP = WarpSpec.hyperbolic(2.0)
    MANIFOLD = ManifoldSpec(WARP, 3)
    BUMP = RadialFunction.polynomial_bump((1.0, 0.5), support=1.5)

    def _record(self, monkeypatch):
        reads, evaluations = [], []
        source = funcspace._row_source

        def recording(v, space, j, memo):
            reads.append((v, space, j))
            rows = source(v, space, j, memo)

            def logged(t):
                held = memo.get(t.tobytes())
                got = rows(t)
                if got is not held:
                    before = -1 if held is None else len(held) - 1
                    evaluations.append(((v, space, t.tobytes()), before, j, len(got) - 1))
                return got
            return logged

        monkeypatch.setattr(funcspace, "_row_source", recording)
        return reads, evaluations

    def _norms(self):
        return [
            sobolev_norm_manifold(self.BUMP, 3, 2.0, self.MANIFOLD),
            gradient_norm_manifold(self.BUMP, 2.0, self.MANIFOLD),
            sobolev_norm_1d(self.BUMP, 4, 2.0, 3, self.WARP),
            lq_theta_norm_1d(self.BUMP, 3.0, 2.0, self.WARP),
            *sobolev_seminorms_1d(self.BUMP, 2, 1.5, 3, self.WARP, 1e-12),
        ]

    def test_each_node_array_is_evaluated_only_for_a_higher_order(self, monkeypatch):
        alone = [x.hex() for x in self._norms()]
        reads, evaluations = self._record(monkeypatch)
        with funcspace.shared_segments():
            shared = [x.hex() for x in self._norms()]
        assert shared == alone
        top = {}
        for v, space, j in reads:
            top[v, space] = max(j, top.get((v, space), 0))
        held = {}
        for key, before, j, order in evaluations:
            assert before == held.get(key, -1) < j == order <= top[key[:2]]
            held[key] = order
        assert set(held.values()) == {0, 1, 2, 3, 4}
        # each norm integrates its highest order first, so an array is seldom
        # evaluated twice: 1 of 596 evaluations here
        again = sum(before >= 0 for _, before, _, _ in evaluations)
        assert again * 50 < len(held)


class TestNormRequest:
    """Critical exponents of a norm request (N, k, p, theta)."""

    def test_critical_exponent_example(self):
        # (1 + 4) * 2 / (4 - 2) = 5, exactly
        assert critical_q(4, 1, 2.0, theta=1.0) == 5.0

    def test_inadmissible_when_n_le_kp(self):
        with pytest.raises(InadmissibleParameterError):
            critical_q(4, 2, 2.0)
        with pytest.raises(InadmissibleParameterError):
            critical_q(4, 2, 2.0, variant="interval")

    def test_interval_variant(self):
        # (3 + 1) * 2 / (4 - 2) = 4, exactly
        assert critical_q(4, 1, 2.0, theta=3.0, variant="interval") == 4.0
