"""Warping profiles, their positivity rule, the monotonicity constant, sphere
volumes, metric jets."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from radwarp.errors import ChartSingularityError, DomainError
from radwarp.jets import embed_univariate, jet_mul
from radwarp.manifold import (
    WARP_TABLE,
    ManifoldSpec,
    WarpSpec,
    c_phi,
    default_point,
    metric_at,
    sphere_volume,
    warp_eval,
    warp_value,
)

ALL_WARPS = [
    WarpSpec.euclidean(),
    WarpSpec.hyperbolic(),
    WarpSpec.spherical(),
    WarpSpec.tanh_cap(),
]


class TestWarpEval:
    def test_hyperbolic_near_origin(self):
        j = warp_eval(WarpSpec.hyperbolic(), 1e-8, 3)
        np.testing.assert_allclose(
            [j.derivative(m) for m in range(4)], [0.0, 1.0, 0.0, 1.0], atol=2e-8
        )

    def test_euclidean(self):
        j = warp_eval(WarpSpec.euclidean(), 2.0, 2)
        assert [j.derivative(m) for m in range(3)] == [2.0, 1.0, 0.0]

    def test_spherical_at_pi_half(self):
        j = warp_eval(WarpSpec.spherical(), math.pi / 2, 2)
        np.testing.assert_allclose([j.derivative(m) for m in range(3)], [1.0, 0.0, -1.0], atol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            warp_eval(WarpSpec.spherical(), 3.5, 2)
        with pytest.raises(DomainError):
            warp_eval(WarpSpec.euclidean(), -1.0, 2)
        with pytest.raises(DomainError):
            warp_eval(WarpSpec.euclidean(), 0.0, 2)

    def test_custom_odd_series(self):
        # phi(r) = r - r^3/6: first two terms of sin
        w = WarpSpec.custom((1.0, -1.0 / 6.0), radius=1.5)
        j = warp_eval(w, 0.5, 4)
        assert j.derivative(0) == pytest.approx(0.5 - 0.5**3 / 6)
        assert j.derivative(1) == pytest.approx(1 - 0.5**2 / 2)
        assert j.derivative(2) == pytest.approx(-0.5)
        assert j.derivative(3) == pytest.approx(-1.0)
        assert j.derivative(4) == 0.0

    def test_custom_must_be_odd_unit_slope(self):
        with pytest.raises(DomainError):
            WarpSpec.custom((2.0,), radius=1.0)
        with pytest.raises(DomainError):
            WarpSpec("custom_odd_series", 1.0, ())
        with pytest.raises(DomainError):
            WarpSpec.custom((1.0, math.nan), radius=1.0)

    @pytest.mark.parametrize("w", ALL_WARPS, ids=lambda w: w.kind)
    def test_jets_match_finite_differences(self, w):
        # centered differences, step 1e-5, agreement 1e-7 relative
        h = 1e-5
        for r in (0.3, 0.9, 1.7):
            j = warp_eval(w, r, 2)
            f = lambda t: warp_value(w, t)
            d1 = (f(r + h) - f(r - h)) / (2 * h)
            d2 = (f(r + h) - 2 * f(r) + f(r - h)) / h**2
            assert j.derivative(1) == pytest.approx(d1, rel=1e-7, abs=1e-7)
            assert j.derivative(2) == pytest.approx(d2, rel=1e-5, abs=1e-5)

    def test_batched_evaluation(self):
        r = np.array([0.5, 1.0, 2.0])
        j = warp_eval(WarpSpec.hyperbolic(), r, 2)
        np.testing.assert_allclose(j.derivative(0), np.sinh(r))
        np.testing.assert_allclose(j.derivative(1), np.cosh(r))


# psi = phi'/phi in closed form, written independently of the warp table
CLOSED_PSI = {"euclidean": lambda t: 1 / t, "hyperbolic": mpmath.coth, "spherical": mpmath.cot,
              "tanh_cap": lambda t: 2 / mpmath.sinh(2 * t)}


@pytest.mark.parametrize("w", ALL_WARPS, ids=lambda w: w.kind)
def test_psi_rows_are_the_taylor_rows_of_phi_prime_over_phi(w):
    # at r = 2.9, psi's rows of hyperbolic and tanh_cap are about 1e-2 of
    # the rows they are formed from (tanh_cap's phi' = 1 - tanh^2 as well),
    # and lose about two digits
    r = np.array([0.01, 0.3, 1.7, 2.9])
    rows = WARP_TABLE[w.kind].psi(w, r, 3)
    for i, t in enumerate(r):
        with mpmath.workdps(40):
            want = mpmath.taylor(CLOSED_PSI[w.kind], mpmath.mpf(float(t)), 3)
        for m, row in enumerate(rows):
            assert abs(row[i] - float(want[m])) <= 1e-13 * abs(float(want[m])), (t, m)


def assert_origin_conditions(w: WarpSpec):
    # phi(0) = 0, phi'(0) = 1 and the even derivatives vanish through order 6
    d = WARP_TABLE[w.kind].derivatives(w, np.array(0.0), 6)
    assert abs(d[0]) <= 1e-14
    assert abs(d[1] - 1.0) <= 1e-12
    for m in range(2, 7, 2):
        assert abs(d[m]) <= 1e-10, m


@pytest.mark.parametrize("w", ALL_WARPS, ids=lambda w: w.kind)
def test_builtin_warps_meet_the_origin_conditions(w):
    assert_origin_conditions(w)


@settings(max_examples=60, deadline=None)
@given(tail=st.lists(st.floats(-0.2, 0.2), max_size=4))
def test_custom_series_meets_the_origin_conditions(tail):
    # odd powers with leading coefficient 1: the conditions hold by
    # construction, so WarpSpec does not check them
    assert_origin_conditions(WarpSpec.custom((1.0, *tail), radius=1.0))


class TestWarpPositivity:
    def test_spherical_ends_at_pi(self):
        WarpSpec.spherical(math.pi)
        with pytest.raises(DomainError):
            WarpSpec.spherical(3.2)

    def test_series_vanishing_on_the_tail(self):
        # phi(t) = t - t^3 / 4 is positive on (0, 2) and vanishes at 2
        WarpSpec.custom((1.0, -0.25), radius=2.0)
        with pytest.raises(DomainError):
            WarpSpec.custom((1.0, -0.25), radius=math.nextafter(2.0, 3.0))
        with pytest.raises(DomainError):
            WarpSpec.custom((1.0, -0.25))
        # the float nearest -1e-8 is slightly below it: its root lies under 1e8
        with pytest.raises(DomainError):
            WarpSpec.custom((1.0, -1e-8), radius=1e4)

    def test_touching_double_root(self):
        # P(s) = (1 - s)^2: phi(t) = t (1 - t^2)^2 touches 0 at t = 1
        WarpSpec.custom((1.0, -2.0, 1.0), radius=1.0)
        with pytest.raises(DomainError):
            WarpSpec.custom((1.0, -2.0, 1.0), radius=2.0)

    def test_trailing_zero_coefficients(self):
        WarpSpec.custom((1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            WarpSpec.custom((1.0, 0.5, -0.25, 0.0))


@settings(max_examples=150, deadline=None)
@given(
    roots=st.lists(st.floats(-3.0, 3.0).filter(lambda x: abs(x) >= 0.1), max_size=4),
    a=st.floats(-2.0, 2.0),
    d=st.floats(0.3, 2.0),
    radius=st.sampled_from([0.5, 1.0, 1.5, math.inf]),
)
def test_series_is_positive_exactly_when_p_has_no_root_inside(roots, a, d, radius):
    # P(s) = prod (s - rho_i) * ((s - a)^2 + d^2), scaled to P(0) = 1; phi(t) =
    # t P(t^2) is positive on (0, R) exactly when no rho_i lies in (0, R^2).
    # The coefficients are rounded, which moves a simple root by far less
    # than the 0.1 that roots keep from 0, R^2 and each other, but may split
    # a multiple one off the axis (see test_touching_double_root).
    end = radius**2
    assume(all(abs(rho - end) >= 0.1 for rho in roots))
    assume(all(abs(x - y) >= 0.1 for i, x in enumerate(roots) for y in roots[:i]))
    poly = np.poly1d([1.0, -2.0 * a, a * a + d * d])
    for rho in roots:
        poly = poly * np.poly1d([1.0, -rho])
    coeffs = poly.coeffs[::-1] / poly.coeffs[-1]
    if any(0.0 < rho < end for rho in roots):
        with pytest.raises(DomainError):
            WarpSpec.custom(coeffs, radius)
    else:
        WarpSpec.custom(coeffs, radius)


class TestWarpInfimum:
    def test_hyperbolic_is_one(self):
        assert c_phi(WarpSpec.hyperbolic()) == 1.0

    def test_euclidean_is_one(self):
        assert c_phi(WarpSpec.euclidean()) == 1.0

    def test_tanh_is_one(self):
        assert c_phi(WarpSpec.tanh_cap()) == 1.0

    def test_spherical_decays_with_grid(self):
        # sin rises to 1 at pi/2, then falls to sin R; the whole sphere gives 0
        assert c_phi(WarpSpec.spherical()) == 0.0
        assert c_phi(WarpSpec.spherical(2.0)) == math.sin(2.0)
        assert c_phi(WarpSpec.spherical(math.pi / 2)) == 1.0

    @pytest.mark.parametrize("radius", [1.0, 2.0, 2.5, math.pi], ids=["1.0", "2.0", "2.5", "pi"])
    def test_lower_bound_contract(self, radius):
        # over all pairs r <= t of a grid whose t reaches R (1 - 1e-9)
        w = WarpSpec.spherical(radius)
        phi = warp_value(w, np.linspace(1e-4, radius * (1 - 1e-9), 401))
        ratios = phi[:, None] / phi[None, :]
        assert c_phi(w) <= np.min(ratios[np.tril_indices(phi.size)])

    def test_custom_is_not_derived(self):
        with pytest.raises(DomainError):
            c_phi(WarpSpec.custom((1.0, 0.1), radius=1.0))


def test_warps_with_growth_bounds_have_unit_c_phi():
    # decay_lemma reads c_phi on R = inf only, where its tail hypothesis has
    # already required the warp's growth bounds; so its report shows 1.0
    kinds = [kind for kind, row in WARP_TABLE.items() if row.growth is not None]
    assert kinds == ["euclidean", "hyperbolic", "tanh_cap"]
    for kind in kinds:
        assert c_phi(WarpSpec(kind)) == 1.0
        assert c_phi(WarpSpec(kind, 3.0)) == 1.0


class TestSphereVolume:
    def test_circle(self):
        assert sphere_volume(2) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_two_sphere(self):
        assert sphere_volume(3) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere_against_recursion(self):
        # oracle: omega_{n-1} = omega_{n-2} * int_0^pi sin^{n-2}, via the
        # exact recursion I_m = (m-1)/m * I_{m-2}, I_0 = pi, I_1 = 2
        def slice_integral(m):
            if m == 0:
                return math.pi
            if m == 1:
                return 2.0
            return (m - 1) / m * slice_integral(m - 2)

        omega = 2 * math.pi  # omega_1
        for n in range(3, 7):
            omega = omega * slice_integral(n - 2)
            assert sphere_volume(n) == pytest.approx(omega, rel=1e-12)
        assert sphere_volume(4) == pytest.approx(2 * math.pi**2, rel=1e-15)

    def test_low_dimension_rejected(self):
        with pytest.raises(DomainError):
            sphere_volume(1)


class TestMetric:
    def test_radial_entry_is_constant_one(self):
        m = ManifoldSpec(WarpSpec.hyperbolic(), 4)
        g = metric_at(m, default_point(m, 1.3), order=2)
        assert g.entry(1).value == 1.0
        assert g.entry(1).derivative((1, 0, 0, 0)) == 0.0

    def test_hyperbolic_n3_values(self):
        m = ManifoldSpec(WarpSpec.hyperbolic(), 3)
        g = metric_at(m, (1.0, math.pi / 2, 1.0), order=2)
        s2 = math.sinh(1.0) ** 2
        assert g.entry(2).value == pytest.approx(s2, rel=1e-14)
        assert g.entry(3).value == pytest.approx(s2 * 1.0, rel=1e-14)
        assert g.inverse_entry(2).value == pytest.approx(1 / s2, rel=1e-13)

    def test_euclidean_n2(self):
        m = ManifoldSpec(WarpSpec.euclidean(), 2)
        g = metric_at(m, (2.0, 0.7), order=2)
        assert g.entry(2).value == pytest.approx(4.0, rel=1e-15)

    def test_nested_sine_factors(self):
        m = ManifoldSpec(WarpSpec.euclidean(), 4)
        r, t2, t3 = 1.5, 0.8, 1.1
        g = metric_at(m, (r, t2, t3, 2.2), order=1)
        assert g.entry(2).value == pytest.approx(r**2)
        assert g.entry(3).value == pytest.approx(r**2 * math.sin(t2) ** 2)
        assert g.entry(4).value == pytest.approx(r**2 * math.sin(t2) ** 2 * math.sin(t3) ** 2)

    def test_default_angles_collapse_to_phi_squared(self):
        for w in ALL_WARPS:
            m = ManifoldSpec(w, 5)
            g = metric_at(m, default_point(m, 0.9), order=1)
            phi2 = warp_value(w, 0.9) ** 2
            for i in range(2, 6):
                assert g.entry(i).value == pytest.approx(phi2, rel=1e-14)

    @pytest.mark.parametrize("w", ALL_WARPS + [WarpSpec.custom((1.0, -0.1, 0.02), 2.0)],
                             ids=lambda w: w.kind)
    def test_phi_squared_before_the_lift_is_the_lifted_square(self, w):
        # metric_at squares the univariate warp jet and then lifts it; the
        # dense product of the lifted jets gives the same bits: the sum of a
        # mixed slot starts with phi(r) * 0.0 = +0.0 (phi > 0), so it stays +0.0
        r = np.linspace(0.05, 1.9, 23)
        for n in range(2, 7):
            for order in range(4):
                m = ManifoldSpec(w, n)
                g = metric_at(m, default_point(m, r), order)
                phi = embed_univariate(warp_eval(w, r, order), n, 1)
                assert g.entry(2).coeffs.tobytes() == jet_mul(phi, phi).coeffs.tobytes()

    def test_chart_singularity(self):
        m = ManifoldSpec(WarpSpec.euclidean(), 4)
        with pytest.raises(ChartSingularityError):
            metric_at(m, (1.0, math.pi, 0.5, 0.5), order=1)

    def test_last_angle_carries_no_weight(self):
        # theta_N never enters the metric, so sin(theta_N) = 0 is fine
        m = ManifoldSpec(WarpSpec.euclidean(), 3)
        g = metric_at(m, (1.0, math.pi / 2, 0.0), order=1)
        assert g.entry(3).value == pytest.approx(1.0)

    @pytest.mark.parametrize("point", [(math.nan, 1.0, 0.5), (np.array([1.0, math.nan]), 1.0, 0.5),
                                       (1.0, math.nan, 0.5), (1.0, math.inf, 0.5),
                                       (1.0, 1.0, math.nan)],
                             ids=["r_nan", "r_nan_in_batch", "angle_nan", "angle_inf",
                                  "last_angle_nan"])
    def test_non_finite_points_are_rejected(self, point):
        m = ManifoldSpec(WarpSpec.hyperbolic(), 3)
        with pytest.raises(DomainError):
            metric_at(m, point, order=1)
        if not np.all(np.isfinite(point[0])):
            with pytest.raises(DomainError):
                warp_eval(m.warp, point[0], 1)

    def test_dimension_validation(self):
        with pytest.raises(DomainError):
            ManifoldSpec(WarpSpec.euclidean(), 1)
        with pytest.raises(DomainError):
            ManifoldSpec(WarpSpec.euclidean(), 9)


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=0.05, max_value=2.5),
    kind=st.sampled_from(["euclidean", "hyperbolic", "spherical", "tanh_cap"]),
)
def test_warp_derivative_chain(r, kind):
    # d/dr of the order-m derivative equals the order-(m+1) derivative
    w = WarpSpec(kind, math.pi if kind == "spherical" else math.inf)
    h = 1e-6
    j = warp_eval(w, r, 4)
    for m in range(3):
        fd = (warp_eval(w, r + h, 4).derivative(m) - warp_eval(w, r - h, 4).derivative(m)) / (2 * h)
        assert j.derivative(m + 1) == pytest.approx(fd, rel=1e-6, abs=1e-6)
