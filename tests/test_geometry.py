"""Christoffel symbols and covariant derivatives against closed-form oracles.

The oracle table here is written down independently (nested-sine sphere
symbols and the warped radial families), never derived from the code under
test.
"""

import math
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (Poly as _Poly, jet_add, jet_scale, jet_shift, oracle_christoffel,
                     oracle_covariant, oracle_eager_christoffel_row, oracle_eager_inverse,
                     oracle_norm)

from radwarp import geometry
from radwarp.errors import ChartSingularityError, DomainError, ProximityError, RadwarpError
from radwarp.funcspace import RadialFunction, default_families
from radwarp.geometry import (
    MIN_RADIUS,
    Frame,
    asymptotic_leading_ratio,
    christoffel_at,
    covariant_bundle,
    norm_profiles,
    pointwise_norm,
)
from radwarp.manifold import WARP_TABLE, ManifoldSpec, WarpSpec, default_point, metric_at


ALL_MANIFOLD_WARPS = [
    WarpSpec.euclidean(),
    WarpSpec.hyperbolic(),
    WarpSpec.spherical(),
    WarpSpec.tanh_cap(),
    # odd-series start of sin, positive on (0, 2.4)
    WarpSpec.custom((1.0, -1.0 / 6.0, 1.0 / 120.0), radius=2.4),
]


def _radial_identity_gap(v, m, r, k):
    """|(pure-radial component of grad^k u) - v^(k)(r)|; floating noise only."""
    _, tensors = covariant_bundle(v, m, r, k)
    lhs = tensors[k].component((1,) * k).value
    rhs = v.eval_jet(r, k).derivative(k)
    return np.abs(lhs - rhs)


class TestChristoffel:
    def test_euclidean_mixed_symbol(self):
        m = ManifoldSpec(WarpSpec.euclidean(), 2)
        gamma = christoffel_at(metric_at(m, (2.0, 0.8), order=2))
        assert float(gamma.entry(2, 1, 2).value) == pytest.approx(0.5, rel=1e-14)

    def test_hyperbolic_radial_symbol_vs_finite_difference(self):
        m = ManifoldSpec(WarpSpec.hyperbolic(), 2)
        gamma = christoffel_at(metric_at(m, (1.0, 1.3), order=2))
        val = float(gamma.entry(1, 2, 2).value)
        assert val == pytest.approx(-math.sinh(1.0) * math.cosh(1.0), rel=1e-13)
        # independent oracle: -1/2 d/dr of g_22 by central differences
        h = 1e-6
        g22 = lambda r: math.sinh(r) ** 2
        assert val == pytest.approx(-(g22(1 + h) - g22(1 - h)) / (4 * h), rel=1e-8)

    def test_zero_family_is_exactly_absent(self):
        m = ManifoldSpec(WarpSpec.hyperbolic(), 4)
        gamma = christoffel_at(metric_at(m, (1.0, 0.9, 1.1, 0.7), order=2))
        n = 4
        for k in range(1, n + 1):
            assert gamma.entry(k, 1, 1) is None  # Gamma^k_11 = 0
        for i in range(2, n + 1):
            assert gamma.entry(1, i, 1) is None  # Gamma^1_i1 = 0
            assert gamma.entry(1, 1, i) is None
        assert gamma.entry(1, 1, 1) is None

    @pytest.mark.parametrize("w", ALL_MANIFOLD_WARPS, ids=lambda w: w.kind)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_full_table_against_oracle(self, w, n):
        point = (0.9, 1.1, 0.7, 2.0, 0.6)[:n]
        m = ManifoldSpec(w, n)
        gamma = christoffel_at(metric_at(m, point, order=2))
        oracle = oracle_christoffel(w, n, point)
        for k, i, j in product(range(1, n + 1), repeat=3):
            expected = oracle.get((k, i, j), 0.0)
            entry = gamma.entry(k, i, j)
            got = float(entry.value) if entry is not None else 0.0
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-13), (k, i, j)

    def test_a_dense_diagonal_metric_gives_every_symbol(self):
        # every g_ii here depends on every coordinate, so all 2 n^2 - n symbols
        # are nonzero: more than the n (n - 1) of a warped product
        from radwarp.jets import BasePoint, jet_compose_univariate, jet_coordinate
        from radwarp.manifold import DiagonalMetric

        n, point = 3, (0.7, 1.1, 0.4)
        base = BasePoint(point)
        x = [jet_coordinate(n, 2, v, point[v - 1], base) for v in range(1, n + 1)]
        g = tuple(jet_shift(jet_add(jet_add(jet_scale(x[0], 0.5 + i), jet_scale(x[1], 0.25 * i)),
                                    jet_scale(x[2], 1.0 + 0.1 * i)), 2.0)
                  for i in range(1, n + 1))
        g_inv = tuple(jet_compose_univariate("recip", e.truncated(1)) for e in g)
        gamma = christoffel_at(DiagonalMetric(n, 2, g, base))

        def d(a, c):  # d_c g_aa
            return float(g[a - 1].derivative(tuple(int(v == c - 1) for v in range(n))))

        for k, i, j in product(range(1, n + 1), repeat=3):
            want = 0.5 * float(g_inv[k - 1].value) * ((j == k) * d(j, i) + (i == k) * d(i, j)
                                                       - (i == j) * d(i, k))
            entry = gamma.entry(k, i, j)  # None where the symbol vanishes
            got = 0.0 if entry is None else float(entry.value)
            assert got == pytest.approx(want, rel=1e-13), (k, i, j)
        assert sum(len(gamma.row(i, j)) for i in range(1, n + 1) for j in range(i, n + 1)) == 15

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("w", ALL_MANIFOLD_WARPS, ids=lambda w: w.kind)
    def test_lazy_inverses_and_rows_equal_the_eager_route_bit_for_bit(self, w, n, order):
        # inverses built on first read, and rows that form no product by an
        # exactly zero partial, give the bits of building every inverse up
        # front and forming every product; the two routes can part only
        # where an inverse overflows, where the eager one put 0 * inf = NaN
        # into a row
        rng = np.random.default_rng([n, order, ALL_MANIFOLD_WARPS.index(w)])
        r = rng.uniform(0.05, min(3.0, 0.95 * w.radius), 6)
        point = (r,) + tuple(rng.uniform(0.2, math.pi - 0.2, n - 1))
        metric = metric_at(ManifoldSpec(w, n), point, order)
        for i in range(1, n + 1):
            assert (metric.inverse_entry(i).coeffs.tobytes()
                    == oracle_eager_inverse(metric, i).coeffs.tobytes())
        # g_11 = 1 is its own recip, which the eager route stored as it was
        assert (metric.inverse_entry(1).coeffs.tobytes()
                == metric.entry(1).truncated(order - 1).coeffs.tobytes())
        metric = metric_at(ManifoldSpec(w, n), point, order)  # no inverse built yet
        gamma = christoffel_at(metric)
        for i, j in product(range(1, n + 1), repeat=2):
            row, want = gamma.row(i, j), oracle_eager_christoffel_row(metric, i, j)
            assert [alpha for alpha, _ in row] == [alpha for alpha, _ in want], (i, j)
            for (_, got), (_, coeffs) in zip(row, want):
                assert got.tobytes() == coeffs.tobytes(), (i, j)

    def test_torsion_free_symmetry(self):
        m = ManifoldSpec(WarpSpec.spherical(), 4)
        gamma = christoffel_at(metric_at(m, (1.2, 0.8, 1.9, 0.3), order=3))
        for k, i, j in product(range(1, 5), repeat=3):
            a, b = gamma.entry(k, i, j), gamma.entry(k, j, i)
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a.coeffs, b.coeffs)


class TestCovariantDerivatives:
    def test_rank1_radial_gradient(self):
        m = ManifoldSpec(WarpSpec.hyperbolic(), 3)
        r = 1.4
        point = default_point(m, r)
        _, tensors = covariant_bundle(_Poly(0.0, 0.0, 1.0), m, r, 1, angles=point[1:])
        grad = tensors[1]
        assert float(grad.component((1,)).value) == pytest.approx(2 * r, rel=1e-14)
        assert float(grad.component((2,)).value) == 0.0
        assert float(grad.component((3,)).value) == 0.0

    def test_rank2_block_structure(self):
        # second tensor: v'' on the radial slot, phi phi' gtilde v' on the
        # angular diagonal, zero elsewhere
        m = ManifoldSpec(WarpSpec.hyperbolic(), 3)
        r, t2 = 0.8, 1.1
        v = RadialFunction.gaussian(1.0)
        _, tensors = covariant_bundle(v, m, r, 2, angles=(t2, 0.4))
        h = tensors[2]
        jv = v.eval_jet(r, 2)
        d1, d2 = float(jv.derivative(1)), float(jv.derivative(2))
        phi, dphi = math.sinh(r), math.cosh(r)
        assert float(h.component((1, 1)).value) == pytest.approx(d2, rel=1e-13)
        assert float(h.component((2, 2)).value) == pytest.approx(phi * dphi * d1, rel=1e-13)
        g33 = math.sin(t2) ** 2
        assert float(h.component((3, 3)).value) == pytest.approx(phi * dphi * g33 * d1, rel=1e-13)
        for i, j in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            assert abs(float(h.component((i, j)).value)) < 1e-14

    @pytest.mark.parametrize("w", ALL_MANIFOLD_WARPS, ids=lambda w: w.kind)
    def test_pure_radial_component_is_kth_derivative(self, w):
        m = ManifoldSpec(w, 4)
        v = RadialFunction.gaussian(0.7)
        for k in (1, 2, 3, 4):
            gap = _radial_identity_gap(v, m, 0.9, k)
            dk = abs(v.eval_jet(0.9, k).derivative(k))
            assert float(gap) <= 1e-10 * max(1.0, dk)

    def test_identity_gap_examples(self):
        m3 = ManifoldSpec(WarpSpec.hyperbolic(), 3)
        assert float(_radial_identity_gap(RadialFunction.gaussian(1.0), m3, 1.0, 3)) <= 1e-10
        m4 = ManifoldSpec(WarpSpec.euclidean(), 4)
        poly = RadialFunction.polynomial_bump((1.0, 0.5, -0.25), support=4.0)
        assert float(_radial_identity_gap(poly, m4, 2.0, 4)) <= 1e-10
        # base case: rank 1 is the plain radial partial
        assert float(_radial_identity_gap(RadialFunction.linear(), m3, 0.5, 1)) == 0.0

    def test_rank_cap_and_proximity(self):
        m = ManifoldSpec(WarpSpec.euclidean(), 3)
        v = RadialFunction.gaussian()
        with pytest.raises(DomainError):
            covariant_bundle(v, m, 1.0, 5)
        with pytest.raises(ProximityError):
            covariant_bundle(v, m, 1e-8, 2)

    def test_each_rank_consumes_one_jet_order(self):
        m = ManifoldSpec(WarpSpec.hyperbolic(), 3)
        k = 4
        _, tensors = covariant_bundle(RadialFunction.gaussian(), m, 0.8, k)
        for rank, tensor in enumerate(tensors):
            assert tensor.rank == rank
            assert tensor.component((1,) * rank).order == k - rank

    def test_singular_metric_rejected(self):
        from radwarp.errors import SingularMetricError
        from radwarp.jets import BasePoint, jet_constant
        from radwarp.manifold import DiagonalMetric

        base = BasePoint((1.0, 1.0))
        zero = jet_constant(2, 2, 0.0, base)
        one = jet_constant(2, 2, 1.0, base)
        degenerate = DiagonalMetric(2, 2, (one, zero), base)
        with pytest.raises(SingularMetricError):
            christoffel_at(degenerate)

    @staticmethod
    def _radial_read(monkeypatch):
        """(metric, tensors, component lookups, metric partials, rows built)
        of reading (1, 1, 1, 1) of an N=5, rank-4 bundle; the lists keep
        recording.  Each component computed looks up one partial table,
        (dim, order of the rank below, 0-based direction); the Christoffel
        rows take their metric partials through `jet_partial`."""
        from radwarp.geometry import ChristoffelTable

        m = ManifoldSpec(WarpSpec.hyperbolic(), 5)
        lookups, partials, rows = [], [], []
        table, partial, row = geometry.partial_table, geometry.jet_partial, ChristoffelTable._row
        monkeypatch.setattr(geometry, "partial_table", lambda *a: lookups.append(a) or table(*a))
        monkeypatch.setattr(geometry, "jet_partial", lambda *a: partials.append(a) or partial(*a))
        monkeypatch.setattr(ChristoffelTable, "_row",
                            lambda self, i, j: rows.append((i, j)) or row(self, i, j))
        metric, tensors = covariant_bundle(RadialFunction.gaussian(), m,
                                           np.array([0.5, 1.5]), 4)
        tensors[4].component((1, 1, 1, 1))
        return metric, tensors, lookups, partials, rows

    def test_reading_the_radial_component_computes_nothing_else(self, monkeypatch):
        # Gamma^a_11 vanishes, so (1,...,1) at rank 4 needs only (1,...,1) at
        # ranks 1..3: one radial partial each, rank 4 first as the recursion
        # descends; and of the Christoffel symbols only the row of (1, 1),
        # which takes partials of g_11 alone
        metric, tensors, lookups, partials, _ = self._radial_read(monkeypatch)
        assert lookups == [(5, 1, 0), (5, 2, 0), (5, 3, 0), (5, 4, 0)]
        assert [list(t._memo) for t in tensors] == [[(1,) * j] for j in range(5)]
        assert all(a[0] is metric.entry(1) for a in partials)
        made = len(lookups), len(partials)
        tensors[4].component((1, 1, 1, 1))
        assert (len(lookups), len(partials)) == made
        with pytest.raises(DomainError):
            tensors[4].component((1, 1, 1, 6))

    def test_radial_read_builds_only_the_radial_christoffel_row(self, monkeypatch):
        # the row of (1, 1) is Gamma^1_11 = 1/2 g^11 d_1 g_11 and Gamma^a_11 =
        # -1/2 g^aa d_a g_11 (a > 1): it takes d_a g_11 for a = 1..5 in
        # ascending a, and no other row is built
        metric, _, _, partials, rows = self._radial_read(monkeypatch)
        assert [(a[0] is metric.entry(1), a[1]) for a in partials] == [
            (True, 1), (True, 2), (True, 3), (True, 4), (True, 5)]
        assert rows == [(1, 1)]

    def test_full_read_builds_no_jet_in_the_recursion(self, monkeypatch):
        # the recursion runs on coefficient arrays: once the Christoffel rows
        # exist, the norms of an N=5, k=4 bundle compute all 780 components,
        # each once, and construct no Jet
        from radwarp.jets import Jet

        m = ManifoldSpec(WarpSpec.euclidean(), 5)
        v, r = RadialFunction.gaussian(), np.linspace(0.1, 3.0, 256)
        metric, tensors = covariant_bundle(v, m, r, 4)
        for i, j in product(range(1, 6), repeat=2):
            tensors[4]._gamma.row(i, j)
        built = []
        post_init = Jet.__post_init__
        monkeypatch.setattr(Jet, "__post_init__", lambda jet: built.append(jet) or post_init(jet))
        norms = np.stack([pointwise_norm(t, metric) for t in tensors])
        assert built == []
        assert [len(t._memo) for t in tensors] == [1, 5, 25, 125, 625]
        assert [{c.shape for c in t._memo.values()} for t in tensors] == [
            {(256, math.comb(9 - j, 4 - j))} for j in range(5)]
        monkeypatch.undo()
        fresh_metric, fresh = covariant_bundle(v, m, r, 4)
        assert norms.tobytes() == np.stack([pointwise_norm(t, fresh_metric)
                                            for t in fresh]).tobytes()

    def test_leading_ratio_computes_only_its_closure(self, monkeypatch):
        # asymptotic_leading reads (1, 1, 2, 2) at N = 4, k = 4: the recursion
        # computes that component's rest and each factor its Christoffel rows
        # name, down to rank 0, and nothing else
        bundles, bundle = [], geometry.covariant_bundle
        monkeypatch.setattr(geometry, "covariant_bundle",
                            lambda *a, **kw: bundles.append(bundle(*a, **kw)) or bundles[-1])
        asymptotic_leading_ratio(ManifoldSpec(WarpSpec.hyperbolic(), 4), 4, 0.01)
        (_, tensors), = bundles
        gamma = tensors[4]._gamma
        want = [set() for _ in tensors]

        def read(idx):
            if idx in want[len(idx)]:
                return
            want[len(idx)].add(idx)
            if idx:
                first, rest = idx[0], idx[1:]
                read(rest)
                for s, i in enumerate(rest):
                    for alpha, _ in gamma.row(first, i):
                        read(rest[:s] + (alpha,) + rest[s + 1 :])

        read((1, 1, 2, 2))
        assert [set(t._memo) for t in tensors] == want
        assert [len(w) for w in want] == [1, 2, 1, 1, 1]


class TestPointwiseNorm:
    def test_rank1_is_abs_derivative(self):
        m = ManifoldSpec(WarpSpec.spherical(), 4)
        v = RadialFunction.power_decay(1.0)
        r = 1.1
        metric, tensors = covariant_bundle(v, m, r, 1)
        got = float(pointwise_norm(tensors[1], metric))
        assert got == pytest.approx(abs(float(v.eval_jet(r, 1).derivative(1))), rel=1e-13)

    def test_rank0_is_abs_value(self):
        m = ManifoldSpec(WarpSpec.euclidean(), 2)
        v = RadialFunction.gaussian()
        metric, tensors = covariant_bundle(v, m, 0.7, 0)
        assert float(pointwise_norm(tensors[0], metric)) == pytest.approx(
            float(v.values(0.7)), rel=1e-14
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_euclidean_hessian_of_half_square(self, n):
        # u = |x|^2 / 2 has Cartesian Hessian = identity; its Frobenius norm
        # is the oracle for the polar-coordinate computation
        m = ManifoldSpec(WarpSpec.euclidean(), n)
        v = _Poly(0.0, 0.0, 0.5)
        metric, tensors = covariant_bundle(v, m, 1.7, 2)
        oracle = float(np.linalg.norm(np.eye(n)))
        assert float(pointwise_norm(tensors[2], metric)) == pytest.approx(oracle, rel=1e-12)

    def test_angle_independence(self):
        m = ManifoldSpec(WarpSpec.hyperbolic(), 4)
        v = RadialFunction.gaussian(1.0)
        r = np.array([0.4, 1.0, 2.3])
        angle_sets = [(math.pi / 2, math.pi / 2, math.pi / 2),
                      (0.7, 1.9, 0.3),
                      (2.1, 0.5, 2.8)]
        profiles = [norm_profiles(v, m, r, 3, angles=a) for a in angle_sets]
        for other in profiles[1:]:
            np.testing.assert_allclose(other, profiles[0], rtol=1e-8)

    def test_gradient_inequality_margins(self):
        r = np.geomspace(0.05, 3.0, 64)
        for w in ALL_MANIFOLD_WARPS:
            hi = min(3.0, w.radius * 0.95)
            rr = r[r < hi]
            m = ManifoldSpec(w, 3)
            for v in (RadialFunction.gaussian(1.0), RadialFunction.log_profile(5.0)):
                profiles = norm_profiles(v, m, rr, 3)
                for j in range(4):
                    target = np.abs(v.eval_jet(rr, j).derivative(j))
                    assert np.all(profiles[j] - target >= -1e-10)

    def test_batch_matches_pointwise(self):
        m = ManifoldSpec(WarpSpec.tanh_cap(), 3)
        v = RadialFunction.gaussian(0.5)
        rr = np.array([0.3, 0.9, 1.8])
        batch = norm_profiles(v, m, rr, 2)
        for i, r in enumerate(rr):
            single = norm_profiles(v, m, float(r), 2)
            np.testing.assert_allclose(batch[:, i], single, rtol=1e-13)


class TestAsymptoticLeading:
    def test_rank2_is_exactly_one(self):
        for w in ALL_MANIFOLD_WARPS:
            m = ManifoldSpec(w, 3)
            for r in (1e-2, 0.5, 1.0):
                assert asymptotic_leading_ratio(m, 2, r) == pytest.approx(1.0, abs=1e-12)

    def test_rank3_hyperbolic(self):
        m = ManifoldSpec(WarpSpec.hyperbolic(), 3)
        assert asymptotic_leading_ratio(m, 3, 1e-3) == pytest.approx(-1.0, rel=1e-2)

    def test_rank4_euclidean(self):
        m = ManifoldSpec(WarpSpec.euclidean(), 4)
        assert asymptotic_leading_ratio(m, 4, 1e-3) == pytest.approx(2.0, rel=1e-2)

    def test_euclidean_rank3_exact(self):
        # flat case: the expansion terminates, ratio is exactly -1 at any r
        m = ManifoldSpec(WarpSpec.euclidean(), 3)
        assert asymptotic_leading_ratio(m, 3, 0.75) == pytest.approx(-1.0, abs=1e-13)

    def test_rank_guard(self):
        m = ManifoldSpec(WarpSpec.euclidean(), 3)
        with pytest.raises(DomainError):
            asymptotic_leading_ratio(m, 1, 0.1)


@settings(max_examples=25, deadline=None)
@given(
    c3=st.floats(min_value=-0.1, max_value=0.3),
    c5=st.floats(min_value=0.0, max_value=0.05),
    a=st.floats(min_value=0.3, max_value=2.0),
    r=st.floats(min_value=0.05, max_value=1.4),
    n=st.integers(2, 4),
)
def test_identity_and_inequality_fuzz_over_custom_warps(c3, c5, a, r, n):
    # 1 + c3 r^2 + c5 r^4 stays positive on (0, 1.5) for these ranges
    w = WarpSpec.custom((1.0, c3, c5), radius=1.5)
    m = ManifoldSpec(w, n)
    v = RadialFunction.gaussian(a)
    metric, tensors = covariant_bundle(v, m, r, 3)
    vjet = v.eval_jet(r, 3)
    for k in (1, 2, 3):
        lhs = float(tensors[k].component((1,) * k).value)
        rhs = float(vjet.derivative(k))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        assert float(pointwise_norm(tensors[k], metric)) >= abs(rhs) - 1e-10


# float.hex of the dense norms `pointwise_norm` (ranks 0..4) and of the
# (1,...,1) components (ranks 1..4) for gaussian(a=1) at r = 0.25, 1.1, 2.7:
# which components are computed, in what order and at what jet order must
# not move a single bit
PINNED_PROFILES = {
    ("euclidean", 5): [
        ["0x1.e0fabfbc702a4p-1", "0x1.315aa0aba1521p-2", "0x1.65bc855fb5068p-11"],
        ["0x1.e0fabfbc702a4p-2", "0x1.4fe3b0bccb0d8p-1", "0x1.e2f1b40e012f3p-9"],
        ["0x1.067f90ab88b27p+2", "0x1.767dd45291095p+0", "0x1.32e76adf54c2fp-6"],
        ["0x1.0ea7c32131950p+2", "0x1.26f018a83df07p+2", "0x1.6cd5cd27f2f6ap-4"],
        ["0x1.25c86ef6a92ecp+5", "0x1.d74f1f28d6b06p+3", "0x1.941b3cc47ca98p-2"],
    ],
    ("hyperbolic", 5): [
        ["0x1.e0fabfbc702a4p-1", "0x1.315aa0aba1521p-2", "0x1.65bc855fb5068p-11"],
        ["0x1.e0fabfbc702a4p-2", "0x1.4fe3b0bccb0d8p-1", "0x1.e2f1b40e012f3p-9"],
        ["0x1.0b13b06a2b328p+2", "0x1.d84cb98ed1485p+0", "0x1.4728d8e16ed5cp-6"],
        ["0x1.16cb93d276996p+2", "0x1.a583ec5017ecbp+2", "0x1.ce0627ca60b4cp-4"],
        ["0x1.35d7e52159a58p+5", "0x1.93692019e02e5p+4", "0x1.60890f4623444p-1"],
    ],
    ("tanh_cap", 4): [
        ["0x1.e0fabfbc702a4p-1", "0x1.315aa0aba1521p-2", "0x1.65bc855fb5068p-11"],
        ["0x1.e0fabfbc702a4p-2", "0x1.4fe3b0bccb0d8p-1", "0x1.e2f1b40e012f3p-9"],
        ["0x1.c3b042574e050p+1", "0x1.fa1fc859a4015p-1", "0x1.2fa278b864ed5p-6"],
        ["0x1.01a45b2b98d47p+2", "0x1.1fc141f118a76p+1", "0x1.5d9017392e167p-4"],
        ["0x1.da07a4732d84ep+4", "0x1.199589f484bd4p+3", "0x1.661fe6b117caap-2"],
    ],
    ("spherical", 6): [
        ["0x1.e0fabfbc702a4p-1", "0x1.315aa0aba1521p-2", "0x1.65bc855fb5068p-11"],
        ["0x1.e0fabfbc702a4p-2", "0x1.4fe3b0bccb0d8p-1", "0x1.e2f1b40e012f3p-9"],
        ["0x1.1b7f695104c8bp+2", "0x1.2106821928eb3p+0", "0x1.a0ceced619fedp-6"],
        ["0x1.23d40b4d3059cp+2", "0x1.bd16b2805bf16p+1", "0x1.e8fd802fdcf41p-4"],
        ["0x1.554b6cff26ef9p+5", "0x1.7046a8b217fddp+3", "0x1.7a9a4164275b6p-1"],
    ],
}
# the pure-radial components are v^(k)(r) for every warp, since Gamma^a_11 = 0
PINNED_RADIAL = [
    ["-0x1.e0fabfbc702a4p-2", "-0x1.4fe3b0bccb0d8p-1", "-0x1.e2f1b40e012f3p-9"],
    ["-0x1.a4db67c4e2250p+0", "0x1.b19a4a8d50989p-1", "0x1.2fa0f799df15ep-6"],
    ["0x1.59b439cf709e6p+1", "0x1.85a1b88914801p-1", "-0x1.5d87e48df9d14p-4"],
    ["0x1.106e0699bb87fp+3", "-0x1.b059caa9487c0p+2", "0x1.66017e192a65ap-2"],
]


@pytest.mark.parametrize("kind, n", sorted(PINNED_PROFILES))
def test_rank4_values_are_pinned_bit_for_bit(kind, n):
    m = ManifoldSpec(getattr(WarpSpec, kind)(), n)
    v = RadialFunction.gaussian(1.0)
    r = np.array([0.25, 1.1, 2.7])
    metric, tensors = covariant_bundle(v, m, r, 4)
    norms = [pointwise_norm(t, metric) for t in tensors]
    assert [[float(x).hex() for x in row] for row in norms] == PINNED_PROFILES[(kind, n)]
    _, tensors = covariant_bundle(v, m, r, 4)  # read one component at a time
    radial = [[float(x).hex() for x in tensors[j].component((1,) * j).value] for j in range(1, 5)]
    assert radial == PINNED_RADIAL


ORACLE_PROFILES = (RadialFunction.gaussian(0.7), RadialFunction.power_decay(1.5),
                   _Poly(0.0, 0.0, 0.5))  # |x|^2 / 2: many components exactly zero
ANGLES = (2.1, 0.5, 2.8, 0.7, 1.9)


@settings(max_examples=40, deadline=None)
@given(
    w=st.sampled_from(ALL_MANIFOLD_WARPS),
    n=st.integers(2, 6),
    k=st.integers(0, 4),
    size=st.sampled_from([None, 1, 15, 256]),
    lo=st.floats(min_value=0.05, max_value=1.0),
    v=st.sampled_from(ORACLE_PROFILES),
    angled=st.booleans(),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
)
@example(w=ALL_MANIFOLD_WARPS[0], n=5, k=4, size=256, lo=0.1, v=ORACLE_PROFILES[0], angled=False,
         picks=[])
@example(w=ALL_MANIFOLD_WARPS[1], n=2, k=0, size=None, lo=0.6, v=ORACLE_PROFILES[1], angled=True,
         picks=[])
@example(w=ALL_MANIFOLD_WARPS[2], n=6, k=4, size=15, lo=0.3, v=ORACLE_PROFILES[2], angled=True,
         picks=[])
@example(w=ALL_MANIFOLD_WARPS[3], n=3, k=1, size=1, lo=0.9, v=ORACLE_PROFILES[0], angled=False,
         picks=[])
@example(w=ALL_MANIFOLD_WARPS[4], n=4, k=2, size=256, lo=0.05, v=ORACLE_PROFILES[1], angled=True,
         picks=[])
@example(w=ALL_MANIFOLD_WARPS[1], n=6, k=3, size=None, lo=0.2, v=ORACLE_PROFILES[2], angled=False,
         picks=[])
# ranks 2..4 of an N=5 bundle half read, one pure-radial component among them
@example(w=ALL_MANIFOLD_WARPS[1], n=5, k=4, size=15, lo=0.2, v=ORACLE_PROFILES[0], angled=True,
         picks=[4 + 5 * 0, 3 + 5 * 7, 2 + 5 * 13, 4 + 5 * 624, 3 + 5 * 60])
def test_components_and_norms_equal_the_jet_recursion_bit_for_bit(w, n, k, size, lo, v, angled,
                                                                   picks):
    m = ManifoldSpec(w, n)
    hi = min(3.0, 0.95 * w.radius)
    r = lo if size is None else np.linspace(lo, hi, size)
    angles = ANGLES[: n - 1] if angled else None
    oracle_metric, ranks = oracle_covariant(v, m, r, k, angles)
    # components read one by one first (a pick p reads rank p mod (k + 1)),
    # so the norms below find ranks partly computed
    metric, tensors = covariant_bundle(v, m, r, k, angles)
    for p in picks:
        j = p % (k + 1)
        idx = list(ranks[j])[p // (k + 1) % n**j]
        assert tensors[j].component(idx).coeffs.tobytes() == ranks[j][idx].coeffs.tobytes()
    for j, comps in enumerate(ranks):
        want = oracle_norm(comps, oracle_metric)
        got = pointwise_norm(tensors[j], metric)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), j
    fresh_metric, fresh = covariant_bundle(v, m, r, k, angles)  # read one component at a time
    for j, comps in enumerate(ranks):
        for idx, want in comps.items():
            got = fresh[j].component(idx)
            assert (got.order, got.coeffs.shape) == (want.order, want.coeffs.shape), (j, idx)
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), (j, idx)
    for j, comps in enumerate(ranks):  # the norms of ranks filled one component at a time
        want = oracle_norm(comps, oracle_metric)
        got = pointwise_norm(fresh[j], fresh_metric)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), j


# r = 20 on an unbounded warp: gaussian(1) has v' = -40 exp(-400) = -7.7e-173
# there, whose square underflows to 0 in the tensor norm and in the jet rows alike
UNDERFLOW_R = 20.0


@settings(max_examples=60, deadline=None)
@given(
    w=st.sampled_from(ALL_MANIFOLD_WARPS),
    n=st.integers(2, 6),
    k=st.integers(0, 4),
    size=st.sampled_from([None, 1, 15, 256]),
    lo=st.floats(min_value=0.01, max_value=1.0),
    family=st.integers(0, 4),
    angled=st.booleans(),
)
@example(w=ALL_MANIFOLD_WARPS[0], n=3, k=1, size=None, lo=UNDERFLOW_R, family=0, angled=False)
@example(w=ALL_MANIFOLD_WARPS[1], n=5, k=4, size=None, lo=UNDERFLOW_R, family=0, angled=True)
@example(w=ALL_MANIFOLD_WARPS[3], n=2, k=0, size=None, lo=UNDERFLOW_R, family=0, angled=False)
@example(w=ALL_MANIFOLD_WARPS[1], n=4, k=2, size=256, lo=0.01, family=0, angled=False)
@example(w=ALL_MANIFOLD_WARPS[2], n=6, k=1, size=15, lo=0.5, family=2, angled=True)
@example(w=ALL_MANIFOLD_WARPS[4], n=2, k=3, size=1, lo=0.2, family=4, angled=False)
def test_rank0_and_rank1_rows_equal_the_dense_norms_bit_for_bit(w, n, k, size, lo, family,
                                                                angled):
    # |u| = |v| and |grad u|_g = sqrt(v'^2) hold exactly: the rows computed
    # from v's jet equal the norms of the dense tensors in every bit
    m = ManifoldSpec(w, n)
    v = default_families(w.radius)[family]
    hi = min(25.0, 0.95 * w.radius)
    r = min(lo, 0.9 * hi) if size is None else np.linspace(min(lo, 0.5 * hi), hi, size)
    angles = ANGLES[: n - 1] if angled else None
    metric, tensors = covariant_bundle(v, m, r, k, angles)
    profiles = norm_profiles(v, m, r, k, angles)
    for j in range(min(k, 1) + 1):
        want = np.broadcast_to(pointwise_norm(tensors[j], metric), np.shape(r))
        assert np.asarray(profiles[j]).tobytes() == np.asarray(want).tobytes(), j


def _dense_norms(v, m, r, k, angles=None):
    """`pointwise_norm` of every rank of `covariant_bundle`: the dense route."""
    metric, tensors = covariant_bundle(v, m, r, k, angles)
    return np.stack([np.broadcast_to(pointwise_norm(t, metric), np.shape(r)) for t in tensors])


def _pattern_tol(r):
    """How far the pattern and dense routes may part, relative: both lose
    digits to the 1/r cancellation of psi = phi'/phi near the origin."""
    return np.where(r >= 0.1, 1e-13, np.where(r >= 0.01, 1e-11, 1e-9))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("w", ALL_MANIFOLD_WARPS[:4], ids=lambda w: w.kind)
def test_pattern_rows_agree_with_the_dense_norms(w, n):
    m = ManifoldSpec(w, n)
    r = np.geomspace(1e-3, min(3.0, 0.95 * w.radius), 40)
    for v in default_families(w.radius):
        got, want = norm_profiles(v, m, r, 4), _dense_norms(v, m, r, 4)
        assert np.all(np.abs(got - want) <= _pattern_tol(r) * want), v.label


@settings(max_examples=40, deadline=None)
@given(
    w=st.sampled_from(ALL_MANIFOLD_WARPS),
    n=st.integers(2, 6),
    k=st.integers(2, 4),
    family=st.integers(0, 4),
    lo=st.floats(min_value=1e-3, max_value=1.0),
    size=st.sampled_from([None, 1, 15]),
    angled=st.booleans(),
)
@example(w=ALL_MANIFOLD_WARPS[4], n=6, k=4, family=2, lo=1e-3, size=15, angled=True)
def test_pattern_rows_agree_with_the_dense_norms_fuzz(w, n, k, family, lo, size, angled):
    m = ManifoldSpec(w, n)
    v = default_families(w.radius)[family]
    hi = min(3.0, 0.95 * w.radius)
    r = lo if size is None else np.geomspace(lo, hi, size)
    angles = ANGLES[: n - 1] if angled else None
    got, want = norm_profiles(v, m, r, k, angles), _dense_norms(v, m, r, k, angles)
    assert np.all(np.abs(got - want) <= _pattern_tol(np.asarray(r)) * want)


# psi = phi'/phi of each warp kind, and the families, in mpmath
MP_PSI = {"euclidean": lambda t: 1 / t, "hyperbolic": mpmath.coth, "spherical": mpmath.cot,
          "tanh_cap": lambda t: 1 / (mpmath.sinh(t) * mpmath.cosh(t))}
MP_FAMILIES = {
    "gaussian": lambda v, t: mpmath.exp(-v.param("a") * t**2),
    "power_decay": lambda v, t: (1 + t**2) ** -v.param("a"),
    "polynomial_bump": lambda v, t: (sum(c * t**i for i, c in enumerate(v.bump_coeffs()))
                                     * mpmath.exp(1 - 1 / (1 - (t / v.param("support")) ** 2))),
    "log_profile": lambda v, t: (mpmath.log(v.param("r_ref"))
                                 - mpmath.log(v.param("delta") ** 2 + t**2) / 2),
    "linear": lambda v, t: t,
}


def _mp_norms(v, kind: str, n: int, r: float) -> list:
    """|grad^j u|_g for j = 2, 3, 4 at the float r, in 50 digits.

    Written out by hand from grad dr = psi h and grad_a h_bc = -psi (h_ab dr_c
    + h_ac dr_b), h = g - dr (x) dr, |h|^2 = N - 1 = m:
      rank 2: v'' on dr dr, psi v' on h;
      rank 3: v''' on dr dr dr, b = psi v'' - psi^2 v' on h_01 dr_2 and on
              h_02 dr_1, c = (psi v')' on dr_0 h_12;
      rank 4: v'''' on four dr, psi (v''' - 2b) on h_01 dr_2 dr_3, psi (v'''
              - b - c) on h_02 dr_1 dr_3 and on h_03 dr_1 dr_2, b' on dr_0
              h_12 dr_3 and on dr_0 h_13 dr_2, c' on dr_0 dr_1 h_23, psi b on
              h_03 h_12 and on h_02 h_13, psi c on h_01 h_23.
    """
    with mpmath.workdps(50):
        t, m = mpmath.mpf(r), n - 1
        fac = mpmath.factorial
        d = [x * fac(i) for i, x in enumerate(mpmath.taylor(
            lambda s: MP_FAMILIES[v.family](v, s), t, 4))]
        psi, dpsi, ddpsi = [x * fac(i) for i, x in enumerate(mpmath.taylor(MP_PSI[kind], t, 2))]
        b, c = psi * d[2] - psi**2 * d[1], dpsi * d[1] + psi * d[2]
        db = dpsi * d[2] + psi * d[3] - 2 * psi * dpsi * d[1] - psi**2 * d[2]
        dc = ddpsi * d[1] + 2 * dpsi * d[2] + psi * d[3]
        squares = [
            d[2] ** 2 + m * (psi * d[1]) ** 2,
            d[3] ** 2 + m * (2 * b**2 + c**2),
            d[4] ** 2 + m * (psi**2 * ((d[3] - 2 * b) ** 2 + 2 * (d[3] - b - c) ** 2)
                             + 2 * db**2 + dc**2)
            + m * (m - 1) * psi**2 * (2 * b**2 + c**2) + m * psi**2 * (2 * b + c) ** 2,
        ]
        return [mpmath.sqrt(x) for x in squares]


@pytest.mark.parametrize("r, tol", [(1e-3, 1e-9), (0.01, 1e-11), (0.1, 1e-13), (1.0, 1e-14)])
@pytest.mark.parametrize("w", ALL_MANIFOLD_WARPS[:4], ids=lambda w: w.kind)
def test_pattern_rows_against_fifty_digits(w, r, tol):
    for n, v in product(range(2, 7), default_families(w.radius)):
        got = norm_profiles(v, ManifoldSpec(w, n), r, 4)[2:]
        want = _mp_norms(v, w.kind, n, r)
        for j, (x, y) in enumerate(zip(got, want), start=2):
            assert abs(x - y) <= tol * y, (n, v.label, j)


@settings(max_examples=60, deadline=None)
@given(
    w=st.sampled_from(ALL_MANIFOLD_WARPS),
    j=st.integers(2, 4),
    family=st.integers(0, 4),
    r=st.floats(min_value=1e-3, max_value=3.0),
)
def test_squared_rows_are_polynomials_in_the_sphere_dimension(w, j, family, r):
    # |grad^j u|_g^2 has degree floor(j/2) in m = N - 1: the coefficients of
    # the patterns do not depend on m, and each h pair traces to a factor m;
    # so over m = 1..5 its differences of order floor(j/2) + 1 vanish to
    # rounding (every term is >= 0, so rounding is relative to the sum)
    r = np.array([min(r, 0.95 * w.radius)])
    v = default_families(w.radius)[family].eval_jet(r, j).coeffs
    psi = np.stack(WARP_TABLE[w.kind].psi(w, r, j - 2), axis=-1)
    squares = np.array([geometry._pattern_norms(v, psi, float(m))[-1][0] ** 2
                        for m in range(1, 6)])
    assert np.all(np.abs(np.diff(squares, n=j // 2 + 1)) <= 1e-13 * squares.max())


@settings(max_examples=60, deadline=None)
@given(
    w=st.sampled_from(ALL_MANIFOLD_WARPS),
    n=st.integers(2, 6),
    k=st.integers(0, 4),
    family=st.integers(0, 4),
    lo=st.floats(min_value=1e-3, max_value=1.0),
    size=st.sampled_from([None, 1, 256]),
)
@example(w=ALL_MANIFOLD_WARPS[1], n=5, k=4, family=0, lo=UNDERFLOW_R, size=None)
def test_rows_bound_the_radial_derivatives_exactly(w, n, k, family, lo, size):
    # the fold starts from v^(j)^2 and adds terms >= 0, so no rounding takes a
    # row below |v^(j)|, wherever v^(j)^2 does not underflow
    v = default_families(w.radius)[family]
    hi = min(25.0, 0.95 * w.radius)
    r = min(lo, 0.9 * hi) if size is None else np.linspace(min(lo, 0.5 * hi), hi, size)
    profiles = norm_profiles(v, ManifoldSpec(w, n), r, k)
    vjet = v.eval_jet(r, k)
    for j in range(k + 1):
        d = vjet.derivative(j)
        assert np.all((profiles[j] >= np.abs(d)) | (d * d < np.finfo(float).tiny)), j


def test_underflowing_gradient_reads_zero():
    m = ManifoldSpec(WarpSpec.hyperbolic(), 3)
    v = RadialFunction.gaussian(1.0)
    assert 0.0 < abs(float(v.eval_jet(UNDERFLOW_R, 1).derivative(1))) < 1e-170
    for k in (1, 2):
        assert norm_profiles(v, m, UNDERFLOW_R, k)[1] == 0.0


class TestFrame:
    M = ManifoldSpec(WarpSpec.hyperbolic(), 4)
    R = np.linspace(0.2, 2.5, 15)
    FAMILIES = (RadialFunction.gaussian(0.7), RadialFunction.power_decay(1.5),
                RadialFunction.log_profile(10.0))

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    @pytest.mark.parametrize("angles", [None, (2.1, 0.5, 2.8)])
    def test_shared_frame_gives_the_fresh_tensors(self, k, angles):
        frame = Frame(self.M, self.R, k, angles)
        for v in self.FAMILIES:
            shared_metric, shared = frame.bundle(v)
            metric, fresh = covariant_bundle(v, self.M, self.R, k, angles)
            assert shared_metric is frame.metric
            for a, b in zip(shared, fresh):
                for idx in product(range(1, 5), repeat=a.rank):
                    assert a.component(idx).coeffs.tobytes() == b.component(idx).coeffs.tobytes()
            assert (frame.norm_profiles(v).tobytes()
                    == norm_profiles(v, self.M, self.R, k, angles).tobytes())

    @pytest.mark.parametrize("r, k, angles", [
        (0.0, 1, None),                    # at the origin
        (np.array([0.5, 0.0]), 0, None),   # one batch point there
        (math.pi, 1, None),                # at R
        (4.0, 0, None),                    # past R
        (1.0, -1, None),                   # no such rank
        (1.0, 5, None),                    # past MAX_RANK
        (1.0, 1, (0.5, 0.5)),              # too few angles
        (1.0, 0, (0.5, 0.5, 0.5, 0.5)),    # too many
        (1.0, 1, (0.0, 0.5, 0.5)),         # sin(theta_2) = 0
        (np.array([0.5, 1.0]), 0, (0.5, math.pi, 0.5)),  # sin(theta_3) = 0
        # a non-finite point is outside the domain, wherever it sits
        (math.nan, 2, None),
        (np.array([0.5, math.nan]), 1, None),
        (1.0, 2, (math.nan, 0.5, 0.5)),    # theta_2 weighs g_33 and g_44
        (1.0, 0, (math.inf, 0.5, 0.5)),
        (1.0, 1, (0.5, 0.5, math.nan)),    # theta_4 weighs nothing
    ])
    def test_rank0_and_rank1_rows_raise_as_the_dense_route(self, r, k, angles):
        # the jet rows build no metric, yet reject what metric_at rejects,
        # with the exception classes the dense route raises
        m = ManifoldSpec(WarpSpec.spherical(), 4)
        v = RadialFunction.gaussian()

        def raised(fn, *args):
            with pytest.raises(RadwarpError) as info:
                fn(*args)
            return type(info.value)

        dense = raised(covariant_bundle, v, m, r, k, angles)
        assert dense in (DomainError, ProximityError, ChartSingularityError)
        assert raised(norm_profiles, v, m, r, k, angles) is dense
        assert raised(Frame, m, r, k, angles) is dense
        if not np.all(np.isfinite(np.append(r, angles or ()))):
            assert dense is DomainError

    @pytest.mark.parametrize("r", [MIN_RADIUS / 2, np.array([0.5, MIN_RADIUS / 2]), 1e-60])
    def test_only_the_dense_route_keeps_the_proximity_floor(self, r):
        # the norm rows read v and psi, finite at every r > 0; the metric,
        # the Christoffel rows and the bundle stop at MIN_RADIUS
        m = ManifoldSpec(WarpSpec.spherical(), 4)
        v = RadialFunction.polynomial_bump((1.0, 0.5), 2.0)
        frame = Frame(m, r, 2)
        rows = norm_profiles(v, m, r, 2)
        assert np.all(np.isfinite(rows)) and frame.norm_profiles(v).tobytes() == rows.tobytes()
        for read in (lambda: frame.metric, lambda: frame.gamma, lambda: frame.bundle(v),
                     lambda: covariant_bundle(v, m, r, 0)):
            with pytest.raises(ProximityError):
                read()
        if np.ndim(r) == 0:
            with pytest.raises(ProximityError):
                asymptotic_leading_ratio(m, 3, r)

    def test_low_rank_rows_build_no_geometry(self, monkeypatch):
        built = []
        monkeypatch.setattr(geometry, "metric_at", lambda *a, **kw: built.append(a))
        monkeypatch.setattr(geometry, "covariant_bundle", lambda *a, **kw: built.append(a))
        for k in (0, 1):
            norm_profiles(RadialFunction.gaussian(), self.M, self.R, k)
            Frame(self.M, self.R, k).norm_profiles(RadialFunction.gaussian())
        assert built == []

    # identity reads only the pure-radial components, so only the row of (1, 1);
    # the norms of gradient_inequality read v and psi alone: no metric, no
    # Christoffel row and no bundle
    @pytest.mark.parametrize("kind, k, n_metrics, n_rows, n_bundles",
                             [("identity", 3, 1, 1, 5), ("gradient_inequality", 2, 0, 0, 0)])
    def test_grid_check_builds_one_metric_and_each_christoffel_row_once(
            self, kind, k, n_metrics, n_rows, n_bundles, monkeypatch):
        from radwarp.geometry import ChristoffelTable
        from radwarp.verify import CheckSpec, GridSpec, run_check

        metrics, rows, bundles = [], [], []
        metric_at_, row_ = geometry.metric_at, ChristoffelTable._row
        bundle_ = geometry.covariant_bundle
        monkeypatch.setattr(geometry, "metric_at",
                            lambda *a, **kw: metrics.append(a) or metric_at_(*a, **kw))
        monkeypatch.setattr(ChristoffelTable, "_row",
                            lambda self, i, j: rows.append((i, j)) or row_(self, i, j))
        # each family's bundle still passes through the module function,
        # where the benchmark tracer times it
        monkeypatch.setattr(geometry, "covariant_bundle",
                            lambda *a, **kw: bundles.append(a) or bundle_(*a, **kw))
        spec = CheckSpec(kind=kind, manifold=self.M, k=k, grid=GridSpec(n=24))
        assert len(spec.families) == 5
        assert run_check(spec).verdict == "pass"
        assert len(metrics) == n_metrics
        assert len(rows) == len(set(rows)) == n_rows
        assert len(bundles) == n_bundles

    def test_identity_composes_no_recip_and_forms_no_radial_product(self, monkeypatch):
        # identity reads only the row of (1, 1), whose terms take partials of
        # g_11 = 1, all exactly zero: no product, so no inverse and no recip
        from radwarp import manifold
        from radwarp.geometry import ChristoffelTable
        from radwarp.verify import CheckSpec, GridSpec, run_check

        composed, products, rows = [], [], {}
        compose, mul, row_ = manifold.jet_compose_univariate, geometry.jet_mul, ChristoffelTable._row
        monkeypatch.setattr(manifold, "jet_compose_univariate",
                            lambda f, *a: composed.append(f) or compose(f, *a))
        monkeypatch.setattr(geometry, "jet_mul", lambda *a: products.append(a) or mul(*a))
        monkeypatch.setattr(ChristoffelTable, "_row",
                            lambda self, i, j: rows.setdefault((i, j), row_(self, i, j)))
        spec = CheckSpec(kind="identity", manifold=ManifoldSpec(WarpSpec.hyperbolic(), 5), k=4,
                         grid=GridSpec(n=24))
        assert run_check(spec).verdict == "pass"
        assert composed == ["sin"] * 3  # the metric's nested sines, theta_2 .. theta_4
        assert products == []
        assert rows == {(1, 1): ()}

    @pytest.mark.parametrize("kind, k", [("identity", 4), ("gradient_inequality", 4)])
    def test_grid_check_evaluates_each_family_once(self, kind, k, monkeypatch):
        from radwarp.verify import CheckSpec, GridSpec, run_check

        labels, eval_jet = [], RadialFunction.eval_jet
        monkeypatch.setattr(RadialFunction, "eval_jet",
                            lambda v, *a: labels.append(v.label) or eval_jet(v, *a))
        spec = CheckSpec(kind=kind, manifold=self.M, k=k, grid=GridSpec(n=24))
        assert run_check(spec).verdict == "pass"
        assert sorted(labels) == sorted(f.label for f in spec.families)
        assert len(set(labels)) == 5
