"""Christoffel symbols and exact covariant derivatives of radial functions.

The Christoffel symbols come from the diagonal metric jets via the general
formula Gamma^k_ij = (1/2) g^kk (d_i g_jk + d_j g_ik - d_k g_ij), which for a
diagonal metric collapses to four short cases; the closed forms are test
oracles, never trusted inputs.

The j-fold covariant derivative of a radial function u(x) = v(r) is built by
the tensor recursion

    (T^{j+1})_{i1 i2...} = d_{i1} (T^j)_{i2...}
                           - sum_l sum_a Gamma^a_{i1 il} (T^j)_{...a...}

on exact jets, so the components are exact up to rounding; rank-j components
of a depth-k computation hold jets of order k - j.  They are kept as raw
coefficient arrays, combined with the gather tables `jets.partial_table` and
`jets.mul_table` in the operations and order of `jet_partial`, `jet_mul` and
jet subtraction, so no Jet is built per component; `CovTensor.component`
wraps one in a Jet for outside readers.  A product of order 0, as at rank k,
is one elementwise multiply: the sum over a one-term segment is that term.

The recursion computes only what its readers keep, and only when they read it:

- The degree <= d coefficients of a product depend only on the degree <= d
  coefficients of its factors.  Each product is subtracted from a partial of
  order d, so it gathers only those prefixes of its factors, bit-identical to
  the full product cut to order d under graded coefficient order.  So the
  Christoffel symbols are built to order k - 2, the most any product reads
  (at rank 2), from metric jets of order k - 1, and not at all for k <= 1.
- Components and Christoffel rows are computed each when first read, and
  then kept.  A component reads the components of the rank below and the
  rows Gamma^alpha_ij of the lower pairs (i, j) its formula names, so
  `pointwise_norm` reads every row.  The pure-radial component (1, ..., 1)
  names only (1, ..., 1) of the rank below and the row of (1, 1), which is
  empty because radial lines are geodesics: reading it alone costs one
  radial partial per rank and that one row.
- `norm_profiles` takes ranks 0 and 1 from v alone: |u| = |v| and, as g^11
  = 1 and the angular partials of u vanish, |grad u|_g = sqrt(v'^2), the
  dense norm to the bit.  So for k <= 1 it builds no metric at all.
- The metric and the Christoffel table do not depend on v.  A `Frame`
  carries one set of points and one rank and holds both, each built when
  first read; the bundles and norm profiles of several functions taken
  through one frame (`Frame.bundle`, `Frame.norm_profiles`) share them, and
  with them every Christoffel row any of them reads.  Called directly,
  `covariant_bundle` and `norm_profiles` build a frame per call.

Coordinate indices are 1-based throughout; coordinate 1 is the radial one.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

import numpy as np

from .errors import DomainError, ProximityError, SingularMetricError
from .jets import (Jet, embed_univariate, jet_coordinate, jet_mul, jet_partial, mul_coeffs,
                   mul_table, partial_table)
from .manifold import (
    DiagonalMetric,
    ManifoldSpec,
    default_point,
    metric_at,
    polar_radius,
    warp_eval,
)

MIN_RADIUS = 1e-6
MAX_RANK = 4


class ChristoffelTable:
    """Jet-valued Christoffel symbols of a diagonal metric at one point.

    `lowered(i, j)` lists the nonzero (alpha, jet) pairs of Gamma^alpha_ij in
    ascending alpha, the access pattern of the covariant recursion; the row
    of a lower pair is computed the first time it is read, and then kept.
    `entry` reads through it and returns None for a vanishing symbol.
    """

    def __init__(self, metric: DiagonalMetric):
        self._metric = metric
        self._partials = {}  # (i, v) -> d_v g_ii, read once so far
        self._rows = {}  # (i, j) -> ((alpha, jet), ...)

    def entry(self, k: int, i: int, j: int) -> Jet | None:
        return next((jet for alpha, jet in self.lowered(i, j) if alpha == k), None)

    def lowered(self, i: int, j: int) -> tuple:
        row = self._rows.get((i, j))
        if row is None:  # torsion-free: (j, i) holds the same row, exactly
            row = self._rows[(i, j)] = self._rows[(j, i)] = self._row(min(i, j), max(i, j))
        return row

    def _dg(self, i: int, v: int) -> Jet:
        """d_v g_ii.  Only the rows of (i, i) and of {i, v} read it, one
        row when v = i, so it is kept from the first read to the second."""
        if i == v:
            return jet_partial(self._metric.entry(i), v)
        jet = self._partials.pop((i, v), None)
        if jet is None:
            jet = self._partials[(i, v)] = jet_partial(self._metric.entry(i), v)
        return jet

    def _row(self, i: int, j: int) -> tuple:
        g_inv, half = self._metric.inverse_entry, 0.5
        row = []
        for k in range(1, self._metric.dim + 1):
            if i == j == k:
                jet = half * jet_mul(g_inv(k), self._dg(i, i))
            elif i == j:
                jet = (-half) * jet_mul(g_inv(k), self._dg(i, k))
            elif k == i:
                jet = half * jet_mul(g_inv(i), self._dg(i, j))
            elif k == j:
                jet = half * jet_mul(g_inv(j), self._dg(j, i))
            else:
                continue
            if not jet.is_zero():
                row.append((k, jet))
        return tuple(row)


def christoffel_at(metric: DiagonalMetric) -> ChristoffelTable:
    """Christoffel table of diagonal metric jets; order drops by one.

    The metric is checked here; each row is computed when first read.
    """
    if metric.order < 1:
        raise DomainError("Christoffel symbols need metric jets of order >= 1")
    for i in range(1, metric.dim + 1):
        if np.any(metric.entry(i).value == 0.0):
            raise SingularMetricError(f"diagonal metric entry g_{i}{i} vanishes")
    return ChristoffelTable(metric)


class CovTensor:
    """Rank-j covariant derivative of a radial function at one point.

    Components are coefficient arrays of jets of order depth - rank; rank 0
    holds u itself.  A component is computed when first read, from the
    rank-(j-1) components it needs, and kept; `component` wraps it in a Jet.
    """

    def __init__(self, rank: int, dim: int, order: int, base, prev: "CovTensor | None" = None,
                 gamma: ChristoffelTable | None = None, value: np.ndarray | None = None):
        self.rank, self.dim, self.order, self.base = rank, dim, order, base
        self._prev, self._gamma = prev, gamma
        self._known = {} if value is None else {(): value}  # 1-based index -> coefficients
        self._factors = {}  # index -> coefficients as the next rank multiplies them; None if zero

    def component(self, idx: tuple = ()) -> Jet:
        idx = tuple(idx)
        if len(idx) != self.rank:
            raise DomainError(f"rank-{self.rank} tensor indexed with {len(idx)} indices")
        if not all(1 <= i <= self.dim for i in idx):
            raise DomainError(f"index {idx} outside 1..{self.dim}")
        return Jet(self.dim, self.order, self._entry(idx), self.base)

    def _entry(self, idx: tuple) -> np.ndarray:
        c = self._known.get(idx)
        if c is None:
            first, rest = idx[0], idx[1:]
            prev, d = self._prev, self.order
            src, scale = partial_table(self.dim, d + 1, first - 1)
            c = prev._entry(rest)[..., src] * scale
            for pos, i in enumerate(rest):
                for alpha, gjet in self._gamma.lowered(first, i):
                    term = prev._factor(rest[:pos] + (alpha,) + rest[pos + 1 :])
                    if term is None:
                        continue
                    if d:  # jet_mul of both factors cut to order d
                        c = c - mul_coeffs(gjet.coeffs, term, mul_table(self.dim, d, d))
                    else:  # order 0: each product is one term
                        c = c - gjet.coeffs[..., :1] * term[..., :1]
            self._known[idx] = c
        return c

    def _factor(self, idx: tuple) -> np.ndarray | None:
        if idx not in self._factors:
            c = self._entry(idx)
            self._factors[idx] = c if c.any() else None
        return self._factors[idx]


class Frame:
    """Polar points and a rank k, with the metric and Christoffel table there.

    Neither depends on the radial function, so the bundles and norm profiles
    of several functions taken through one frame (`bundle`, `norm_profiles`)
    share its metric and each Christoffel row any of them reads.  `r` may be
    an array; angles default to pi/2 (all nested sine factors 1).  The rank
    and the point are checked on construction; the metric and the table are
    built when first read.
    """

    def __init__(self, m: ManifoldSpec, r, k: int, angles=None):
        if not 0 <= k <= MAX_RANK:
            raise DomainError(f"covariant derivative rank must be within 0..{MAX_RANK}")
        if np.any(np.asarray(r, dtype=np.float64) < MIN_RADIUS):
            raise ProximityError(f"evaluation requires r >= {MIN_RADIUS}")
        self.m, self.r, self.k, self.angles = m, r, k, angles
        self.point = default_point(m, r) if angles is None else (r,) + tuple(angles)
        polar_radius(m, self.point)

    @cached_property
    def metric(self) -> DiagonalMetric:
        # order max(k - 1, 0): the recursion reads the Christoffel symbols
        # only to order k - 2, at rank 2, and the norms read only values
        return metric_at(self.m, self.point, order=max(self.k - 1, 0))

    @cached_property
    def gamma(self) -> ChristoffelTable | None:
        return christoffel_at(self.metric) if self.k >= 2 else None  # rank 1 is plain partials

    def bundle(self, v):
        """`covariant_bundle` of v at this frame's points and rank."""
        return covariant_bundle(v, self.m, self.r, self.k, self.angles, _frame=self)

    def norm_profiles(self, v) -> np.ndarray:
        """`norm_profiles` of v at this frame's points and rank."""
        return norm_profiles(v, self.m, self.r, self.k, self.angles, _frame=self)


def covariant_bundle(v, m: ManifoldSpec, r, k: int, angles=None, _frame: Frame | None = None):
    """Metric plus the covariant derivative tensors of ranks 0..k at (r, angles).

    `v` is any radial profile exposing eval_jet(t, order) -> univariate Jet.
    `r` may be an array; angles default to pi/2 (all nested sine factors 1).
    `_frame` is the `Frame` of exactly these arguments; only `Frame.bundle`
    passes it, and a new one is built otherwise.
    """
    frame = Frame(m, r, k, angles) if _frame is None else _frame
    metric = frame.metric
    u_jet = embed_univariate(v.eval_jet(r, k), m.dim, 1, metric.base)

    tensors = [CovTensor(0, m.dim, k, metric.base, value=u_jet.coeffs)]
    for rank in range(1, k + 1):
        tensors.append(CovTensor(rank, m.dim, k - rank, metric.base, tensors[-1], frame.gamma))
    return metric, tensors


def pointwise_norm(t: CovTensor, metric: DiagonalMetric):
    """Tensor norm sqrt( sum g^{i1 i1} ... g^{ij ij} (component)^2 ).

    Valid because the metric is diagonal; returns a scalar or a batch array
    matching the base point.
    """
    if t.base is not metric.base and not metric.base.matches(t.base):
        raise DomainError("tensor and metric were built at different base points")
    if t.rank == 0:
        return np.abs(t._entry(())[..., 0])
    n = metric.dim
    inv = {i: metric.inverse_entry(i).value for i in range(1, n + 1)}
    total = 0.0
    for idx in product(range(1, n + 1), repeat=t.rank):
        comp = t._entry(idx)
        if not comp.any():
            continue
        weight = inv[idx[0]]
        for i in idx[1:]:
            weight = weight * inv[i]
        total = total + weight * comp[..., 0] ** 2
    return np.sqrt(total)


def norm_profiles(v, m: ManifoldSpec, r, k: int, angles=None,
                  _frame: Frame | None = None) -> np.ndarray:
    """|grad^j u|_g for j = 0..k at radius r (batched); shape (k+1,) + r.shape.

    Rows 0 and 1 read no metric: |u| = |v|, and since the angular partials
    of u vanish and g^11 = 1, |grad u|_g = sqrt(v'^2), squared and rooted as
    `pointwise_norm` does it, so a v' whose square underflows gives 0 alike.
    So for k <= 1 only the point is checked, and only ranks >= 2 build the
    covariant bundle.  `_frame` is as for `covariant_bundle`; only
    `Frame.norm_profiles` passes it.
    """
    frame = Frame(m, r, k, angles) if _frame is None else _frame
    if k < 2:
        coeffs = v.eval_jet(r, k).coeffs
        radial, higher = [coeffs[..., j] for j in range(k + 1)], []
    else:  # the bundle has evaluated v: its radial components of ranks 0, 1 are v, v'
        metric, tensors = frame.bundle(v)
        radial = [tensors[j]._entry((1,) * j)[..., 0] for j in (0, 1)]
        higher = [pointwise_norm(t, metric) for t in tensors[2:]]
    rows = [np.abs(radial[0])] + [np.sqrt(d**2) for d in radial[1:]] + higher
    rows = [np.broadcast_to(row, np.shape(r)) for row in rows]
    return np.stack(rows) if np.ndim(r) else np.array([float(x) for x in rows])


class _LinearProfile:
    """v(t) = t, the profile driving the small-radius asymptotics."""

    def eval_jet(self, t, order: int) -> Jet:
        return jet_coordinate(1, order, 1, t)


def asymptotic_leading_ratio(m: ManifoldSpec, k: int, r: float) -> float:
    """Small-radius ratio of the once-angular-pair component of grad^k(r).

    For u(x) = r the component with indices (1, ..., 1, 2, 2) behaves like
    c_k (phi')^{k-1} / phi^{k-3} times the sphere metric entry; this returns
    the measured component divided by that scale, which tends to
    (-1)^k (k-2)! as r -> 0 and equals 1 exactly at rank 2.
    """
    if k < 2:
        raise DomainError("the leading-coefficient ratio needs rank >= 2")
    metric, tensors = covariant_bundle(_LinearProfile(), m, float(r), k)
    comp = tensors[k].component((1,) * (k - 2) + (2, 2)).value
    w = warp_eval(m.warp, float(r), 1)
    phi, dphi = w.derivative(0), w.derivative(1)
    g_tilde_22 = metric.entry(2).value / phi**2
    return float(comp * phi ** (k - 3) / (dphi ** (k - 1) * g_tilde_22))
