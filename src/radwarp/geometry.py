"""Christoffel symbols and exact covariant derivatives of radial functions.

The Christoffel symbols are computed from the diagonal metric jets via the
general formula

    Gamma^k_ij = (1/2) g^kk (d_i g_jk + d_j g_ik - d_k g_ij),

which for a diagonal metric collapses to four short cases; they are never
transcribed from closed-form tables, so the known closed forms act as test
oracles instead of trusted inputs.

The j-fold covariant derivative of a radial function u(x) = v(r) is built by
the tensor recursion

    (T^{j+1})_{i1 i2...} = d_{i1} (T^j)_{i2...}
                           - sum_l sum_a Gamma^a_{i1 il} (T^j)_{...a...},

carried out entirely on jets: every partial derivative is exact, so the
resulting component values are exact up to rounding.  Each recursion step
consumes one jet order; rank-j components of a depth-k computation hold jets
of order k - j.

Coordinate indices are 1-based throughout; coordinate 1 is the radial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DomainError, ProximityError, SingularMetricError
from .jets import Jet, embed_univariate, jet_coordinate, jet_mul, jet_partial
from .manifold import (
    DiagonalMetric,
    ManifoldSpec,
    default_point,
    metric_at,
    warp_eval,
)

MIN_RADIUS = 1e-6
MAX_RANK = 4


@dataclass(frozen=True)
class ChristoffelTable:
    """Jet-valued Christoffel symbols of a diagonal metric at one point.

    Only nonzero entries are stored; `entry` returns None for identically
    vanishing symbols.  `lowered(i, j)` lists the nonzero (alpha, jet) pairs
    of Gamma^alpha_ij, the access pattern of the covariant recursion.
    """

    dim: int
    order: int
    entries: dict
    base: object

    def entry(self, k: int, i: int, j: int) -> Jet | None:
        return self.entries.get((k, i, j))

    def lowered(self, i: int, j: int) -> tuple:
        return self._by_lower.get((i, j), ())

    def __post_init__(self):
        by_lower: dict = {}
        for (k, i, j), jet in self.entries.items():
            by_lower.setdefault((i, j), []).append((k, jet))
        object.__setattr__(
            self, "_by_lower", {key: tuple(val) for key, val in by_lower.items()}
        )


def christoffel_at(metric: DiagonalMetric) -> ChristoffelTable:
    """Full Christoffel table from diagonal metric jets; order drops by one."""
    if metric.order < 1:
        raise DomainError("Christoffel symbols need metric jets of order >= 1")
    n = metric.dim
    for i in range(1, n + 1):
        if np.any(metric.entry(i).value == 0.0):
            raise SingularMetricError(f"diagonal metric entry g_{i}{i} vanishes")

    partials = {}  # (i, v) -> d_v g_ii, computed lazily

    def dg(i: int, v: int) -> Jet:
        key = (i, v)
        if key not in partials:
            partials[key] = jet_partial(metric.entry(i), v)
        return partials[key]

    entries = {}
    half = 0.5
    for k, i, j in product(range(1, n + 1), repeat=3):
        if i > j:
            continue
        if i == j == k:
            jet = half * jet_mul(metric.inverse_entry(k), dg(i, i))
        elif i == j:
            jet = (-half) * jet_mul(metric.inverse_entry(k), dg(i, k))
        elif k == i:
            jet = half * jet_mul(metric.inverse_entry(i), dg(i, j))
        elif k == j:
            jet = half * jet_mul(metric.inverse_entry(j), dg(j, i))
        else:
            continue
        if jet.is_zero():
            continue
        entries[(k, i, j)] = jet
        if i != j:
            entries[(k, j, i)] = jet  # torsion-free symmetry, exact
    return ChristoffelTable(n, metric.order - 1, entries, metric.base)


@dataclass(frozen=True)
class CovTensor:
    """Dense component array of the rank-j covariant derivative at one point.

    `components` is an object ndarray of shape (N,)*rank holding jets of
    order (depth - rank); rank 0 is a 0-d array with the jet of u itself.
    """

    rank: int
    dim: int
    components: np.ndarray
    base: object

    def component(self, idx: tuple = ()) -> Jet:
        if len(idx) != self.rank:
            raise DomainError(f"rank-{self.rank} tensor indexed with {len(idx)} indices")
        return self.components[tuple(i - 1 for i in idx)]


def _recursion_step(prev: np.ndarray, gamma: ChristoffelTable, n: int) -> np.ndarray:
    rank = prev.ndim + 1
    new = np.empty((n,) * rank, dtype=object)
    prev_zero = np.empty(prev.shape, dtype=bool)
    for idx in np.ndindex(prev.shape):
        prev_zero[idx] = prev[idx].is_zero()
    for first in range(n):
        for idx in np.ndindex(prev.shape):
            t = jet_partial(prev[idx], first + 1)
            for pos in range(rank - 1):
                for alpha, gjet in gamma.lowered(first + 1, idx[pos] + 1):
                    ridx = idx[:pos] + (alpha - 1,) + idx[pos + 1 :]
                    if prev_zero[ridx]:
                        continue
                    t = t - jet_mul(gjet, prev[ridx])
            new[(first,) + idx] = t
    return new


def covariant_bundle(v, m: ManifoldSpec, r, k: int, angles=None):
    """Metric plus the covariant derivative tensors of ranks 0..k at (r, angles).

    `v` is any radial profile exposing eval_jet(t, order) -> univariate Jet.
    `r` may be an array; angles default to pi/2 (all nested sine factors 1).
    """
    if not 0 <= k <= MAX_RANK:
        raise DomainError(f"covariant derivative rank must be within 0..{MAX_RANK}")
    ra = np.asarray(r, dtype=np.float64)
    if np.any(ra < MIN_RADIUS):
        raise ProximityError(f"evaluation requires r >= {MIN_RADIUS}")
    point = default_point(m, r) if angles is None else (r,) + tuple(angles)
    metric = metric_at(m, point, order=max(k, 1))
    u_jet = embed_univariate(v.eval_jet(r, k), m.dim, 1, metric.base)

    comps = np.empty((), dtype=object)
    comps[()] = u_jet
    tensors = [CovTensor(0, m.dim, comps, metric.base)]
    if k >= 1:
        gamma = christoffel_at(metric)
        for _ in range(k):
            comps = _recursion_step(comps, gamma, m.dim)
            tensors.append(CovTensor(comps.ndim, m.dim, comps, metric.base))
    return metric, tensors


def pointwise_norm(t: CovTensor, metric: DiagonalMetric):
    """Tensor norm sqrt( sum g^{i1 i1} ... g^{ij ij} (component)^2 ).

    Valid because the metric is diagonal; returns a scalar or a batch array
    matching the base point.
    """
    if t.base is not metric.base and not metric.base.matches(t.base):
        raise DomainError("tensor and metric were built at different base points")
    if t.rank == 0:
        return np.abs(t.components[()].value)
    inv = [metric.inverse_entry(i).value for i in range(1, metric.dim + 1)]
    total = 0.0
    for idx in np.ndindex(t.components.shape):
        comp = t.components[idx]
        if comp.is_zero():
            continue
        weight = inv[idx[0]]
        for i in idx[1:]:
            weight = weight * inv[i]
        total = total + weight * comp.value**2
    return np.sqrt(total)


def norm_profiles(v, m: ManifoldSpec, r, k: int, angles=None) -> np.ndarray:
    """|grad^j u|_g for j = 0..k at radius r (batched); shape (k+1,) + r.shape."""
    metric, tensors = covariant_bundle(v, m, r, k, angles)
    rows = [np.broadcast_to(pointwise_norm(t, metric), np.shape(r)) for t in tensors]
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
