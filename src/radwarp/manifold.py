"""Warping functions and the diagonal polar-coordinate metric they induce.

A spherically symmetric manifold is described by a warping profile phi on
[0, R) with phi(0) = 0, phi'(0) = 1, and all even-order derivatives vanishing
at the origin; the metric in geodesic polar coordinates (r, theta_2, ...,
theta_N) is then

    g_11 = 1,    g_ii = phi(r)^2 * prod_{2 <= j < i} sin(theta_j)^2   (i >= 2),

the standard nested-sine realization of the round sphere factor.  The module
provides exact derivative jets of phi for the built-in profiles, the warp
monotonicity constant (infimum of phi(t)/phi(r) over r <= t), unit-sphere
volumes, and the metric assembled as jets ready for Christoffel symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartSingularityError, DomainError
from .jets import (
    BasePoint,
    Jet,
    embed_univariate,
    jet_compose_univariate,
    jet_constant,
    jet_coordinate,
    jet_from_derivatives,
    jet_mul,
    polynomial_derivatives,
    tanh_series,
)

WARP_KINDS = ("euclidean", "hyperbolic", "spherical", "tanh_cap", "custom_odd_series")

_POSITIVITY_GRID = 257


@dataclass(frozen=True)
class WarpSpec:
    """A warping profile together with its domain radius.

    `coeffs` is used only by the custom kind: phi(r) = sum_m coeffs[m] *
    r^(2m+1), odd powers only, so the origin conditions hold by construction.
    """

    kind: str
    radius: float = math.inf
    coeffs: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in WARP_KINDS:
            raise DomainError(f"unknown warp kind {self.kind!r}; expected one of {WARP_KINDS}")
        if not (self.radius > 0):
            raise DomainError("warp radius must be positive")
        if self.kind == "spherical" and self.radius > math.pi:
            raise DomainError("spherical warp needs radius <= pi to stay positive")
        if self.kind == "custom_odd_series":
            if not self.coeffs:
                raise DomainError("custom warp requires at least one odd-series coefficient")
            if self.coeffs[0] != 1.0:
                raise DomainError("custom warp must have leading coefficient 1 (unit slope at 0)")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        elif self.coeffs:
            raise DomainError("series coefficients are only valid for custom_odd_series")
        hi = min(self.radius, 32.0)
        grid = np.linspace(hi / _POSITIVITY_GRID, hi * (1 - 1e-9), _POSITIVITY_GRID)
        if np.any(warp_value(self, grid) <= 0.0):
            raise DomainError("warp must be positive on (0, R)")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def euclidean(radius: float = math.inf) -> "WarpSpec":
        return WarpSpec("euclidean", radius)

    @staticmethod
    def hyperbolic(radius: float = math.inf) -> "WarpSpec":
        return WarpSpec("hyperbolic", radius)

    @staticmethod
    def spherical(radius: float = math.pi) -> "WarpSpec":
        return WarpSpec("spherical", radius)

    @staticmethod
    def tanh_cap(radius: float = math.inf) -> "WarpSpec":
        return WarpSpec("tanh_cap", radius)

    @staticmethod
    def custom(coeffs, radius: float = math.inf) -> "WarpSpec":
        return WarpSpec("custom_odd_series", radius, tuple(coeffs))


def _derivatives_table(w: WarpSpec, r: np.ndarray, order: int) -> list[np.ndarray]:
    """Values [phi(r), phi'(r), ..., phi^(order)(r)] from closed forms."""
    r = np.asarray(r, dtype=np.float64)
    if w.kind == "euclidean":
        out = [r, np.ones_like(r)]
        out.extend(np.zeros_like(r) for _ in range(order - 1))
        return out[: order + 1]
    if w.kind == "hyperbolic":
        return [np.sinh(r) if m % 2 == 0 else np.cosh(r) for m in range(order + 1)]
    if w.kind == "spherical":
        return [np.sin(r + m * math.pi / 2) for m in range(order + 1)]
    if w.kind == "tanh_cap":
        y = tanh_series(r, order)
        return [y[m] * math.factorial(m) for m in range(order + 1)]
    terms = [(2 * j + 1, c) for j, c in enumerate(w.coeffs)]
    return polynomial_derivatives(terms, r, order)


def warp_value(w: WarpSpec, r) -> np.ndarray:
    """phi(r), vectorized, without jet overhead."""
    return _derivatives_table(w, np.asarray(r, dtype=np.float64), 0)[0]


def warp_eval(w: WarpSpec, r, order: int, base: BasePoint | None = None) -> Jet:
    """Univariate jet of phi at r with exact derivatives.

    r must lie strictly inside (0, R); it may be an array for batched
    evaluation.
    """
    if order > 6:
        raise DomainError("warp jets are supported up to order 6")
    ra = np.asarray(r, dtype=np.float64)
    if np.any(ra <= 0.0) or np.any(ra >= w.radius):
        raise DomainError(f"radial coordinate outside (0, {w.radius})")
    derivs = np.stack(_derivatives_table(w, ra, order))
    return jet_from_derivatives(derivs, base)


# ---------------------------------------------------------------------------
# warp monotonicity constant


def _tail_cutoff(w: WarpSpec) -> float:
    """Cutoff T for the pair grid on an unbounded domain.

    Extending past T cannot lower the infimum once phi is nondecreasing on
    the sampled tail [T, 2T]: any later point either sets a new running
    maximum (ratio 1) or is bounded below by the ratio already seen at T.
    """
    if math.isfinite(w.radius):
        return w.radius
    t = 8.0
    while t < 2.0**16:
        sample = warp_value(w, np.linspace(t, 2 * t, 65))
        if np.all(np.diff(sample) >= -1e-13 * np.abs(sample[:-1])):
            return t
        t *= 2.0
    return t


def c_phi(w: WarpSpec, grid_size: int = 1024) -> float:
    """Lower grid estimate of the warp monotonicity constant.

    Equals the infimum of phi(t)/phi(r) over all grid pairs r <= t: the
    minimum over t of phi(t) divided by the running maximum of phi up to t.
    Returns exactly 1.0 when the sampled profile is nondecreasing.
    """
    if grid_size < 64:
        raise DomainError("c_phi grid must have at least 64 points")
    cutoff = _tail_cutoff(w)
    hi = cutoff * (1.0 - 1.0 / grid_size) if math.isfinite(w.radius) else cutoff
    grid = np.geomspace(hi * 1e-6, hi, grid_size)
    phi = warp_value(w, grid)
    if np.any(phi <= 0.0):
        raise DomainError("warp is not positive over the infimum grid")
    diffs = np.diff(phi)
    if np.all(diffs >= -1e-13 * np.maximum(np.abs(phi[:-1]), 1e-300)):
        return 1.0
    running_max = np.maximum.accumulate(phi)
    value = float(np.min(phi / running_max))
    return value if value >= 1e-300 else 0.0


# ---------------------------------------------------------------------------
# sphere volumes and the manifold


def sphere_volume(n: int) -> float:
    """Volume of the unit (n-1)-sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise DomainError("sphere_volume requires dimension >= 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class ManifoldSpec:
    """Warping profile plus the manifold dimension."""

    warp: WarpSpec
    dim: int

    def __post_init__(self):
        if not 2 <= self.dim <= 6:
            raise DomainError("manifold dimension must be between 2 and 6")


@dataclass(frozen=True)
class DiagonalMetric:
    """Diagonal metric entries and their inverses as jets at one base point.

    The entries g_ii have jet order `order`; the inverses have order
    `order - 1` (0 when `order` is 0).  Their readers need no more: the
    Christoffel symbols multiply them by first partials of the entries, and
    tensor norms read only their values.
    """

    dim: int
    order: int
    g: tuple[Jet, ...]
    g_inv: tuple[Jet, ...]
    base: BasePoint

    def entry(self, i: int) -> Jet:
        return self.g[i - 1]

    def inverse_entry(self, i: int) -> Jet:
        return self.g_inv[i - 1]


def default_point(m: ManifoldSpec, r) -> tuple:
    """Evaluation point (r, pi/2, ..., pi/2): all nested sine factors are 1."""
    return (r,) + (math.pi / 2,) * (m.dim - 1)


def polar_radius(m: ManifoldSpec, point) -> np.ndarray:
    """The radial coordinate of a polar point, once the point is checked.

    `point` is (r, theta_2, ..., theta_N); r may be an array and must lie in
    (0, R).  Angles that carry metric weight (theta_2 .. theta_{N-1}) must
    avoid sin = 0.
    """
    n = m.dim
    if len(point) != n:
        raise DomainError(f"point needs {n} coordinates, got {len(point)}")
    r = np.asarray(point[0], dtype=np.float64)
    if np.any(r <= 0.0) or np.any(r >= m.warp.radius):
        raise DomainError(f"radial coordinate outside (0, {m.warp.radius})")
    for j in range(2, n):  # angles theta_2 .. theta_{N-1} appear in the metric
        if abs(math.sin(float(point[j - 1]))) < 1e-12:
            raise ChartSingularityError(f"sin(theta_{j}) vanishes: polar chart is singular")
    return r


def metric_at(m: ManifoldSpec, point, order: int) -> DiagonalMetric:
    """Diagonal metric jets g_ii and inverses at the polar point `point`
    (checked by `polar_radius`)."""
    n = m.dim
    r = polar_radius(m, point)
    base = BasePoint(point)

    phi = warp_eval(m.warp, r, order)  # squared before the lift: the same bits as after it
    g = [jet_constant(n, order, np.ones_like(r), base),
         embed_univariate(jet_mul(phi, phi), n, 1, base)]
    for j in range(2, n):  # g_{j+1} = g_j sin(theta_j)^2
        theta_jet = jet_coordinate(1, order, 1, float(point[j - 1]))
        s = embed_univariate(jet_compose_univariate("sin", theta_jet), n, j, base)
        g.append(jet_mul(g[-1], jet_mul(s, s)))
    inv_order = max(order - 1, 0)
    g_inv = [g[0].truncated(inv_order)]
    for entry in g[1:]:
        g_inv.append(jet_compose_univariate("recip", entry.truncated(inv_order)))
    return DiagonalMetric(n, order, tuple(g), tuple(g_inv), base)
