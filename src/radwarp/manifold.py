"""Warping functions and the diagonal polar-coordinate metric they induce.

A spherically symmetric manifold is described by a warping profile phi on
[0, R) with phi(0) = 0, phi'(0) = 1, and all even-order derivatives vanishing
at the origin; the metric in geodesic polar coordinates (r, theta_2, ...,
theta_N) is then

    g_11 = 1,    g_ii = phi(r)^2 * prod_{2 <= j < i} sin(theta_j)^2   (i >= 2),

the standard nested-sine realization of the round sphere factor.  WARP_TABLE
holds all the program reads about each warp kind, exact: derivatives of phi,
positivity, the monotonicity constant c_phi and tail growth bounds, and
each row gives the Taylor rows of psi = phi'/phi from its derivatives.  The
module also provides unit-sphere volumes and the metric jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ChartSingularityError, DomainError
from .jets import (
    BasePoint,
    Jet,
    compose_rows,
    embed_univariate,
    jet_compose_univariate,
    jet_constant,
    jet_coordinate,
    jet_from_derivatives,
    jet_mul,
    mul_rows,
    polynomial_derivatives,
    tanh_series,
)


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
        row = WARP_TABLE.get(self.kind)
        if row is None:
            raise DomainError(f"unknown warp kind {self.kind!r}; expected one of {WARP_KINDS}")
        if not (self.radius > 0):
            raise DomainError("warp radius must be positive")
        if row.series:
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
            if not (self.coeffs and self.coeffs[0] == 1.0 and all(map(math.isfinite, self.coeffs))):
                raise DomainError("custom warp needs finite coefficients, the first 1 (unit slope)")
        elif self.coeffs:
            raise DomainError("series coefficients are only valid for custom_odd_series")
        if not row.positive(self):
            raise DomainError(f"{self.kind} warp must be positive on (0, {self.radius})")

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


def _odd_series_positive(w: WarpSpec) -> bool:
    """phi(t) = t P(t^2), P(s) = sum_m coeffs[m] s^m, P(0) = 1, is positive on
    (0, R) exactly when P has no root in (0, R^2).  Floats are dyadic
    rationals: times a common denominator P has integer coefficients, and
    R^2 = u / v.  Sturm's theorem counts the roots exactly, in integers, from
    the signs at 0 and at R^2, once any root at R^2 itself is divided out."""
    ratios = [c.as_integer_ratio() for c in w.coeffs]
    den = max(d for _, d in ratios)
    p = [n * (den // d) for n, d in ratios]
    while p[-1] == 0:
        p.pop()
    a, b = w.radius.as_integer_ratio() if math.isfinite(w.radius) else (1, 0)
    u, v = a * a, b * b  # (1, 0) stands for R = inf

    def at_end(q):  # v^deg q(u / v), or the leading coefficient of q for R = inf
        return sum(c * u**k * v ** (len(q) - 1 - k) for k, c in enumerate(q))

    while at_end(p) == 0:  # v s - u divides p exactly, as gcd(u, v) = 1
        q = [0] * len(p)
        for k in range(len(p) - 1, 0, -1):
            q[k - 1] = (p[k] + u * q[k]) // v
        p = q[:-1]
    # the Sturm sequence P, P', -rem(P, P'), ..., each up to a positive factor
    seq = [p, [k * c for k, c in enumerate(p)][1:]]
    while seq[-1]:
        r, d = seq[-2], seq[-1]
        while len(r) >= len(d):  # r <- |lc(d)| r - sign(lc(d)) lc(r) s^shift d
            lead, shift = (r[-1] if d[-1] > 0 else -r[-1]), len(r) - len(d)
            r = [abs(d[-1]) * x - (lead * d[i - shift] if i >= shift else 0) for i, x in enumerate(r)]
            while r and r[-1] == 0:
                r.pop()
        g = math.gcd(*r)
        seq.append([-x // g for x in r])
    seq.pop()
    signs = [[x > 0 for x in ends if x] for ends in ([q[0] for q in seq], map(at_end, seq))]
    changes = [sum(x != y for x, y in zip(s, s[1:])) for s in signs]
    return changes[0] == changes[1]


@dataclass(frozen=True)
class WarpKind:
    """One warp kind: `derivatives(w, r, order)` is [phi(r), ..., phi^(order)(r)]
    in closed form, `positive(w)` decides phi > 0 on (0, R), `series` marks the
    kind built from WarpSpec.coeffs, `c_phi(w)` is inf phi(t)/phi(r) over 0 < r
    <= t < R (None where no check reads it), and `growth` is (coef, power,
    rate) of an upper and a lower bound coef t^power exp(-rate t) of phi on
    t >= 1 (growth is a negative rate; None where none is certified)."""

    derivatives: Callable[[WarpSpec, np.ndarray, int], list[np.ndarray]]
    positive: Callable[[WarpSpec], bool] = lambda w: True
    c_phi: Callable[[WarpSpec], float] | None = lambda w: 1.0
    growth: tuple[tuple[float, float, float], tuple[float, float, float]] | None = None
    series: bool = False

    def psi(self, w: WarpSpec, r: np.ndarray, order: int) -> list[np.ndarray]:
        """Taylor rows [psi_0, ..., psi_order] of psi = phi'/phi at r in (0, R):
        the rows of phi' times the reciprocal of phi's rows, both from
        `derivatives`."""
        d = self.derivatives(w, r, order + 1)
        phi = [d[m] / math.factorial(m) for m in range(order + 1)]
        dphi = [d[m + 1] / math.factorial(m) for m in range(order + 1)]
        return mul_rows(dphi, compose_rows("recip", phi))


WARP_TABLE = {
    "euclidean": WarpKind(
        lambda w, r, order: [r, np.ones_like(r), *map(np.zeros_like, [r] * (order - 1))][: order + 1],
        growth=((1.0, 1.0, 0.0), (1.0, 1.0, 0.0))),
    "hyperbolic": WarpKind(
        lambda w, r, order: [np.sinh(r) if m % 2 == 0 else np.cosh(r) for m in range(order + 1)],
        growth=((0.5, 0.0, -1.0), (0.5 * (1 - math.exp(-2.0)), 0.0, -1.0))),
    # sin rises to 1 at pi/2, then falls to sin R; R = pi is the whole sphere
    "spherical": WarpKind(
        lambda w, r, order: [np.sin(r + m * math.pi / 2) for m in range(order + 1)],
        lambda w: w.radius <= math.pi,
        lambda w: math.sin(max(w.radius, math.pi / 2)) if w.radius < math.pi else 0.0),
    "tanh_cap": WarpKind(
        lambda w, r, order: [y * math.factorial(m) for m, y in enumerate(tanh_series(r, order))],
        growth=((1.0, 0.0, 0.0), (math.tanh(1.0), 0.0, 0.0))),
    "custom_odd_series": WarpKind(
        lambda w, r, order: polynomial_derivatives(
            [(2 * j + 1, c) for j, c in enumerate(w.coeffs)], r, order),
        _odd_series_positive, None, series=True),
}
WARP_KINDS = tuple(WARP_TABLE)


def warp_value(w: WarpSpec, r) -> np.ndarray:
    """phi(r), vectorized, without jet overhead."""
    return WARP_TABLE[w.kind].derivatives(w, np.asarray(r, dtype=np.float64), 0)[0]


def warp_eval(w: WarpSpec, r, order: int, base: BasePoint | None = None) -> Jet:
    """Univariate jet of phi at r with exact derivatives.

    r must lie strictly inside (0, R); it may be an array for batched
    evaluation.
    """
    if order > 6:
        raise DomainError("warp jets are supported up to order 6")
    ra = np.asarray(r, dtype=np.float64)
    if not np.all((ra > 0.0) & (ra < w.radius)):  # a NaN fails both
        raise DomainError(f"radial coordinate outside (0, {w.radius})")
    derivs = np.stack(WARP_TABLE[w.kind].derivatives(w, ra, order))
    return jet_from_derivatives(derivs, base)


def c_phi(w: WarpSpec) -> float:
    """The warp monotonicity constant of the warp's row (none for a custom warp)."""
    if WARP_TABLE[w.kind].c_phi is None:
        raise DomainError(f"no warp monotonicity constant is derived for {w.kind} warps")
    return WARP_TABLE[w.kind].c_phi(w)


def warp_growth_bounds(w: WarpSpec) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """The (upper, lower) tail bounds of phi in the warp's row, on R = inf only."""
    bounds = None if math.isfinite(w.radius) else WARP_TABLE[w.kind].growth
    if bounds is None:
        raise DomainError(f"no certified tail growth bound for a {w.kind} warp on R = {w.radius}")
    return bounds


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

    The entries g_ii have jet order `order`; each inverse, built on first
    read and kept, has order `order - 1` (0 when `order` is 0).  Its readers
    need no more: the Christoffel symbols multiply it by first partials of
    the entries, and tensor norms read only its values.
    """

    dim: int
    order: int
    g: tuple[Jet, ...]
    base: BasePoint
    _inverses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def entry(self, i: int) -> Jet:
        return self.g[i - 1]

    def inverse_entry(self, i: int) -> Jet:
        inv = self._inverses.get(i)
        if inv is None:
            cut = self.g[i - 1].truncated(max(self.order - 1, 0))
            inv = self._inverses[i] = jet_compose_univariate("recip", cut)
        return inv


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
    if not np.all((r > 0.0) & (r < m.warp.radius)):  # a NaN fails both
        raise DomainError(f"radial coordinate outside (0, {m.warp.radius})")
    if not all(np.all(np.isfinite(a)) for a in point[1:]):
        raise DomainError("angular coordinates must be finite")
    for j in range(2, n):  # angles theta_2 .. theta_{N-1} appear in the metric
        if abs(math.sin(float(point[j - 1]))) < 1e-12:
            raise ChartSingularityError(f"sin(theta_{j}) vanishes: polar chart is singular")
    return r


def metric_at(m: ManifoldSpec, point, order: int) -> DiagonalMetric:
    """Diagonal metric jets g_ii at the polar point `point` (checked by
    `polar_radius`); the inverses are built as they are read."""
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
    return DiagonalMetric(n, order, tuple(g), base)
