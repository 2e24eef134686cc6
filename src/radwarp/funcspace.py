"""Radial test-function families and weighted Lebesgue/Sobolev norms.

Each family carries closed-form derivative jets to order 4 at any point of
its domain, so norm integrands and covariant-derivative inputs are exact;
they are computed on coefficient arrays, one Jet per `eval_jet` call.
The decaying families also declare a decay envelope (see
quadrature.DecayEnvelope); it is the only certificate for tail truncation,
so a norm over an unbounded domain of a family without one is infinite.
It bounds every |v^(j)|, j <= 4, and so the manifold profiles of orders 0
and 1 (|u| = |v|, |grad u|_g = |v'|); none is derived for a manifold profile
of order >= 2, so such a norm over an unbounded domain is infinite too.

Norm conventions
----------------
The interval Sobolev norm sums over all derivative orders inside one p-th
root:  ( sum_{j<=k} int |v^(j)|^p phi^(N-1) )^(1/p).  The manifold norm is
the sum of p-th roots:  sum_{j<=k} ( omega_{N-1} int |grad^j u|_g^p
phi^(N-1) )^(1/p).  Both forms are in common use; every comparison in the
verification layer states which side uses which.  Divergent integrals make a
norm infinite (math.inf), the "infinite norm" signal.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DomainError, InadmissibleParameterError
from .jets import (
    Jet,
    compose_coeffs,
    mul_coeffs,
    mul_table,
    polynomial_derivatives,
    shift_coeffs,
    taylor_coeffs,
)
from .manifold import ManifoldSpec, WarpSpec, sphere_volume
from .quadrature import DecayEnvelope, Integrand, integrate_weighted

FAMILY_KINDS = ("gaussian", "power_decay", "polynomial_bump", "log_profile", "linear")

MAX_JET_ORDER = 4


@dataclass(frozen=True)
class RadialFunction:
    """A named radial profile v on (0, R) with exact derivative jets."""

    family: str
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.family not in FAMILY_KINDS:
            raise DomainError(f"unknown family {self.family!r}; expected one of {FAMILY_KINDS}")
        object.__setattr__(
            self, "params", tuple((k, float(v)) for k, v in self.params)
        )

    # -- constructors --------------------------------------------------------

    @staticmethod
    def gaussian(a: float = 1.0) -> "RadialFunction":
        if a <= 0:
            raise DomainError("gaussian rate must be positive")
        return RadialFunction("gaussian", (("a", a),))

    @staticmethod
    def power_decay(a: float = 1.0) -> "RadialFunction":
        if a <= 0:
            raise DomainError("power-decay exponent must be positive")
        return RadialFunction("power_decay", (("a", a),))

    @staticmethod
    def polynomial_bump(coeffs=(1.0,), support: float = 1.0) -> "RadialFunction":
        if support <= 0:
            raise DomainError("bump support radius must be positive")
        params = (("support", support),) + tuple(
            (f"c{m}", c) for m, c in enumerate(coeffs)
        )
        return RadialFunction("polynomial_bump", params)

    @staticmethod
    def log_profile(r_ref: float, delta: float = 1e-2) -> "RadialFunction":
        if r_ref <= 0 or delta <= 0:
            raise DomainError("log profile needs positive reference radius and cutoff")
        return RadialFunction("log_profile", (("r_ref", r_ref), ("delta", delta)))

    @staticmethod
    def linear() -> "RadialFunction":
        return RadialFunction("linear")

    # -- parameter access ----------------------------------------------------

    def param(self, name: str) -> float:
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)

    def bump_coeffs(self) -> list[float]:
        return [val for key, val in self.params if key.startswith("c")]

    @property
    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}({inner})" if inner else self.family

    # -- evaluation ----------------------------------------------------------

    def eval_jet(self, t, order: int) -> Jet:
        """Univariate jet of v at t (finite t > 0, scalar or array), order <= 4."""
        if order > MAX_JET_ORDER:
            raise DomainError(f"family jets are available up to order {MAX_JET_ORDER}")
        ta = np.asarray(t, dtype=np.float64)
        if not np.all((ta > 0.0) & (ta < np.inf)):  # a NaN fails both
            raise DomainError("radial profiles are evaluated at finite t > 0")
        return Jet(1, order, self._coeffs(ta, order))

    def _coeffs(self, ta: np.ndarray, order: int) -> np.ndarray:
        if self.family == "gaussian":
            return compose_coeffs("exp", _quadratic(ta, order, 0.0, -self.param("a")), 1)
        if self.family == "power_decay":
            return compose_coeffs("pow", _quadratic(ta, order, 1.0, 1.0), 1, -self.param("a"))
        if self.family == "log_profile":
            inner = _quadratic(ta, order, self.param("delta") ** 2, 1.0)
            return shift_coeffs(-(compose_coeffs("log", inner, 1) * 0.5),
                                math.log(self.param("r_ref")))
        if self.family == "linear":
            return taylor_coeffs(polynomial_derivatives([(1, 1.0)], ta, order))
        # smooth cutoff exp(1 - 1/(1 - (t/S)^2)) carried against the
        # polynomial factor; identically zero at and beyond the support
        s = self.param("support")
        tb = np.atleast_1d(ta)
        out = np.zeros(tb.shape + (order + 1,))
        inside = tb < s * (1.0 - 1e-8)
        if np.any(inside):
            ti = tb[inside]
            w_rows = [1.0 - (ti / s) ** 2, -2 * ti / s**2, np.full_like(ti, -2 / s**2)]
            w = taylor_coeffs((w_rows + [np.zeros_like(ti)] * order)[: order + 1])
            cut = compose_coeffs("exp", shift_coeffs(-compose_coeffs("recip", w, 1), 1.0), 1)
            terms = list(enumerate(self.bump_coeffs()))
            poly = taylor_coeffs(polynomial_derivatives(terms, ti, order))
            out[inside] = mul_coeffs(cut, poly, mul_table(1, order, order))
        return out[0] if ta.ndim == 0 else out

    def values(self, t) -> np.ndarray:
        return np.asarray(self.eval_jet(t, 0).value, dtype=np.float64)

    def derivative_values(self, t, j: int) -> np.ndarray:
        return np.asarray(self.eval_jet(t, j).derivative(j), dtype=np.float64)

    # -- decay ----------------------------------------------------------------

    def decay_envelope(self) -> DecayEnvelope | None:
        """Bound valid for every derivative order up to 4 on the tail.

        Only the decaying families have one: compact support, a Gaussian
        rate or a negative power.  `linear` and `log_profile` return None,
        so no norm of theirs over an unbounded domain is certified.
        """
        if self.family == "gaussian":
            a = self.param("a")
            return DecayEnvelope(2.0 * (1.0 + 2.0 * a) ** 4, 4.0, 0.0, 1.0, quad_rate=a)
        if self.family == "power_decay":
            a = self.param("a")
            return DecayEnvelope((2.0 * a + 4.0) ** 4, -2.0 * a, 0.0, 1.0)
        if self.family == "polynomial_bump":
            return DecayEnvelope(0.0, 0.0, 0.0, self.param("support"))
        return None


def _quadratic(ta: np.ndarray, order: int, c0: float, c2: float) -> np.ndarray:
    """Coefficients of c0 + c2 t^2 at ta."""
    rows = [c0 + c2 * ta**2, 2 * c2 * ta, np.full_like(ta, 2 * c2)][: order + 1]
    return taylor_coeffs(rows + [np.zeros_like(ta)] * max(0, order - 2))


def default_families(radius: float) -> tuple[RadialFunction, ...]:
    """The standard five-family test set, sized to the domain radius."""
    bump_support = min(0.8 * radius, 4.0)
    log_ref = radius if math.isfinite(radius) else 10.0
    return (
        RadialFunction.gaussian(1.0),
        RadialFunction.power_decay(1.5),
        RadialFunction.polynomial_bump((1.0, -0.3, 0.2), support=bump_support),
        RadialFunction.log_profile(log_ref),
        RadialFunction.linear(),
    )


# ---------------------------------------------------------------------------
# critical exponents


def critical_q(n: int, k: int, p: float, theta: float = 0.0,
               variant: str = "manifold") -> float:
    """(theta + N) p / (N - kp), or (theta + 1) p / (N - kp) for the interval
    variant; requires N > kp."""
    if n <= k * p:
        raise InadmissibleParameterError(
            f"critical exponent needs N > kp (N={n}, k={k}, p={p})"
        )
    lead = n if variant == "manifold" else 1
    return (theta + lead) * p / (n - k * p)


# ---------------------------------------------------------------------------
# norms

# weighted_integral's segment stores by its arguments but tol; None outside a block
_STORES: ContextVar[dict | None] = ContextVar("radwarp_segment_stores", default=None)


@contextmanager
def shared_segments():
    """Let weighted_integral calls that differ only in `tol` share one
    segment store, so a refined integral evaluates only the segments it
    adds; the stores are dropped when the block ends, also when it raises."""
    token = _STORES.set({})
    try:
        yield
    finally:
        _STORES.reset(token)


def weighted_integral(v: RadialFunction, j: int, p: float, theta: float,
                      space: WarpSpec | ManifoldSpec, tol: float) -> float:
    """int_0^R g(t)^p phi(t)^theta dt, with g = |v^(j)| when `space` is a
    warp (the interval side) and g = |grad^j u|_g, u = v(r), when it is a
    manifold; inf when it diverges or, on an unbounded domain, when no
    envelope certifies the tail.

    The integrand depends on these arguments alone, which is what lets
    shared_segments share its segments between calls.
    """
    p = float(p)
    if isinstance(space, ManifoldSpec):
        w, min_t = space.warp, geometry.MIN_RADIUS
        evaluator = lambda t: geometry.norm_profiles(v, space, t, j)[j] ** p
    else:
        w, min_t = space, 0.0
        evaluator = lambda t: np.abs(v.derivative_values(t, j)) ** p
    # v's envelope bounds rows 0 and 1 of norm_profiles, |v| and sqrt(v'^2);
    # a manifold profile of order >= 2 has none
    base = v.decay_envelope() if j <= 1 or not isinstance(space, ManifoldSpec) else None
    envelope = base.power_scaled(p) if base is not None else None
    if math.isinf(w.radius) and envelope is None:
        return math.inf  # no certified tail: infinite-norm signal
    stores = _STORES.get()
    known = None if stores is None else stores.setdefault((v, j, p, theta, space), {})
    res = integrate_weighted(Integrand(evaluator, theta, envelope), w, tol, min_t=min_t,
                             known=known)
    return res.value if res.converged else math.inf


def lq_theta_norm_1d(v: RadialFunction, q: float, theta: float, w: WarpSpec,
                     tol: float = 1e-10) -> float:
    """( int_0^R |v|^q phi^theta dt )^(1/q); inf when the integral diverges."""
    if q < 1:
        raise InadmissibleParameterError("Lebesgue exponent must be >= 1")
    value = weighted_integral(v, 0, q, theta, w, tol)
    return value ** (1.0 / q) if math.isfinite(value) else math.inf


def sobolev_seminorms_1d(v: RadialFunction, k: int, p: float, n: int, w: WarpSpec,
                         tol: float = 1e-10) -> list[float]:
    """The k+1 weighted integrals int |v^(j)|^p phi^(N-1) dt, j = 0..k."""
    if n < 2:
        raise InadmissibleParameterError("weight dimension must be >= 2")
    if k > MAX_JET_ORDER:
        raise InadmissibleParameterError(f"derivative count limited to {MAX_JET_ORDER}")
    return [weighted_integral(v, j, p, n - 1.0, w, tol) for j in range(k + 1)]


def sobolev_norm_1d(v: RadialFunction, k: int, p: float, n: int, w: WarpSpec,
                    tol: float = 1e-10) -> float:
    """( sum_{j<=k} int |v^(j)|^p phi^(N-1) )^(1/p); inf on divergence."""
    parts = sobolev_seminorms_1d(v, k, p, n, w, tol)
    total = math.fsum(parts)
    return total ** (1.0 / p) if math.isfinite(total) else math.inf


def _manifold_norm_term(v: RadialFunction, j: int, p: float, m: ManifoldSpec,
                        tol: float) -> float:
    """( omega_{N-1} int |grad^j u|_g^p phi^(N-1) dr )^(1/p); inf on divergence.

    The pointwise tensor norms come from the covariant recursion at the
    default evaluation angles; angle independence is a separately tested
    property, so the sphere integral collapses to the radial line.  On an
    unbounded domain the tail of order j <= 1 is certified by v's own
    envelope, and a term of order j >= 2 is inf (see weighted_integral).
    """
    integral = weighted_integral(v, j, p, m.dim - 1.0, m, tol)
    if not math.isfinite(integral):
        return math.inf
    return (sphere_volume(m.dim) * integral) ** (1.0 / p)


def sobolev_norm_manifold(v: RadialFunction, k: int, p: float, m: ManifoldSpec,
                          tol: float = 1e-10) -> float:
    """sum_{j<=k} ( omega_{N-1} int |grad^j u|_g^p phi^(N-1) dr )^(1/p)."""
    if k > MAX_JET_ORDER:
        raise InadmissibleParameterError(f"derivative count limited to {MAX_JET_ORDER}")
    terms = []
    for j in range(k + 1):
        term = _manifold_norm_term(v, j, p, m, tol)
        if not math.isfinite(term):
            return math.inf
        terms.append(term)
    return math.fsum(terms)


def gradient_norm_manifold(v: RadialFunction, p: float, m: ManifoldSpec,
                           tol: float = 1e-10) -> float:
    """( omega_{N-1} int |grad u|_g^p phi^(N-1) dr )^(1/p), recursion route."""
    return _manifold_norm_term(v, 1, p, m, tol)
