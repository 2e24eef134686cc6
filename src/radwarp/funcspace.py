"""Radial test-function families and weighted Lebesgue/Sobolev norms.

Each family carries closed-form derivative jets to order 4 at any point of
its domain, so norm integrands and covariant-derivative inputs are exact.
A family computes its Taylor-coefficient rows, one array per degree, in
straight-line numpy (jets.compose_rows for the outer series); `values` and
`derivative_values` read one row and build no Jet, and `eval_jet` stacks
the rows into one Jet.
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

Both sides walk down to the origin: the manifold rows read only v's jet and
psi = phi'/phi, finite at every r > 0, so none stops at geometry.MIN_RADIUS.

Orders 0 and 1 read v's own rows on either side, as |u| = |v| and
|grad u|_g = sqrt(v'^2) (g^rr = 1, and the angular partials of u vanish);
only a manifold order >= 2 reads geometry.norm_profiles rows.

Inside a shared_segments block (run_suite opens one per run, run_check one
per check), the integrals of one v read its rows from one memo per row
source, keyed by the exact node array: v alone for v's own rows, which no
warp changes, (v, manifold) for the norm_profiles rows.  An entry is
evaluated to the order of the first integral that reads it, and again only
when a later one reads a higher order; a norm that reads several orders
integrates the highest first.  Rows 0..j of a higher-order evaluation equal
those of an order-j one bit for bit, so every integral keeps its bits
whatever the memo holds.  A nested block shares v's own rows with the
outermost one, so they live for the run (run_suite drops a family's rows
after the last check that lists it); the segment stores and the
norm_profiles rows live for the block that made them, one check.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import geometry
from .errors import DomainError, EvaluationError, InadmissibleParameterError
from .jets import Jet, compose_rows, mul_rows, polynomial_derivatives
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
        params = tuple((k, float(v)) for k, v in self.params)
        if not all(math.isfinite(v) for _, v in params):
            raise DomainError(f"{self.family} parameters must be finite, got {params}")
        object.__setattr__(self, "params", params)

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

    @cached_property  # formatted once per family: config resolution reads it per check
    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}({inner})" if inner else self.family

    # -- evaluation ----------------------------------------------------------

    def eval_jet(self, t, order: int) -> Jet:
        """Univariate jet of v at t (finite t > 0, scalar or array), order <= 4."""
        coeffs = np.stack(self._rows(t, order), axis=-1)
        return Jet(1, order, coeffs.reshape(np.shape(t) + (order + 1,)))

    def values(self, t) -> np.ndarray:
        return self.derivative_values(t, 0)

    def derivative_values(self, t, j: int) -> np.ndarray:
        """v^(j) at t: the degree-j coefficient times j!, as Jet.derivative forms it."""
        row = self._rows(t, j)[j]
        return (row * float(math.factorial(j))).reshape(np.shape(t))

    def _rows(self, t, order: int) -> list[np.ndarray]:
        """Taylor-coefficient rows 0..order of v at t, one array each.

        A 0-d t is computed as a batch of one: numpy's scalar `**` can differ
        from its array loop in the last bit.
        """
        if (isinstance(order, bool) or not isinstance(order, (int, np.integer))
                or not 0 <= order <= MAX_JET_ORDER):
            raise DomainError(f"family jets have an integer order in 0..{MAX_JET_ORDER}, "
                              f"got {order!r}")
        tb = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if not ((tb > 0.0) & (tb < np.inf)).all():  # a NaN fails both
            raise DomainError("radial profiles are evaluated at finite t > 0")
        order = int(order)
        if self.family == "gaussian":
            return compose_rows("exp", _quadratic(tb, order, 0.0, -self.param("a")))
        if self.family == "power_decay":
            return compose_rows("pow", _quadratic(tb, order, 1.0, 1.0), -self.param("a"))
        if self.family == "log_profile":
            rows = compose_rows("log", _quadratic(tb, order, self.param("delta") ** 2, 1.0))
            rows = [0.0 - row * 0.5 for row in rows]
            rows[0] = rows[0] + math.log(self.param("r_ref"))
            return rows
        if self.family == "linear":
            return [tb, np.ones_like(tb)][: order + 1] + [
                np.zeros_like(tb) for _ in range(order - 1)]
        # identically zero at and beyond the support
        inside = tb < self.param("support") * (1.0 - 1e-8)
        if inside.all():
            return self._bump_rows(tb, order)
        rows = [np.zeros_like(tb) for _ in range(order + 1)]
        if inside.any():
            for row, part in zip(rows, self._bump_rows(tb[inside], order)):
                row[inside] = part
        return rows

    def _bump_rows(self, t: np.ndarray, order: int) -> list[np.ndarray]:
        """Rows of the polynomial factor times the smooth cutoff
        exp(1 - 1/(1 - (t/S)^2)), at points t inside the support S."""
        s = self.param("support")
        w = [1.0 - (t / s) ** 2, -2 * t / s**2, (-2 / s**2) / 2][: order + 1]
        recip = compose_rows("recip", w + [None] * (order - 2))
        cut = compose_rows("exp", [(0.0 - recip[0]) + 1.0] + [0.0 - r for r in recip[1:]])
        terms = list(enumerate(self.bump_coeffs()))
        poly = [d / math.factorial(m)
                for m, d in enumerate(polynomial_derivatives(terms, t, order))]
        return mul_rows(cut, poly)

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


def _quadratic(t: np.ndarray, order: int, c0: float, c2: float) -> list:
    """Rows of c0 + c2 t^2 at t; row 2 is a constant, and rows 3 and 4 are
    None, exact zeros for compose_rows."""
    rows = [c0 + c2 * t**2, 2 * c2 * t, (2 * c2) / 2][: order + 1]
    return rows + [None] * (order - 2)


@lru_cache(maxsize=None)
def default_families(radius: float) -> tuple[RadialFunction, ...]:
    """The standard five-family test set, sized to the domain radius; built
    once per radius, as the tuple and its families are immutable."""
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
    if variant not in ("manifold", "interval"):
        raise InadmissibleParameterError(
            f"critical exponent variant must be manifold or interval, got {variant!r}")
    if n <= k * p:
        raise InadmissibleParameterError(
            f"critical exponent needs N > kp (N={n}, k={k}, p={p})"
        )
    lead = n if variant == "manifold" else 1
    return (theta + lead) * p / (n - k * p)


# ---------------------------------------------------------------------------
# norms

# one dict per shared_segments block: weighted_integral's segment stores,
# keyed by its arguments but tol, and the norm_profiles row memos, keyed by
# (v, manifold); under _ROWS, the outermost block's memos of v's own rows,
# keyed by v
_MEMO: ContextVar[dict | None] = ContextVar("radwarp_memo", default=None)
_ROWS = "rows"


@contextmanager
def shared_segments():
    """Let weighted_integral calls that differ only in `tol` share one
    segment store, so a refined integral evaluates only the segments it
    adds, and let all calls on one (v, manifold) share one norm_profiles row
    memo; both are dropped when the block ends, also when it raises.

    Yields the memos of v's own rows, keyed by v: a block inside another
    shares the outer one's, so the caller of the outermost block may drop
    a family's entry once no later call reads it.
    """
    outer = _MEMO.get()
    rows = {} if outer is None else outer[_ROWS]
    token = _MEMO.set({_ROWS: rows})
    try:
        yield rows
    finally:
        _MEMO.reset(token)


def _check_order(j: int) -> None:
    if not 0 <= j <= MAX_JET_ORDER:
        raise InadmissibleParameterError(f"derivative count must be within 0..{MAX_JET_ORDER}")


def _row_source(v: RadialFunction, space: WarpSpec | ManifoldSpec, j: int, memo: dict):
    """rows(t): v's Taylor rows (on a warp) or norm_profiles rows (on a
    manifold) at the nodes t, at least rows 0..j, kept in `memo` by the
    bytes of t and evaluated again only when a higher order is asked for.
    Orders 0 and 1 pass the warp on either side; v's own rows do not read
    it, so one memo serves v on every warp."""
    if isinstance(space, ManifoldSpec):
        evaluate = lambda t, k: geometry.norm_profiles(v, space, t, k)
    else:
        evaluate = v._rows

    def rows(t):
        key = t.tobytes()
        got = memo.get(key)
        if got is None or len(got) <= j:
            got = memo[key] = evaluate(t, j)
        return got
    return rows


def weighted_integral(v: RadialFunction, j: int, p: float, theta: float,
                      space: WarpSpec | ManifoldSpec, tol: float) -> float:
    """int_0^R g(t)^p phi(t)^theta dt, with g = |v^(j)| when `space` is a
    warp (the interval side) and g = |grad^j u|_g, u = v(r), when it is a
    manifold; inf when it diverges, when its integrand is not finite
    somewhere the walk reads it, or, on an unbounded domain, when no
    envelope certifies the tail.

    Orders 0 and 1 read v's own rows on either side (see the module
    docstring).  The integrand depends on these arguments alone, which is
    what lets shared_segments share its segments between calls.  v's rows
    are read through the block's memo, or outside a block through one for
    this call alone (see _row_source).  p must be >= 1 and theta finite.
    """
    _check_order(j)
    p = float(p)
    if not (p >= 1.0 and math.isfinite(theta)):  # a NaN p fails too
        raise InadmissibleParameterError(
            f"norm exponent must be >= 1 and weight power finite, got p={p}, theta={theta}")
    memo = _MEMO.get()
    memo = {_ROWS: {}} if memo is None else memo
    manifold = isinstance(space, ManifoldSpec)
    w = space.warp if manifold else space
    profile = manifold and j >= 2  # the only integrand that reads norm_profiles
    if profile:
        rows = _row_source(v, space, j, memo.setdefault((v, space), {}))
    else:
        rows = _row_source(v, w, j, memo[_ROWS].setdefault(v, {}))
    if profile:
        evaluator = lambda t: rows(t)[j] ** p
    elif manifold and j == 1:
        # squared and rooted as norm_profiles does, so a v' whose square
        # underflows gives 0 alike; |u| = |v| takes the branch below
        evaluator = lambda t: np.sqrt(rows(t)[1] ** 2) ** p
    else:
        scale = float(math.factorial(j))  # v^(j) as derivative_values forms it
        evaluator = lambda t: np.abs(rows(t)[j] * scale) ** p
    # v's envelope bounds |v^(j)|, so |v| and sqrt(v'^2); a manifold profile
    # of order >= 2 has none
    base = None if profile else v.decay_envelope()
    envelope = base.power_scaled(p) if base is not None else None
    if math.isinf(w.radius) and envelope is None:
        return math.inf  # no certified tail: infinite-norm signal
    known = memo.setdefault((v, j, p, theta, space), {})
    # every row is finite at t > 0, so a non-finite value is float64 overflow
    # (rank-4 profiles below r ~ 1e-51): an uncertified integral, inf
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            res = integrate_weighted(Integrand(evaluator, theta, envelope), w, tol, known=known)
        except EvaluationError:
            return math.inf
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
    """The k+1 weighted integrals int |v^(j)|^p phi^(N-1) dt, j = 0..k,
    integrated from j = k down, so the row memo evaluates rows to k first."""
    if n < 2:
        raise InadmissibleParameterError("weight dimension must be >= 2")
    _check_order(k)
    return [weighted_integral(v, j, p, n - 1.0, w, tol) for j in range(k, -1, -1)][::-1]


def sobolev_norm_1d(v: RadialFunction, k: int, p: float, n: int, w: WarpSpec,
                    tol: float = 1e-10) -> float:
    """( sum_{j<=k} int |v^(j)|^p phi^(N-1) )^(1/p); inf on divergence."""
    parts = sobolev_seminorms_1d(v, k, p, n, w, tol)
    total = math.fsum(parts)
    return total ** (1.0 / p) if math.isfinite(total) else math.inf


def norm_term(v: RadialFunction, j: int, p: float, space: WarpSpec | ManifoldSpec, n: int,
              tol: float) -> float:
    """( omega_{N-1} int g^p phi^(N-1) dr )^(1/p), g as in weighted_integral:
    |v^(j)| on a warp, |grad^j u|_g on a manifold of dimension n; inf on
    divergence.

    Angle independence of |grad^j u|_g is a separately tested property, so
    the sphere integral collapses to the radial line.
    """
    if isinstance(space, ManifoldSpec) and n != space.dim:
        raise InadmissibleParameterError(
            f"a norm on a {space.dim}-manifold weighs with N = {space.dim}, got {n}")
    integral = weighted_integral(v, j, p, n - 1.0, space, tol)
    if not math.isfinite(integral):
        return math.inf
    return (sphere_volume(n) * integral) ** (1.0 / p)


def sobolev_norm_manifold(v: RadialFunction, k: int, p: float, m: ManifoldSpec,
                          tol: float = 1e-10) -> float:
    """sum_{j<=k} ( omega_{N-1} int |grad^j u|_g^p phi^(N-1) dr )^(1/p),
    integrated from j = k down as in sobolev_seminorms_1d; fsum rounds once."""
    _check_order(k)
    terms = []
    for j in range(k, -1, -1):
        term = norm_term(v, j, p, m, m.dim, tol)
        if not math.isfinite(term):
            return math.inf
        terms.append(term)
    return math.fsum(terms)


def gradient_norm_manifold(v: RadialFunction, p: float, m: ManifoldSpec,
                           tol: float = 1e-10) -> float:
    """( omega_{N-1} int |grad u|_g^p phi^(N-1) dr )^(1/p), recursion route."""
    return norm_term(v, 1, p, m, m.dim, tol)
