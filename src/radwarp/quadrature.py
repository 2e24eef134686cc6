"""Adaptive weighted integration on (0, R) with endpoint-aware panelling.

Integrals of the form  int_0^R f(t) * phi(t)^theta_w dt  are computed with
Gauss-Kronrod 15(7) panels arranged dyadically toward the origin, where the
weight behaves like t^theta_w; the geometric grading equidistributes the
error without Jacobi-weighted rules.  Unbounded domains are truncated at a
point T whose tail contribution is bounded through a declared decay envelope
(coef * t^power * exp(-rate t - quad_rate t^2)) times the envelope of the
warp weight (from its row in manifold.WARP_TABLE); the tail bound is one
elementary formula, and it is folded into the reported error estimate, so
truncation stays certified.

Integrands are evaluated strictly inside (0, R); the endpoints are never
touched.  All panel schedules and summation orders are fixed, so results are
deterministic for identical inputs.

Segment results come from one store per integral, a dict from (a, b) to
the segment's result: each segment is evaluated when first asked for, then
kept.  A request evaluates only the missing segments, and batches them: each
evaluator call receives a flat 1-D array holding the 15 nodes of up to 16
GK segments (240 points).  Bisection is breadth first, one request per
level, and when a dyadic panel's root segment is not yet known, the roots of
that panel and the next 7 are requested together.  Every accept and stop
decision depends only on segment results, and each segment is summed on its
own, so the results are those of evaluating one segment per call, bit for
bit.  For the same reason a store can outlive its integral: a caller that
passes one store to the integrals of an equal weighted integrand (at a
tighter tolerance, say) has each segment evaluated once.

Each segment's K and G sums are BLAS ddot products; on OpenBLAS 0.3
(Haswell kernels) ddot equals a sequential fused multiply-add chain from 0.0
on random rows.  An evaluator call takes the sums of all its segments as
stacked vector products, y[:, None, :] @ w, for which numpy runs ddot once
per row, so each sum keeps the bits of the segment's own 1-D product.  The
rows of segments holding a non-finite value are zeroed first, so that no
RuntimeWarning is raised and the other rows keep their bits.  Other forms
round differently.  In 5,000 random calls of 1 to 16 segments, the
matrix-matrix product (n, 15) @ (15, 2) (gemm) differed in 105, all of
them one-segment calls, and it loads BLAS-3 code, which raises peak
memory; (n, 1, 15) @ (15, 2) differed in 4,551 and np.einsum in 4,802.
A matrix-vector product (gemv) or np.add.accumulate rounds differently in
nearly every row.  np.vecdot keeps the bits but needs numpy >= 2.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .manifold import WarpSpec, warp_growth_bounds, warp_value

# Gauss-Kronrod 15(7) nodes on [-1, 1] and the matching weights.  Gauss
# weights are zero on the Kronrod-only nodes.
_GK_NODES = np.array([
    0.000000000000000,
    -0.207784955007898, 0.207784955007898,
    -0.405845151377397, 0.405845151377397,
    -0.586087235467691, 0.586087235467691,
    -0.741531185599394, 0.741531185599394,
    -0.864864423359769, 0.864864423359769,
    -0.949107912342759, 0.949107912342759,
    -0.991455371120813, 0.991455371120813,
])
_GK_WEIGHTS_K = np.array([
    0.209482141084728,
    0.204432940075298, 0.204432940075298,
    0.190350578064785, 0.190350578064785,
    0.169004726639267, 0.169004726639267,
    0.140653259715525, 0.140653259715525,
    0.104790010322250, 0.104790010322250,
    0.063092092629979, 0.063092092629979,
    0.022935322010529, 0.022935322010529,
])
_GK_WEIGHTS_G = np.array([
    0.417959183673469,
    0.000000000000000, 0.000000000000000,
    0.381830050505119, 0.381830050505119,
    0.000000000000000, 0.000000000000000,
    0.279705391489277, 0.279705391489277,
    0.000000000000000, 0.000000000000000,
    0.129484966168870, 0.129484966168870,
    0.000000000000000, 0.000000000000000,
])

_MACHINE_FLOOR = 32 * np.finfo(np.float64).eps
_MAX_BISECT_DEPTH = 26
_MAX_PANEL_LEVELS = 200

# cap on the GK subdivisions of one integral: no integral of the default
# suite needs more than 81, so the cap only stops runaway refinement
_PANEL_BUDGET = 4000

# the smallest tolerance integrate_weighted accepts
MIN_TOL = 1e-13

# segments per evaluator call: a bisection level or prefetch of the default
# suite or of the interval-norm checks asks for at most 10 segments, so the
# cap only bounds the memory of one call on a runaway bisection level
_CALL_SEGMENTS = 16
# panels whose root segments are prefetched in one call; most integrals of
# the default suite stop within 8 panels of a prefetch
_PREFETCH_PANELS = 8


@dataclass(frozen=True)
class DecayEnvelope:
    """Certified bound |f(t)| <= coef * t^power * exp(-rate*t - quad_rate*t^2).

    Valid for t >= valid_from.  The quadratic term carries Gaussian-type
    profiles, whose tails would otherwise be uncertifiable against
    exponentially growing warp weights; it must be nonnegative.  A negative
    rate bounds growth, as for the warp weights.  coef == 0 encodes compact
    support: the function vanishes beyond valid_from exactly.
    """

    coef: float
    power: float = 0.0
    rate: float = 0.0
    valid_from: float = 1.0
    quad_rate: float = 0.0

    def __post_init__(self):
        if not self.coef >= 0.0:
            raise DomainError("decay envelope needs a nonnegative coefficient")
        if not self.quad_rate >= 0.0:
            raise DomainError("decay envelope needs a nonnegative quadratic rate")
        if math.isnan(self.power) or math.isnan(self.rate) or math.isnan(self.valid_from):
            raise DomainError("decay envelope fields must not be NaN")

    def power_scaled(self, q: float) -> "DecayEnvelope":
        if q < 0:
            raise DomainError("cannot raise a decay envelope to a negative power")
        return DecayEnvelope(
            self.coef**q, self.power * q, self.rate * q, self.valid_from, self.quad_rate * q
        )

    def times(self, other: "DecayEnvelope") -> "DecayEnvelope":
        return DecayEnvelope(
            self.coef * other.coef,
            self.power + other.power,
            self.rate + other.rate,
            max(self.valid_from, other.valid_from),
            self.quad_rate + other.quad_rate,
        )

    def tail_integral(self, t: float) -> float:
        """Upper bound for the integral of the envelope over [t, inf).

        For s >= t, log(s/t) <= (s-t)/t gives s^P <= t^P exp(P (s-t)/t) when
        P >= 0, so the integral is at most coef t^P exp(-rate t) / (rate -
        max(P, 0)/t) whenever that denominator is positive; for P <= 0 this
        is the exact integral of the bound t^P exp(-rate s).
        """
        if self.coef == 0.0:
            return 0.0
        t = max(t, self.valid_from)
        # exp(-c s^2) <= exp(-c t s) for s >= t folds the quadratic term
        # into an effective linear rate at the truncation point
        rate = self.rate + self.quad_rate * t
        margin = rate - max(self.power, 0.0) / t
        if margin > 0:
            return self.coef * t**self.power * math.exp(-rate * t) / margin
        if rate == 0.0 and self.power < -1.0:
            return self.coef * t ** (self.power + 1.0) / (-self.power - 1.0)
        return math.inf


@dataclass(frozen=True)
class Integrand:
    """Evaluator on (0, R), to be integrated against phi^weight_exponent.

    `envelope` bounds the raw evaluator (without the warp weight) on the tail
    of an unbounded domain; it is required there and ignored otherwise.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    weight_exponent: float = 0.0
    envelope: DecayEnvelope | None = None


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions: int
    converged: bool


def _weighted(f: Integrand, w: WarpSpec) -> Callable[[np.ndarray], np.ndarray]:
    """f.evaluator times the warp weight phi^f.weight_exponent."""
    if f.weight_exponent == 0.0:
        return lambda t: np.asarray(f.evaluator(t), dtype=np.float64)
    return lambda t: np.asarray(f.evaluator(t), dtype=np.float64) * warp_value(
        w, t
    ) ** f.weight_exponent


def _warp_power_envelope(w: WarpSpec, theta_w: float) -> DecayEnvelope:
    """Envelope of phi(t)^theta_w on the tail of an unbounded domain."""
    if theta_w == 0.0:
        return DecayEnvelope(1.0, 0.0, 0.0, 1.0)
    upper, lower = warp_growth_bounds(w)
    coef, power, rate = upper if theta_w > 0 else lower
    return DecayEnvelope(coef**theta_w, power * theta_w, rate * theta_w)


def _gk_segments(fn, bounds) -> list[tuple[float, float, float | None]]:
    """GK 15(7) (value, error, first non-finite node or None) of each [a, b].

    Up to _CALL_SEGMENTS segments share one evaluator call, and one finiteness
    test covers the call.  The call's segments are summed with two stacked
    vector products, one ddot per segment and weight vector (see the module
    docstring for why that keeps the bits); the rows of segments holding a
    non-finite value are zeroed first.  Non-finite values are reported, not
    raised, so that a segment evaluated ahead raises only if its result is
    used.
    """
    out = []
    for i in range(0, len(bounds), _CALL_SEGMENTS):
        chunk = bounds[i:i + _CALL_SEGMENTS]
        halves = [0.5 * (b - a) for a, b in chunk]
        mids = np.array([0.5 * (a + b) for a, b in chunk])
        x = (mids[:, None] + np.array(halves)[:, None] * _GK_NODES).ravel()
        y = np.asarray(fn(x), dtype=np.float64)
        if y.shape != x.shape:
            raise EvaluationError("integrand evaluator must be vectorized over its input")
        y = y.reshape(-1, _GK_NODES.size)
        ok = np.isfinite(y)
        finite = ok.all(axis=1)
        if not finite.all():  # zeroed rows raise no RuntimeWarning
            y = np.where(finite[:, None], y, 0.0)
        ks = (y[:, None, :] @ _GK_WEIGHTS_K).ravel().tolist()
        gs = (y[:, None, :] @ _GK_WEIGHTS_G).ravel().tolist()
        for j, (half, k, g, good) in enumerate(zip(halves, ks, gs, finite.tolist())):
            if not good:
                xs = x[j * _GK_NODES.size:(j + 1) * _GK_NODES.size]
                out.append((math.nan, math.nan, xs[~ok[j]][0]))
                continue
            k, g = half * k, half * g
            out.append((k, abs(k - g), None))
    return out


def _segment_source(fn, known: dict):
    """segments(bounds): the results of the segments [a, b] in `bounds`,
    evaluating through _gk_segments only those not in `known`, which keeps
    them."""
    def segments(bounds):
        missing = [ab for ab in bounds if ab not in known]
        if missing:
            known.update(zip(missing, _gk_segments(fn, missing)))
        return [known[ab] for ab in bounds]
    return segments


def _non_finite(t) -> EvaluationError:
    return EvaluationError(f"integrand produced a non-finite value near t={t!r}")


def _adaptive_interval(segments, a: float, b: float, tol_abs: float,
                       budget: int = _PANEL_BUDGET) -> tuple[float, float, int]:
    """Breadth-first bisection on [a, b]; error target proportional to length.

    The live segments of a level are evaluated together.  A segment's accept
    test depends on that segment alone, so the accepted set equals that of
    a depth-first search.  A non-finite segment stops refinement to its
    right, and the error names the leftmost one, which depth-first order
    meets first.  `segments` maps a list of (a, b) to their results.

    At most `budget` (>= 1) segments are accepted: each bisection adds one,
    so once a level's failing segments outnumber what is left, those to the
    right of the last that fits are accepted as they stand, as at
    _MAX_BISECT_DEPTH.
    """
    length = b - a
    accepted = []  # (left endpoint, value, error)
    bad = None
    level = [(a, b)]
    depth = 0
    while level:
        children, failed = [], []
        for (lo, hi), (val, err, bad_t) in zip(level, segments(level)):
            if bad_t is not None:
                bad = bad_t
                break  # segments to its right would be refined after it
            target = tol_abs * (hi - lo) / length + _MACHINE_FLOOR * abs(val)
            if err <= target or depth >= _MAX_BISECT_DEPTH:
                accepted.append((lo, val, err))
            else:
                mid = 0.5 * (lo + hi)
                children += [(lo, mid), (mid, hi)]
                failed.append((lo, val, err))
        room = budget - len(accepted) - len(failed)  # bisections that fit, >= 0
        if room < len(failed):
            accepted += failed[room:]
            children = children[:2 * room]
        level = children
        depth += 1
    if bad is not None:
        raise _non_finite(bad)
    accepted.sort(key=lambda s: s[0])
    value = math.fsum(s[1] for s in accepted)
    error = math.fsum(s[2] for s in accepted)
    return value, error, len(accepted)


def _panel_integral(segments, known: dict, a: float, b: float, tol_abs: float,
                    budget: int = _PANEL_BUDGET) -> tuple[float, float, int]:
    """_adaptive_interval(segments, a, b, tol_abs, budget), whose root segment is in
    `known`; read straight from the root when its level-0 test accepts it.

    The test is _adaptive_interval's expression, so it decides the same way,
    and a NaN error (a non-finite root) fails it.  `+ 0.0` repeats
    math.fsum([-0.0]) == 0.0; the error is an abs, never -0.0.
    """
    val, err, _ = known[(a, b)]
    length = b - a
    if err <= tol_abs * length / length + _MACHINE_FLOOR * abs(val):
        return val + 0.0, err, 1
    return _adaptive_interval(segments, a, b, tol_abs, budget)


def _panel(upper: float, m: int) -> tuple[float, float]:
    """The dyadic panel [U 2^-(m+1), U 2^-m]."""
    return upper * 2.0 ** -(m + 1), upper * 2.0**-m


def _prefetch(segments, upper: float, m: int, budget: int) -> None:
    """Evaluate the root segments of panels m, m+1, ... in one call.

    Only panels the sequential loop may still reach: none past
    _MAX_PANEL_LEVELS, and at most `budget` of them, since each panel takes
    at least one subdivision.
    """
    last = min(m + _PREFETCH_PANELS, _MAX_PANEL_LEVELS + 1, m + budget)
    segments([_panel(upper, i) for i in range(m, last)])


def _truncation_point(env: DecayEnvelope, budget: float) -> float | None:
    t = max(env.valid_from, 1.0)
    while t < 2.0**40:
        if env.tail_integral(t) <= budget:
            return t
        t *= 2.0
    return None


def _remaining_mass_estimate(weighted, a: float) -> float:
    """Crude log-grid estimate of the integral over (0, a).

    Guards the small-panel early stop against integrands whose support sits
    far below the current panel scale (a narrow bump on a large domain would
    otherwise be missed entirely).  Midpoint rule in log coordinates over 24
    octaves; resolution floor a * 2^-24.
    """
    t = a * 2.0 ** -np.arange(1, 25, dtype=np.float64)
    y = np.abs(np.asarray(weighted(t), dtype=np.float64))
    return float(np.sum(y * t) * math.log(2.0))


def integrate_weighted(f: Integrand, w: WarpSpec, tol: float = 1e-10,
                       known: dict | None = None) -> QuadResult:
    """Integrate f.evaluator(t) * phi(t)^f.weight_exponent over (0, R).

    Panels are [U 2^-(m+1), U 2^-m] for m = 0, 1, ...; refinement toward the
    origin stops once two consecutive panel contributions fall below the
    running tolerance, and the leftover sliver is bounded by geometric
    extrapolation.  Divergent behaviour toward 0 (contributions that keep
    growing) yields converged=False with an infinite error estimate, and so
    does a walk that stops on the panel budget or the level cap before its
    contributions show a positive decay ratio.

    `known` is the segment store {(a, b): result}, a fresh one when None;
    pass one store only to integrals of one weighted integrand.

    On an unbounded domain the panels start at the truncation point U where
    the envelope tail drops below tol/4.  When the envelope certifies no
    such U, the integrand is never evaluated: the result is
    converged=False with infinite value and error and no subdivisions.
    """
    if not tol >= MIN_TOL:
        raise DomainError(f"quadrature tolerance below {MIN_TOL:g} is not supported")

    tail_bound = 0.0
    upper = w.radius
    if math.isinf(w.radius):
        if f.envelope is None:
            raise DomainError("integration over an unbounded domain requires a decay envelope")
        total_env = f.envelope.times(_warp_power_envelope(w, f.weight_exponent))
        upper = _truncation_point(total_env, tol / 4.0)
        if upper is None:
            return QuadResult(math.inf, math.inf, 0, False)  # no certified tail
        tail_bound = total_env.tail_integral(upper)

    weighted = _weighted(f, w)
    known = {} if known is None else known
    segments = _segment_source(weighted, known)

    contributions: list[float] = []
    errors: list[float] = []
    subdivisions = 0
    total = 0.0
    small_run = 0
    growth_run = 0
    diverging = settled = False
    m = 0
    while m <= _MAX_PANEL_LEVELS and subdivisions < _PANEL_BUDGET:
        a_panel, b_panel = _panel(upper, m)
        if (a_panel, b_panel) not in known:
            _prefetch(segments, upper, m, _PANEL_BUDGET - subdivisions)
        scale = max(1.0, abs(total))
        panel_tol = tol * scale / (8.0 * (m + 1) * (m + 2))
        val, err, nsub = _panel_integral(segments, known, a_panel, b_panel, panel_tol,
                                         _PANEL_BUDGET - subdivisions)
        contributions.append(val)
        errors.append(err)
        subdivisions += nsub
        total = math.fsum(contributions)
        stop_tol = tol * max(1.0, abs(total)) / 32.0
        if abs(val) + err <= stop_tol:
            small_run += 1
            growth_run = 0
            if small_run >= 2:
                if _remaining_mass_estimate(weighted, a_panel) <= stop_tol:
                    settled = True
                    break
                small_run = 0  # mass detected further down: keep descending
        else:
            small_run = 0
            if m >= 1 and abs(val) >= 0.999 * abs(contributions[-2]):
                growth_run += 1
                if growth_run >= 8:
                    diverging = True
                    break
            else:
                growth_run = 0
        m += 1

    value = math.fsum(reversed(contributions))  # ascending t order

    if diverging:
        sliver = math.inf
    else:
        # contributions of an integrable singularity decay geometrically;
        # bound the uncovered sliver (0, U 2^-(m+1)) by extrapolating the
        # worst recent decay ratio.  Without a positive ratio the sliver is
        # bounded only by the small-panel stop's mass estimate: a walk
        # stopped by the budget or the level cap leaves it unbounded.
        tail_c = [abs(c) for c in contributions[-4:]]
        ratios = [tail_c[i + 1] / tail_c[i] for i in range(len(tail_c) - 1) if tail_c[i] > 0]
        q = max(ratios) if ratios else 0.0
        if q == 0.0:
            sliver = 0.0 if settled else math.inf
        elif q < 0.97:
            sliver = abs(contributions[-1]) * q / (1.0 - q)
        else:
            sliver = math.inf

    error_estimate = math.fsum(errors) + sliver + tail_bound
    converged = error_estimate <= tol * max(1.0, abs(value))
    return QuadResult(value, error_estimate, subdivisions, converged)


# ---------------------------------------------------------------------------
# divergence probing near the origin


@dataclass(frozen=True)
class ProbeResult:
    """Fitted behaviour of I(eps) = int_eps^R0 of a weighted integrand.

    kind is "power" (I ~ eps^-exponent), "log" (I ~ exponent * log(1/eps)),
    or "convergent" (I settles; exponent 0).
    """

    kind: str
    exponent: float
    residual: float


def _integrate_log_window(weighted, lo: float, hi: float, tol: float) -> float:
    """Integral over [lo, hi] via s = log t substitution, GK panels in s."""
    transformed = lambda s: weighted(np.exp(s)) * np.exp(s)
    segments = _segment_source(transformed, {})
    a, b = math.log(lo), math.log(hi)
    parts = []
    for val, _, bad_t in segments(
        [(a + (b - a) * i / 8, a + (b - a) * (i + 1) / 8) for i in range(8)]
    ):
        if bad_t is not None:
            raise _non_finite(bad_t)
        parts.append(val)
    coarse = math.fsum(parts)
    value, _, _ = _adaptive_interval(segments, a, b, tol * max(1.0, abs(coarse)))
    return value


def divergence_probe(f: Integrand, w: WarpSpec, r0: float, eps_list) -> ProbeResult:
    """Fit how int_eps^r0 f * phi^theta_w behaves as eps decreases.

    A power law I ~ eps^-e is fitted on log I vs log(1/eps); a logarithmic
    law I ~ s log(1/eps) on I vs log(1/eps).  Near-constant values signal a
    convergent integral and return exponent 0.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 4:
        raise DomainError("divergence probe needs at least 4 cut points")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise DomainError("cut points must be strictly decreasing")
    if eps[-1] < 1e-6:
        raise DomainError("smallest cut point must be at least 1e-6")
    if not (0 < eps[0] < r0 <= w.radius):
        raise DomainError("cut points must lie inside (0, r0] with r0 <= R")

    weighted = _weighted(f, w)

    v = np.array([_integrate_log_window(weighted, e, r0, 1e-10) for e in eps])
    x = np.log(1.0 / np.array(eps))

    spread = np.max(v) - np.min(v)
    if spread <= 1e-3 * max(np.max(np.abs(v)), 1e-300):
        return ProbeResult("convergent", 0.0, 0.0)

    def _fit(xs, ys):
        a = np.vstack([xs, np.ones_like(xs)]).T
        sol, *_ = np.linalg.lstsq(a, ys, rcond=None)
        resid = ys - a @ sol
        denom = np.std(ys) + 1e-300
        return float(sol[0]), float(np.sqrt(np.mean(resid**2)) / denom)

    fits = {}
    if np.all(v > 0):
        slope, resid = _fit(x, np.log(v))
        fits["power"] = (slope, resid)
    slope_log, resid_log = _fit(x, v)
    fits["log"] = (slope_log, resid_log)

    kind = min(fits, key=lambda k: fits[k][1])
    slope, resid = fits[kind]
    if kind == "power" and abs(slope) < 0.05:
        return ProbeResult("convergent", 0.0, resid)
    return ProbeResult(kind, slope, resid)
