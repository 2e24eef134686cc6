"""Certification harness: quantified numerical checks with verdicts.

Each check pairs two independently computed sides of one mathematical claim
(an identity, an inequality, a divergence law, an embedding constant) and
reports the measured gap or empirical constant together with the exact grid
and tolerances that produced it, so every number in a report is
reproducible.

Empirical constants come with a stability requirement: "finite" is
operationalized as the supremum changing by at most 1% when the underlying
grid is doubled (or the quadrature tolerance tightened, for purely
integral-based constants).  Grid points where both sides of a ratio vanish
are skipped and counted.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import geometry
from .errors import InadmissibleParameterError
from .funcspace import (
    RadialFunction,
    critical_q,
    default_families,
    gradient_norm_manifold,
    lq_theta_norm_1d,
    norm_term,
    sobolev_norm_1d,
    sobolev_norm_manifold,
    shared_segments,
    sobolev_seminorms_1d,
    weighted_integral,
)
from .manifold import (
    WARP_TABLE,
    ManifoldSpec,
    WarpSpec,
    c_phi,
    sphere_volume,
    warp_value,
)
from .quadrature import (
    MIN_TOL,
    Integrand,
    divergence_probe,
    integrate_weighted,
)

_TINY = 1e-300
# the one family the counterexample check evaluates, whatever is configured
_LINEAR = RadialFunction.linear()


@dataclass(frozen=True)
class GridSpec:
    """Logarithmic radial grid; unset bounds follow the standard rule
    [max(1e-3, R/1e4), min(0.999 R, 10)]."""

    n: int = 256
    lo: float | None = None
    hi: float | None = None

    def bounds(self, radius: float) -> tuple[float, float]:
        """(lo, hi) of the grid on a domain of radius R, checked."""
        lo = self.lo if self.lo is not None else max(1e-3, radius / 1e4 if math.isfinite(radius) else 1e-3)
        hi = self.hi if self.hi is not None else min(0.999 * radius, 10.0)
        if self.n < 2:
            raise InadmissibleParameterError(f"radial grid needs at least 2 points, got {self.n}")
        if not geometry.MIN_RADIUS <= lo < hi:
            raise InadmissibleParameterError(
                f"radial grid [{lo}, {hi}] is empty or starts below r = {geometry.MIN_RADIUS}")
        if hi >= radius:
            raise InadmissibleParameterError(f"radial grid ends at {hi}, not below R = {radius}")
        return lo, hi

    def resolve(self, radius: float) -> np.ndarray:
        return np.geomspace(*self.bounds(radius), self.n)

    def doubled(self) -> "GridSpec":
        # with 2n-1 points the original points sit, bit for bit, at the even
        # indices of the refined grid (its log step is exactly half the old one),
        # so a supremum can only grow under doubling
        return GridSpec(2 * self.n - 1, self.lo, self.hi)

    def meta(self, radius: float) -> dict:
        # np.geomspace sets its first and last points to lo and hi exactly
        lo, hi = self.bounds(radius)
        return {"n": self.n, "lo": float(lo), "hi": float(hi), "spacing": "log"}


def _positive_near_edge(w: WarpSpec) -> bool:
    """Warp stays away from 0 at the outer edge of a bounded domain."""
    return float(warp_value(w, w.radius * (1 - 1e-9))) >= 1e-6


@dataclass(frozen=True)
class CheckSpec:
    """One configured check; construction validates parameter admissibility."""

    kind: str
    manifold: ManifoldSpec
    families: tuple[RadialFunction, ...] = ()
    k: int = 1
    p: float = 2.0
    q: float | None = None
    theta: float = 0.0
    j: int | None = None
    grid: GridSpec = field(default_factory=GridSpec)
    tol: float | None = None
    quad_tol: float = 1e-10
    variant: str = "manifold"

    def __post_init__(self):
        if self.kind not in CHECK_KINDS:
            raise InadmissibleParameterError(f"unknown check kind {self.kind!r}")
        row = CHECK_TABLE[self.kind]
        if row.families or not self.families:
            object.__setattr__(
                self, "families", row.families or default_families(self.manifold.warp.radius)
            )
        if self.tol is None:
            object.__setattr__(self, "tol", row.tol)
        self._validate()

    # -- admissibility -------------------------------------------------------

    def _validate(self):
        n, k, p = self.manifold.dim, self.k, self.p
        w = self.manifold.warp
        kind, row = self.kind, CHECK_TABLE[self.kind]
        if not 0 <= k <= 4:
            raise InadmissibleParameterError("derivative count k must be within 0..4")
        if "p" in row.reads and not p >= 1:
            raise InadmissibleParameterError("p must be at least 1")
        if not self.theta >= 0:
            raise InadmissibleParameterError("theta must be nonnegative")
        hi = self.tol if "p" in row.reads else math.inf
        if not MIN_TOL * row.refine <= self.quad_tol <= hi:
            raise InadmissibleParameterError(
                f"quadrature tolerance {self.quad_tol:g} is outside the range {kind} supports"
            )
        # the domain hypotheses of the claim the kind tests
        bounded = math.isfinite(w.radius)
        if row.domain is not None and bounded != (row.domain == "bounded"):
            raise InadmissibleParameterError(f"{kind} requires a {row.domain} domain")
        if bounded and row.edge and not _positive_near_edge(w):
            raise InadmissibleParameterError(
                f"{kind} requires the warp to stay positive near the outer edge"
            )
        if not bounded and row.tail and WARP_TABLE[w.kind].growth is None:
            raise InadmissibleParameterError(f"{kind}: no certified tail growth bound for {w.kind}")
        if row.samples_grid:
            self.grid.bounds(w.radius)
        # the arithmetic each kind adds
        if kind == "identity" and k < 1:
            raise InadmissibleParameterError(
                "identity compares derivatives of orders 1..k, so it needs k >= 1")
        if kind == "radial_lemma_power" and n <= k * p:
            raise InadmissibleParameterError(
                f"power radial lemma needs N > kp (N={n}, k={k}, p={p})"
            )
        if kind == "radial_lemma_log" and not (n == k * p and p > 1):
            raise InadmissibleParameterError(
                f"log radial lemma needs N = kp and p > 1 (N={n}, k={k}, p={p})"
            )
        if kind in ("k1_norm_equality", "decay_lemma") and k != 1:
            raise InadmissibleParameterError(f"{kind} is a first-order statement (k = 1)")
        if kind == "hardy":
            if self.j is None or not 0 <= self.j <= k:
                raise InadmissibleParameterError("hardy check needs a slot j within 0..k")
            if n <= self.j * p:
                raise InadmissibleParameterError(
                    f"hardy inequality needs N > jp (N={n}, j={self.j}, p={p})"
                )
        if kind == "counterexample":
            if w.radius < 0.1:
                raise InadmissibleParameterError(
                    "counterexample probe needs radius >= 0.1 to fit its cut points"
                )
            if k < 2:
                raise InadmissibleParameterError("counterexample needs k >= 2")
            if n > (k - 1) * p:
                raise InadmissibleParameterError(
                    f"counterexample regime needs N <= (k-1)p (N={n}, k={k}, p={p}): "
                    "this is the norm-equivalence regime"
                )
        if kind == "asymptotic_leading" and k not in (2, 3, 4):
            raise InadmissibleParameterError("asymptotic ratio is defined for k in {2, 3, 4}")
        if kind == "embedding_ratio":
            self._validate_embedding()

    def _validate_embedding(self):
        n, k, p, q = self.manifold.dim, self.k, self.p, self.q
        w = self.manifold.warp
        if q is None:
            raise InadmissibleParameterError("embedding check needs a target exponent q")
        if self.variant not in ("manifold", "interval"):
            raise InadmissibleParameterError("embedding variant must be manifold or interval")
        if self.variant == "interval" and self.theta < n - k * p - 1:
            raise InadmissibleParameterError(
                f"interval embedding needs theta >= N-kp-1 = {n - k * p - 1}"
            )
        if self.variant == "manifold" and k >= 2 and math.isinf(w.radius):
            raise InadmissibleParameterError(
                "manifold embedding with k >= 2 needs a bounded domain: no tail of a "
                "covariant derivative of order >= 2 is certified"
            )
        q_lo = 1.0 if math.isfinite(w.radius) else p
        if n > k * p:
            q_hi = critical_q(n, k, p, self.theta, self.variant)
        elif n == k * p:
            q_hi = math.inf
            if math.isfinite(w.radius) and p == 1.0:
                raise InadmissibleParameterError(
                    "borderline N = kp with p = 1 has no power-scale embedding range"
                )
        else:
            raise InadmissibleParameterError(
                f"embedding needs N >= kp (N={n}, k={k}, p={p})"
            )
        if not q_lo <= q <= q_hi:
            raise InadmissibleParameterError(
                f"q={q} outside the admissible range [{q_lo}, {q_hi}]"
            )

    def params_dict(self) -> dict:
        """The manifold, k and both tolerances, then, in field order, each
        field the kind reads; the grid is reported on its own, and families
        by label."""
        w = self.manifold.warp
        reads = CHECK_TABLE[self.kind].reads
        out = {
            "warp": w.kind,
            "R": "inf" if math.isinf(w.radius) else w.radius,
            "N": self.manifold.dim,
            "k": self.k,
            "tol": self.tol,
            "quad_tol": self.quad_tol,
        }
        for f in fields(self):
            if f.name in reads and f.name != "grid":
                value = getattr(self, f.name)
                out[f.name] = [g.label for g in value] if isinstance(value, tuple) else value
        return out


def _json_safe(value):
    """Non-finite floats become strings so reports stay strict JSON."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


@dataclass(frozen=True)
class CheckResult:
    kind: str
    params: dict
    verdict: str
    measured: dict
    worst_case: dict
    grid: dict
    runtime_ms: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": _json_safe(self.params),
            "verdict": self.verdict,
            "measured": _json_safe(self.measured),
            "worst_case": _json_safe(self.worst_case),
            "grid": self.grid,
            "runtime_ms": self.runtime_ms,
        }


@dataclass(frozen=True)
class VerificationReport:
    run_meta: dict
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "run_meta": dict(self.run_meta),
            "checks": [c.to_dict() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# individual checks


def _family_walk(spec: CheckSpec, measure, *args, largest: bool = True):
    """Extreme of measure(f, *args) over spec.families.

    measure returns (value, details) or None to skip the family.  Returns
    (value, worst_case, skipped family labels); the earlier family wins a
    tie, and with every family skipped the value is -1.0 (largest) or inf
    (smallest) with an empty worst case.
    """
    value = -1.0 if largest else math.inf
    worst, skipped = {}, []
    for f in spec.families:
        got = measure(f, *args)
        if got is None:
            skipped.append(f.label)
            continue
        v, details = got
        if (v > value) if largest else (v < value):
            value, worst = v, {**details, "family": f.label}
    return value, worst, skipped


def _relative_change(coarse: float, fine: float) -> float:
    return abs(fine - coarse) / max(coarse, _TINY)


def _refined(spec: CheckSpec, measure, *args):
    """The family walk of measure(f, *args, quad_tol) at spec.quad_tol and at
    quad_tol / refine (the kind's): the tighter walk's (value, worst_case,
    skipped) and the relative change of the constant."""
    coarse = _family_walk(spec, measure, *args, spec.quad_tol)[0]
    fine, worst, skipped = _family_walk(spec, measure, *args,
                                        spec.quad_tol / CHECK_TABLE[spec.kind].refine)
    return fine, worst, skipped, _relative_change(coarse, fine)


def _grid_extreme(values: np.ndarray, grid: np.ndarray, orders=None,
                  largest: bool = True) -> tuple[float, dict]:
    """First largest (or smallest) entry of values and where it sits.

    The last axis of values runs over grid and the first, when orders is
    given, over orders; returns (value, {"r"[, "order"]}).
    """
    flat = int(np.argmax(values) if largest else np.argmin(values))
    row, i = divmod(flat, grid.size)
    where = {"r": float(grid[i])}
    if orders is not None:
        where["order"] = orders[row]
    return float(values.flat[flat]), where


def check_identity(spec: CheckSpec) -> tuple[dict, dict, bool]:
    m = spec.manifold
    grid = spec.grid.resolve(m.warp.radius)
    orders = range(1, spec.k + 1)
    frame = geometry.Frame(m, grid, spec.k)  # the families share its Christoffel rows

    def gap(f):
        _, tensors = frame.bundle(f)
        vjet = frame.jet(f)
        gaps = []
        for order in orders:
            lhs = tensors[order].component((1,) * order).value
            rhs = vjet.derivative(order)
            gaps.append(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))
        return _grid_extreme(np.array(gaps), grid, orders) if gaps else None

    value, worst, _ = _family_walk(spec, gap)
    return {"max_rel_gap": value}, worst, value <= spec.tol


def check_gradient_inequality(spec: CheckSpec) -> tuple[dict, dict, bool]:
    m = spec.manifold
    grid = spec.grid.resolve(m.warp.radius)
    orders = range(spec.k + 1)
    frame = geometry.Frame(m, grid, spec.k)

    def margin(f):
        profiles = frame.norm_profiles(f)
        vjet = frame.jet(f)
        margins = [profiles[order] - np.abs(vjet.derivative(order)) for order in orders]
        return _grid_extreme(np.array(margins), grid, orders, largest=False)

    value, worst, _ = _family_walk(spec, margin, largest=False)
    return {"min_margin": value}, worst, value >= -spec.tol


def check_k1_norm_equality(spec: CheckSpec) -> tuple[dict, dict, bool]:
    m, p = spec.manifold, spec.p

    def rel_diff(f):
        rhs = norm_term(f, 1, p, m.warp, m.dim, spec.quad_tol)
        if not math.isfinite(rhs) or rhs == 0.0:
            return None
        lhs = gradient_norm_manifold(f, p, m, spec.quad_tol)
        return abs(lhs - rhs) / rhs, {"lhs": lhs, "rhs": rhs}

    value, worst, skipped = _family_walk(spec, rel_diff)
    measured = {"max_rel_diff": value, "skipped_families": skipped}
    return measured, worst, 0.0 <= value <= spec.tol


def radial_lemma_profiles(spec: CheckSpec, families) -> tuple[np.ndarray, dict]:
    """(grid, ratios): the doubled grid, whose even-indexed half is the coarse
    one, and the lemma ratio |v(t)| * scale(t) / ||v|| of each family there;
    None if the norm is infinite or zero (the family is skipped)."""
    m, k, p = spec.manifold, spec.k, spec.p
    n, w = m.dim, m.warp
    grid = spec.grid.doubled().resolve(w.radius)
    if spec.kind == "radial_lemma_power":
        scale = warp_value(w, grid) ** ((n - k * p) / p)
        ratio = lambda f, norm: np.abs(f.values(grid)) * scale / norm
    else:
        growth = (np.log(w.radius / grid)) ** ((p - 1) / p) + 1.0
        ratio = lambda f, norm: np.abs(f.values(grid)) / (growth * norm)
    ratios = {}
    for f in families:
        norm = sobolev_norm_1d(f, k, p, n, w, spec.quad_tol)
        ratios[f] = ratio(f, norm) if math.isfinite(norm) and norm != 0.0 else None
    return grid, ratios


def check_radial_lemma(spec: CheckSpec) -> tuple[dict, dict, bool]:
    grid, profiles = radial_lemma_profiles(spec, spec.families)

    def sup(f, step):
        ratio = profiles[f]
        return None if ratio is None else _grid_extreme(ratio[::step], grid[::step])

    coarse = _family_walk(spec, sup, 2)[0]
    fine, worst, skipped = _family_walk(spec, sup, 1)
    change = _relative_change(coarse, fine)
    measured = {
        "constant": fine,
        "constant_coarse_grid": coarse,
        "grid_doubling_change": change,
        "skipped_families": skipped,
    }
    ok = len(skipped) < len(spec.families) and math.isfinite(fine) and change <= spec.tol
    return measured, worst, ok


def _decay_prefactor(n: int, p: float, cphi: float) -> float:
    """(p / (c_phi^(N-1) omega_{N-1}))^(1/p), the decay lemma's constant."""
    return (p / (cphi ** (n - 1) * sphere_volume(n))) ** (1 / p)


def decay_ratio_profile(m: ManifoldSpec, f: RadialFunction, p: float,
                        grid: np.ndarray, quad_tol: float) -> np.ndarray | None:
    """Pointwise decay ratio |v(r)| / (explicit decay bound at r).

    None when the family has no finite nonzero first-order norms on the
    unbounded domain (the family is skipped).  Points where both sides
    vanish would be skipped; with positive warp and norms the bound is
    strictly positive, so the ratio is everywhere well defined.
    """
    n, w = m.dim, m.warp
    omega = sphere_volume(n)
    parts = sobolev_seminorms_1d(f, 1, p, n, w, quad_tol)
    if not all(math.isfinite(x) for x in parts) or math.fsum(parts) == 0.0:
        return None
    lp_norm = (omega * parts[0]) ** (1 / p)
    grad_norm = (omega * parts[1]) ** (1 / p)
    rhs = (
        _decay_prefactor(n, p, c_phi(w))
        * lp_norm ** ((p - 1) / p)
        * grad_norm ** (1 / p)
        * warp_value(w, grid) ** ((1 - n) / p)
    )
    num = np.abs(f.values(grid))
    both_zero = (num <= _TINY) & (np.abs(rhs) <= _TINY)
    return np.where(both_zero, 0.0, num / np.maximum(rhs, _TINY))


def check_decay_lemma(spec: CheckSpec) -> tuple[dict, dict, bool]:
    m = spec.manifold
    cphi = c_phi(m.warp)
    grid = spec.grid.resolve(m.warp.radius)

    def sup(f):
        ratio = decay_ratio_profile(m, f, spec.p, grid, spec.quad_tol)
        return None if ratio is None else _grid_extreme(ratio, grid)

    value, worst, skipped = _family_walk(spec, sup)
    measured = {
        "max_ratio": value,
        "prefactor": _decay_prefactor(m.dim, spec.p, cphi),
        "c_phi": cphi,
        "skipped_points": 0,
        "skipped_families": skipped,
    }
    ok = len(skipped) < len(spec.families) and value <= 1.0 + spec.tol
    return measured, worst, ok


def check_hardy(spec: CheckSpec) -> tuple[dict, dict, bool]:
    m = spec.manifold
    n, k, p, j = m.dim, spec.k, spec.p, spec.j
    w = m.warp

    def ratio(f, quad_tol):
        # only the orders k - j .. k enter the right-hand side, integrated
        # from k down so the row memo evaluates each node array once
        rhs = math.fsum(weighted_integral(f, i, p, n - 1.0, w, quad_tol)
                        for i in range(k, k - j - 1, -1))
        lhs = weighted_integral(f, k - j, p, n - 1.0 - j * p, w, quad_tol)
        if not (math.isfinite(lhs) and math.isfinite(rhs)) or rhs == 0.0:
            return None
        return lhs / rhs, {"lhs": lhs, "rhs": rhs}

    value, worst, skipped, change = _refined(spec, ratio)
    measured = {
        "constant": value,
        "refinement_change": change,
        "skipped_families": skipped,
    }
    ok = (
        math.isfinite(value)
        and value > 0
        and change <= spec.tol
        and (j > 0 or value <= 1.0 + 1e-10)
    )
    return measured, worst, ok


def check_embedding_ratio(spec: CheckSpec) -> tuple[dict, dict, bool]:
    m = spec.manifold
    n, w = m.dim, m.warp
    manifold = spec.variant == "manifold"

    # each side is computed once per argument set: the Sobolev side does not
    # depend on q, and q may coincide with q* or with p
    @functools.cache
    def lebesgue(f, q, quad_tol):
        if manifold:
            return sphere_volume(n) ** (1 / q) * lq_theta_norm_1d(
                f, q, spec.theta + n - 1.0, w, quad_tol
            )
        return lq_theta_norm_1d(f, q, spec.theta, w, quad_tol)

    @functools.cache
    def sobolev(f, quad_tol):
        if manifold:
            return sobolev_norm_manifold(f, spec.k, spec.p, m, quad_tol)
        return sobolev_norm_1d(f, spec.k, spec.p, n, w, quad_tol)

    def ratio(f, q, quad_tol):
        # the Sobolev side first: on one space it evaluates the rows that the
        # Lebesgue side reads
        den = sobolev(f, quad_tol)
        num = lebesgue(f, q, quad_tol)
        if not (math.isfinite(num) and math.isfinite(den)) or den == 0.0:
            return None
        return num / den, {"lq_norm": num, "sobolev_norm": den}

    value, worst, skipped, change = _refined(spec, ratio, spec.q)
    measured = {
        "constant": value,
        "refinement_change": change,
        "skipped_families": skipped,
    }
    if math.isinf(w.radius) and n > spec.k * spec.p:
        q_star = critical_q(n, spec.k, spec.p, spec.theta, spec.variant)
        measured["constant_at_q_lower"] = _family_walk(spec, ratio, spec.p, spec.quad_tol)[0]
        measured["constant_at_q_critical"] = _family_walk(spec, ratio, q_star, spec.quad_tol)[0]
    ok = (
        len(skipped) < len(spec.families)
        and math.isfinite(value)
        and value > 0
        and change <= spec.tol
    )
    return measured, worst, ok


def counterexample_exponent(spec: CheckSpec) -> float:
    """N - 1 - (k - 1) p, the exponent of the weight the probe integrates."""
    return spec.manifold.dim - 1.0 - (spec.k - 1) * spec.p


def check_counterexample(spec: CheckSpec) -> tuple[dict, dict, bool]:
    m = spec.manifold
    n, k, p = m.dim, spec.k, spec.p
    w = m.warp
    alpha = counterexample_exponent(spec)

    weight_res = integrate_weighted(Integrand(np.ones_like, n - 1.0), w, spec.quad_tol)
    interval_norm = sobolev_norm_1d(_LINEAR, k, p, n, w, spec.quad_tol)

    r0 = min(1.0, w.radius / 2.0)
    probe = divergence_probe(
        Integrand(np.ones_like, alpha),
        w,
        r0,
        [1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
    )
    expect_log = alpha == -1.0
    expected_exponent = 0.0 if expect_log else -(alpha + 1.0)
    if expect_log:
        law_ok = probe.kind == "log"
    else:
        law_ok = probe.kind == "power" and abs(
            probe.exponent - expected_exponent
        ) <= spec.tol * abs(expected_exponent)
    measured = {
        "fitted_law": probe.kind,
        "fitted_exponent": probe.exponent,
        "expected_law": "log" if expect_log else "power",
        "expected_exponent": expected_exponent,
        "fit_residual": probe.residual,
        "interval_norm": interval_norm,
        "weight_integrable": bool(weight_res.converged),
    }
    ok = law_ok and math.isfinite(interval_norm) and weight_res.converged
    worst = {"r0": r0, "family": _LINEAR.label}
    return measured, worst, ok


def check_asymptotic_leading(spec: CheckSpec) -> tuple[dict, dict, bool]:
    m = spec.manifold
    k = spec.k
    target = (-1.0) ** k * math.factorial(k - 2)
    r_coarse, r_fine = 1e-2, 1e-3
    ratio_coarse = geometry.asymptotic_leading_ratio(m, k, r_coarse)
    ratio_fine = geometry.asymptotic_leading_ratio(m, k, r_fine)
    err_coarse = abs(ratio_coarse - target)
    err_fine = abs(ratio_fine - target)
    if k == 2:
        ok = err_fine <= 1e-12 and err_coarse <= 1e-12
    else:
        ok = err_fine <= spec.tol * abs(target) and err_fine <= err_coarse + 1e-9
    measured = {
        "target": target,
        "ratio_at_1e-2": ratio_coarse,
        "ratio_at_1e-3": ratio_fine,
    }
    worst = {"r": r_fine, "abs_error": err_fine}
    return measured, worst, ok


@dataclass(frozen=True)
class CheckKind:
    """One check kind: what it runs and the hypotheses of the claim it tests.

    `reads` names the optional check fields the kind reads (the grid fields
    for a kind that samples spec.grid); the report's params list only what
    the kind reads.  `domain` is "bounded", "unbounded" or None for either.
    On a bounded domain `edge` asks the warp to stay positive near the outer
    edge; on R = inf `tail` asks for a certified warp tail growth bound,
    which only warps with c_phi = 1 have.  `families`, when set, are the
    families the kind evaluates; they replace spec.families.
    `refine` divides quad_tol for the tighter family walk of a refined
    constant (_refined), so quad_tol must be at least MIN_TOL * refine.
    """

    run: Callable[[CheckSpec], tuple[dict, dict, bool]]
    tol: float  # default verdict tolerance
    reads: frozenset = frozenset()
    domain: str | None = None
    edge: bool = False
    tail: bool = False
    families: tuple[RadialFunction, ...] = ()
    refine: float = 1.0

    @property
    def samples_grid(self) -> bool:
        return "grid" in self.reads


# the fields of a family walk over a radial grid and of one over norms of
# exponent p; every kind but asymptotic_leading walks spec.families
_GRID_FIELDS = frozenset({"families", "grid", "grid_lo", "grid_hi"})
_NORM_FIELDS = frozenset({"families", "p"})
_RADIAL_LEMMA = CheckKind(check_radial_lemma, 0.01, _GRID_FIELDS | _NORM_FIELDS, "bounded",
                          edge=True)

CHECK_TABLE = {
    "identity": CheckKind(check_identity, 1e-8, _GRID_FIELDS),
    "gradient_inequality": CheckKind(check_gradient_inequality, 1e-10, _GRID_FIELDS),
    "k1_norm_equality": CheckKind(check_k1_norm_equality, 1e-8, _NORM_FIELDS, tail=True),
    "radial_lemma_power": _RADIAL_LEMMA,
    "radial_lemma_log": _RADIAL_LEMMA,
    "decay_lemma": CheckKind(check_decay_lemma, 1e-6, _GRID_FIELDS | _NORM_FIELDS, "unbounded",
                             tail=True),
    "hardy": CheckKind(check_hardy, 0.01, _NORM_FIELDS | {"j"}, "bounded", edge=True,
                       refine=16.0),
    "embedding_ratio": CheckKind(check_embedding_ratio, 0.01,
                                 _NORM_FIELDS | {"q", "theta", "variant"},
                                 edge=True, tail=True, refine=16.0),
    # accepts families, as generated configs give one to every check
    "counterexample": CheckKind(check_counterexample, 0.02, _NORM_FIELDS, "bounded",
                                families=(_LINEAR,)),
    "asymptotic_leading": CheckKind(check_asymptotic_leading, 0.01),
}
CHECK_KINDS = tuple(CHECK_TABLE)
# the check fields only some kinds read
OPTIONAL_FIELDS = frozenset().union(*(row.reads for row in CHECK_TABLE.values()))


def run_check(spec: CheckSpec) -> CheckResult:
    row = CHECK_TABLE[spec.kind]
    start = time.perf_counter()
    # the refined walks of a check share their quadrature segments
    with shared_segments():
        measured, worst, ok = row.run(spec)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    grid_meta = spec.grid.meta(spec.manifold.warp.radius) if row.samples_grid else {}
    return CheckResult(
        kind=spec.kind,
        params=spec.params_dict(),
        verdict="pass" if ok else "fail",
        measured=measured,
        worst_case=worst,
        grid=grid_meta,
        runtime_ms=elapsed_ms,
    )


def run_suite(specs) -> VerificationReport:
    """Run all checks in order into one report."""
    results = [run_check(s) for s in specs]
    meta = {
        "check_count": len(results),
        "passed": sum(r.verdict == "pass" for r in results),
    }
    return VerificationReport(meta, tuple(results))
