"""Closed-form oracles and jet helpers shared by the test modules.

Everything here is written down independently of the package internals so
it can act as a trusted second route.
"""

import math
from itertools import product

import numpy as np

from radwarp.errors import DimensionError, EvaluationError
from radwarp.geometry import christoffel_at, covariant_bundle, pointwise_norm
from radwarp.jets import (Jet, _combine_base, _series_coeffs, compose_coeffs, embed_univariate,
                          jet_compose_univariate, jet_constant, jet_from_derivatives, jet_mul,
                          jet_partial, mul_table, n_terms, polynomial_derivatives, taylor_coeffs)
from radwarp.manifold import WarpSpec, default_point, metric_at, warp_eval
from radwarp.quadrature import _CALL_SEGMENTS, _GK_NODES, _GK_WEIGHTS_G, _GK_WEIGHTS_K


def jet_add(a: Jet, b: Jet) -> Jet:
    """a + b, cut to the lower of the two orders."""
    if a.num_vars != b.num_vars:
        raise DimensionError(f"cannot add jets in {a.num_vars} and {b.num_vars} variables")
    base = _combine_base(a.base, b.base)
    order = min(a.order, b.order)
    keep = n_terms(a.num_vars, order)
    return Jet(a.num_vars, order, a.coeffs[..., :keep] + b.coeffs[..., :keep], base)


def jet_scale(a: Jet, s) -> Jet:
    """s * a for a scalar (or batch) s."""
    return Jet(a.num_vars, a.order, a.coeffs * np.asarray(s, dtype=np.float64)[..., None], a.base)


def jet_shift(a: Jet, s) -> Jet:
    """a + s for a constant s."""
    return Jet(a.num_vars, a.order, _shift_coeffs(a.coeffs, s), a.base)


def _shift_coeffs(coeffs: np.ndarray, s) -> np.ndarray:
    """coeffs plus the constant s over broadcast batch shapes; -0.0 comes out +0.0."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], s.shape) + coeffs.shape[-1:])
    out += coeffs
    out[..., 0] += s
    return out


def mul_coeffs_reduceat(a: np.ndarray, b: np.ndarray, table) -> np.ndarray:
    """`jets.mul_coeffs` as a plain gather of the pairs in output order and
    one np.add.reduceat over the table's segments: the route whose bits the
    summing plan keeps."""
    return np.add.reduceat(a[..., table.ia] * b[..., table.ib], table.starts, axis=-1)


def oracle_family_coeffs(v, t, order: int) -> np.ndarray:
    """Coefficients of a RadialFunction's jet at t, coefficient axis last, by
    the chain of coefficient-array operations (`compose_coeffs`, constant
    shifts, `taylor_coeffs`, `mul_coeffs_reduceat`) whose bits the family
    rows keep."""
    ta = np.asarray(t, dtype=np.float64)

    def quadratic(c0, c2):  # c0 + c2 t^2
        rows = [c0 + c2 * ta**2, 2 * c2 * ta, np.full_like(ta, 2 * c2)][: order + 1]
        return taylor_coeffs(rows + [np.zeros_like(ta)] * max(0, order - 2))

    if v.family == "gaussian":
        return compose_coeffs("exp", quadratic(0.0, -v.param("a")), 1)
    if v.family == "power_decay":
        return compose_coeffs("pow", quadratic(1.0, 1.0), 1, -v.param("a"))
    if v.family == "log_profile":
        inner = quadratic(v.param("delta") ** 2, 1.0)
        return _shift_coeffs(-(compose_coeffs("log", inner, 1) * 0.5), math.log(v.param("r_ref")))
    if v.family == "linear":
        return taylor_coeffs(polynomial_derivatives([(1, 1.0)], ta, order))
    s = v.param("support")
    tb = np.atleast_1d(ta)
    out = np.zeros(tb.shape + (order + 1,))
    inside = tb < s * (1.0 - 1e-8)
    if np.any(inside):
        ti = tb[inside]
        w_rows = [1.0 - (ti / s) ** 2, -2 * ti / s**2, np.full_like(ti, -2 / s**2)]
        w = taylor_coeffs((w_rows + [np.zeros_like(ti)] * order)[: order + 1])
        cut = compose_coeffs("exp", _shift_coeffs(-compose_coeffs("recip", w, 1), 1.0), 1)
        poly = taylor_coeffs(polynomial_derivatives(list(enumerate(v.bump_coeffs())), ti, order))
        out[inside] = mul_coeffs_reduceat(cut, poly, mul_table(1, order, order))
    return out[0] if ta.ndim == 0 else out


class Poly:
    """Radial profile sum c_m t^m with exact jets."""

    def __init__(self, *coeffs):
        self.coeffs = coeffs

    def eval_jet(self, t, order):
        ta = np.asarray(t, dtype=np.float64)
        rows = []
        for m in range(order + 1):
            acc = np.zeros_like(ta)
            for deg, c in enumerate(self.coeffs):
                if deg >= m:
                    fall = math.factorial(deg) // math.factorial(deg - m)
                    acc = acc + c * fall * ta ** (deg - m)
            rows.append(acc)
        return jet_from_derivatives(np.stack(rows))


def oracle_compose(f: str, inner: Jet, alpha=None) -> Jet:
    """f(inner) by Horner's rule on Jet objects: one jet_mul by the nilpotent
    part of inner and one Jet sum with the next series coefficient per step,
    the operations `jets.compose_coeffs` runs on bare arrays."""
    order = inner.order
    c = _series_coeffs(f, inner.value, order, alpha)
    w_coeffs = np.array(inner.coeffs)
    w_coeffs[..., 0] = 0.0
    w = Jet(inner.num_vars, order, w_coeffs, inner.base)
    result = jet_constant(inner.num_vars, order, c[order], inner.base)
    for m in range(order - 1, -1, -1):
        result = jet_add(jet_mul(result, w), jet_constant(inner.num_vars, order, c[m], inner.base))
    return result


def oracle_christoffel(w: WarpSpec, n: int, point) -> dict:
    """Closed-form warped-product symbols: the four displayed families.

    Keys are (upper, lower1, lower2); anything absent is identically zero.
    """
    r = point[0]
    thetas = {j: point[j - 1] for j in range(2, n + 1)}
    jw = warp_eval(w, r, 1)
    phi, dphi = float(jw.derivative(0)), float(jw.derivative(1))

    def g_tilde(i):  # nested-sine diagonal sphere metric, i >= 2
        out = 1.0
        for j in range(2, i):
            out *= math.sin(thetas[j]) ** 2
        return out

    table = {}
    for i in range(2, n + 1):
        table[(i, i, 1)] = dphi / phi
        table[(i, 1, i)] = dphi / phi
        table[(1, i, i)] = -phi * dphi * g_tilde(i)
    # sphere symbols: Gamma^b_ab = cot(theta_a) for a < b, and
    # Gamma^a_bb = -sin(theta_a) cos(theta_a) prod_{a<j<b} sin^2(theta_j)
    for a in range(2, n + 1):
        for b in range(a + 1, n + 1):
            table[(b, a, b)] = 1.0 / math.tan(thetas[a])
            table[(b, b, a)] = table[(b, a, b)]
            prod_sin = 1.0
            for j in range(a + 1, b):
                prod_sin *= math.sin(thetas[j]) ** 2
            table[(a, b, b)] = -math.sin(thetas[a]) * math.cos(thetas[a]) * prod_sin
    return table


def oracle_eager_inverse(metric, i: int) -> Jet:
    """g^ii as `metric_at` once built every inverse up front: the `recip` of
    g_ii cut to order - 1 (for g_11 = 1 it stored the cut entry itself)."""
    return jet_compose_univariate("recip", metric.entry(i).truncated(max(metric.order - 1, 0)))


def oracle_eager_christoffel_row(metric, i: int, j: int) -> list:
    """Row (i, j) of the Christoffel table as (alpha, coefficients), formed
    as the table once formed it: every term half * jet_mul(g^kk, partial),
    inverses from `oracle_eager_inverse`, kept where any coefficient is
    nonzero.  The table now skips a term whose partial is exactly zero; with
    a finite g^kk that term was all +-0 here and was dropped.  Only an
    overflowing inverse parts the two: 0 * inf = NaN put a NaN term here."""
    row = []
    for k in range(1, metric.dim + 1):
        if i == j:
            half, entry, v = (0.5 if k == i else -0.5), i, k
        elif k in (i, j):
            half, entry, v = 0.5, k, i + j - k
        else:
            continue
        dg = jet_partial(metric.entry(entry), v)
        coeffs = jet_mul(oracle_eager_inverse(metric, k), dg).coeffs * half
        if coeffs.any():
            row.append((k, coeffs))
    return row


def oracle_covariant(v, m, r, k: int, angles=None):
    """(metric, ranks) of grad^j u, j = 0..k, by the recursion run on Jets.

    ranks[j] maps every rank-j index (in `product` order) to its Jet.  Each
    component is the partial of the rank below, less the products
    Gamma^alpha_{first i} * (component with alpha in slot i), taken over the
    slots in order and alpha ascending, with zero components skipped and both
    factors cut to the component's order: the same operations in the same
    order as `geometry.CovTensor._entry` runs on bare coefficient arrays, one
    component at a time when first read, so the two agree bit for bit.  The
    metric and Christoffel rows come from the package.
    """
    point = default_point(m, r) if angles is None else (r,) + tuple(angles)
    metric = metric_at(m, point, order=max(k - 1, 0))
    ranks = [{(): embed_univariate(v.eval_jet(r, k), m.dim, 1, metric.base)}]
    gamma = christoffel_at(metric) if k >= 2 else None
    for rank in range(1, k + 1):
        prev, comps = ranks[-1], {}
        for idx in product(range(1, m.dim + 1), repeat=rank):
            first, rest = idx[0], idx[1:]
            jet = jet_partial(prev[rest], first)
            for pos, i in enumerate(rest):
                for alpha, g in gamma.lowered(first, i):
                    term = prev[rest[:pos] + (alpha,) + rest[pos + 1 :]]
                    if np.any(term.coeffs):
                        jet = jet_add(jet, jet_scale(jet_mul(g.truncated(jet.order),
                                                             term.truncated(jet.order)), -1.0))
            comps[idx] = jet
        ranks.append(comps)
    return metric, ranks


def oracle_norm(comps: dict, metric):
    """sqrt( sum g^{i1 i1} ... g^{ij ij} value^2 ) over the nonzero components,
    summed in index order with the weight built left to right."""
    if tuple(comps) == ((),):
        return np.abs(comps[()].value)
    inv = {i: metric.inverse_entry(i).value for i in range(1, metric.dim + 1)}
    total = 0.0
    for idx, jet in comps.items():
        if not np.any(jet.coeffs):
            continue
        weight = inv[idx[0]]
        for i in idx[1:]:
            weight = weight * inv[i]
        total = total + weight * jet.value**2
    return np.sqrt(total)


def oracle_gk_segments(fn, bounds) -> list:
    """quadrature._gk_segments one segment at a time: its finiteness test,
    first non-finite node and K and G dot products are each taken on that
    segment's own rows."""
    out = []
    for i in range(0, len(bounds), _CALL_SEGMENTS):
        chunk = bounds[i:i + _CALL_SEGMENTS]
        halves = [0.5 * (b - a) for a, b in chunk]
        mids = np.array([0.5 * (a + b) for a, b in chunk])
        x = (mids[:, None] + np.array(halves)[:, None] * _GK_NODES).ravel()
        y = np.asarray(fn(x), dtype=np.float64)
        if y.shape != x.shape:
            raise EvaluationError("integrand evaluator must be vectorized over its input")
        for half, xs, ys in zip(halves, x.reshape(-1, _GK_NODES.size),
                                y.reshape(-1, _GK_NODES.size)):
            finite = np.isfinite(ys)
            if not finite.all():
                out.append((math.nan, math.nan, xs[~finite][0]))
                continue
            k = half * float(_GK_WEIGHTS_K @ ys)
            g = half * float(_GK_WEIGHTS_G @ ys)
            out.append((k, abs(k - g), None))
    return out


def dense_norms(v, m, r, k: int, angles=None) -> np.ndarray:
    """`pointwise_norm` of every rank of `covariant_bundle`: the dense route,
    the norm profiles' reference and the one that reads the angles."""
    metric, tensors = covariant_bundle(v, m, r, k, angles)
    return np.stack([np.broadcast_to(pointwise_norm(t, metric), np.shape(r)) for t in tensors])
