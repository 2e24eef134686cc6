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
of a depth-k computation hold jets of order k - j.  Each component is
computed when first read and kept, as the raw coefficients of its jet
(`CovTensor._entry`): the `jets.partial_table` gather and scale of its rest
in its first index, less one `jets.mul_coeffs` product per Christoffel
entry, places in order and alpha ascending, skipping a factor that is all
zero.  Those are the operations of `jet_partial`, `jet_mul` and jet
subtraction in the order the recursion on Jets applies them, so the bits
are that recursion's and no Jet is built per component;
`CovTensor.component` wraps one in a Jet for outside readers.  The degree
<= d coefficients of a product depend only on the degree <= d coefficients
of its factors, and each product is subtracted from a partial of order d,
so both factors are cut to order d; at d = 0, as at rank k, the product is
one elementwise multiply.  So the Christoffel symbols are built to order
k - 2, the most any product reads (at rank 2), from metric jets of order
k - 1, and not at all for k <= 1.  A read computes only its dependency
closure: its rest, and the rest with each alpha of the rows it names put in
place, down to rank 0.  The pure-radial component (1, ..., 1) reads only
(1, ..., 1) below and the row of (1, 1), which is empty because radial
lines are geodesics, so it costs one radial partial per rank.
`pointwise_norm` reads all N^j components and adds the weighted squares in
`product` order, each weight built left to right, one at a time from 0.0:
a pairwise sum (`np.sum`) would group the terms differently and move the
last bits of the norms.

The metric and the Christoffel table do not depend on v.  A `Frame` carries
one set of points and one rank and holds both, each built when first read;
the bundles of several functions taken through one frame (`Frame.bundle`)
share them, and with them every Christoffel row any of them reads.  Called
directly, `covariant_bundle` builds a frame per call.  Each inverse g^kk is
built on first read, and a row forms no product by an exactly zero metric
partial, so the row of (1, 1), all the pure-radial components read, reads no
inverse (g_11 = 1).  The frame keeps one jet of each v (`Frame.jet`) for its
bundle, its norm profiles and the checks.

The norm profiles |grad^j u|_g do not run this recursion.  u = v(r) is
invariant under the rotations about the origin, O(N-1), so grad^j u lies in
the span of the products of dr and h = g - dr (x) dr over slot patterns (the
first fundamental theorem for O(n): at most 10 patterns for j <= 4, against
N^j components), with coefficients that are functions of r alone.  They
follow from v and psi = phi'/phi through grad dr = psi h, and the norm is a
Gram form that reads N only through N - 1 (`_pattern_norms`).  So
`norm_profiles` builds no metric, no Christoffel symbol and no bundle: rows
0 and 1 are |v| and sqrt(v'^2), the dense norms to the bit, and rows j >= 2
take the pattern form, whose fold starts from v^(j)^2 and adds only terms
>= 0, so no row falls below |v^(j)| by rounding.  The two routes agree
within 1e-13 relative for r >= 0.1; nearer the origin both lose digits to
the 1/r of psi.  `pointwise_norm` over `covariant_bundle`, the dense route,
stays as the tests' oracle of the pattern form.  The `identity` and
`asymptotic_leading` checks read components of the bundle: the pattern form
has v^(j) as its all-dr coefficient by construction, so `identity` would
test nothing through it.  A `Frame` keeps psi's coefficients for the norm
profiles taken through it (`Frame.norm_profiles`).

Coordinate indices are 1-based throughout; coordinate 1 is the radial one.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import DomainError, ProximityError, SingularMetricError
from .jets import (Jet, _frozen, embed_univariate, jet_coordinate, jet_mul, jet_partial,
                   mul_coeffs, mul_table, n_terms, partial_table)
from .manifold import (
    WARP_TABLE,
    DiagonalMetric,
    ManifoldSpec,
    default_point,
    metric_at,
    polar_radius,
    warp_eval,
)

MIN_RADIUS = 1e-6  # the dense route's floor, and the radial grids'
MAX_RANK = 4


class ChristoffelTable:
    """Jet-valued Christoffel symbols of a diagonal metric at one point.

    `row(i, j)` lists the (alpha, coefficients) pairs of the nonzero
    Gamma^alpha_ij, alpha ascending, so the covariant recursion reads its
    factors as bare arrays; a row is computed when first read, and kept.
    `lowered(i, j)` gives a row as (alpha, jet) pairs; `entry` reads through
    it and returns None for a vanishing symbol.
    """

    def __init__(self, metric: DiagonalMetric):
        self._metric = metric
        self._rows = {}  # (i, j) -> ((alpha, coefficients), ...)

    def entry(self, k: int, i: int, j: int) -> Jet | None:
        return next((jet for alpha, jet in self.lowered(i, j) if alpha == k), None)

    def lowered(self, i: int, j: int) -> tuple:
        m = self._metric
        return tuple((alpha, Jet(m.dim, m.order - 1, coeffs, m.base))
                     for alpha, coeffs in self.row(i, j))

    def row(self, i: int, j: int) -> tuple:
        """The (alpha, coefficients) pairs of the nonzero Gamma^alpha_ij, alpha ascending."""
        row = self._rows.get((i, j))
        if row is None:  # torsion-free: (j, i) holds the same row, exactly
            row = self._rows[(i, j)] = self._rows[(j, i)] = self._row(min(i, j), max(i, j))
        return row

    def _row(self, i: int, j: int) -> tuple:
        m, row = self._metric, []
        for k in range(1, m.dim + 1):
            if i == j == k:
                half, g, v = 0.5, i, i
            elif i == j:
                half, g, v = -0.5, i, k
            elif k == i:
                half, g, v = 0.5, i, j
            elif k == j:
                half, g, v = 0.5, j, i
            else:
                continue
            dg = jet_partial(m.entry(g), v)  # d_v g_gg
            if not dg.coeffs.any():  # the product, all +-0, would leave the row
                continue
            coeffs = jet_mul(m.inverse_entry(k), dg).coeffs * half
            if coeffs.any():
                row.append((k, coeffs))
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

    Each component is the coefficient array of a jet of order depth - rank,
    computed when first read and kept in `_memo` under its 1-based index
    (i1, ..., ij); rank 0 holds u itself under ().  `component` wraps one
    in a Jet.
    """

    def __init__(self, rank: int, dim: int, order: int, base, prev: "CovTensor | None" = None,
                 gamma: ChristoffelTable | None = None, value: np.ndarray | None = None):
        self.rank, self.dim, self.order, self.base = rank, dim, order, base
        self._prev, self._gamma = prev, gamma
        self._memo = {} if value is None else {(): value}

    def component(self, idx: tuple = ()) -> Jet:
        idx = tuple(idx)
        if len(idx) != self.rank:
            raise DomainError(f"rank-{self.rank} tensor indexed with {len(idx)} indices")
        if not all(1 <= i <= self.dim for i in idx):
            raise DomainError(f"index {idx} outside 1..{self.dim}")
        return Jet(self.dim, self.order, self._entry(idx), self.base)

    def _entry(self, idx: tuple) -> np.ndarray:
        """The coefficients of component `idx`, computed with what it reads.

        The partial of its rest in its first index, less the products
        Gamma^alpha_{first i} * (rest with alpha in i's place), places in
        order and alpha ascending, nonzero factors only, both factors cut to
        this order: the operations of the recursion on Jets in its order
        (see the module docstring).
        """
        out = self._memo.get(idx)
        if out is not None:
            return out
        n, d, prev = self.dim, self.order, self._prev
        first, rest = idx[0], idx[1:]
        src, scale = partial_table(n, d + 1, first - 1)
        out = prev._entry(rest)[..., src] * scale
        terms = n_terms(n, d)
        for s, i in enumerate(rest):
            for alpha, gamma in self._gamma.row(first, i):
                factor = prev._entry(rest[:s] + (alpha,) + rest[s + 1 :])
                if not factor.any():
                    continue
                if d:  # jet_mul of both factors cut to order d
                    out -= mul_coeffs(gamma[..., :terms], factor[..., :terms], mul_table(n, d, d))
                else:  # order 0: the product is one term
                    out -= gamma[..., :1] * factor[..., :1]
        self._memo[idx] = out
        return out


@lru_cache(maxsize=None)
def _patterns(j: int) -> tuple:
    """The slot patterns of rank j >= 1, in the order the recursion first
    reaches them.  Slot s of a pattern holds s where the pattern has dr and
    the other end of its h pair otherwise."""
    return ((0,),) if j == 1 else _pattern_step(j - 1)[0]


def _paired(slots: tuple, a: int, b: int, dr: int | None = None) -> tuple:
    """`slots` with a and b joined in an h pair and, if given, `dr` made dr."""
    out = list(slots)
    out[a], out[b] = b, a
    if dr is not None:
        out[dr] = dr
    return tuple(out)


@lru_cache(maxsize=None)
def _pattern_step(j: int) -> tuple:
    """(patterns, levels) of rank j + 1 from rank j >= 1.

    With P patterns at rank j, term p is c_p', term P + p is psi c_p and
    term 2P + p is -psi c_p.  The new slot goes first:

        grad(c P) = c' dr (x) P + psi c sum_{dr slots b} (dr_b -> h_0b)
                    - psi c sum_{h pairs (b, e)} (h_be -> h_0b dr_e + dr_b h_0e)

    Level l holds (targets, terms): the l-th term of each target that has
    one.  Level 0 reaches every target, in order.
    """
    prev = _patterns(j)
    n, sums = len(prev), {}  # target -> its terms, targets in the order first reached
    for p, pattern in enumerate(prev):
        moved = (0,) + tuple(q + 1 for q in pattern)  # slot s is now s + 1
        sums.setdefault(moved, []).append(p)
        for b, e in enumerate(pattern):
            if e == b:
                sums.setdefault(_paired(moved, 0, b + 1), []).append(n + p)
            elif b < e:
                sums.setdefault(_paired(moved, 0, b + 1, e + 1), []).append(2 * n + p)
                sums.setdefault(_paired(moved, 0, e + 1, b + 1), []).append(2 * n + p)
    levels = []
    for l in range(max(map(len, sums.values()))):
        pairs = [(t, terms[l]) for t, terms in enumerate(sums.values()) if len(terms) > l]
        levels.append((_frozen([t for t, _ in pairs]), _frozen([x for _, x in pairs])))
    return tuple(sums), tuple(levels)


@lru_cache(maxsize=None)
def _norm_plan(j: int) -> tuple:
    """(ones, threes) of the rank-j patterns, 2 <= j <= 4: the patterns with
    one h pair, and as (3, count) the three patterns that pair each set of
    four angular slots.  Patterns with different dr slots are orthogonal,
    as h(dr, .) = 0, and the all-dr pattern is read from v."""
    groups = {}
    for p, pattern in enumerate(_patterns(j)):
        angular = frozenset(s for s, e in enumerate(pattern) if e != s)
        groups.setdefault(angular, []).append(p)
    ones = [g[0] for a, g in groups.items() if len(a) == 2]
    threes = [g for a, g in groups.items() if len(a) == 4]
    return _frozen(ones), _frozen(np.reshape(threes, (-1, 3)).T)


def _pattern_norms(v: np.ndarray, psi: np.ndarray, m: float) -> list:
    """Rows 2..k of the norm profiles from the Taylor coefficients of v
    (order k) and of psi = phi'/phi (order k - 2), coefficient axis last, on
    N - 1 = m.

    grad^j u = sum_P c_P P over the slot patterns P of products of dr and
    h = g - dr (x) dr; each c_P is a function of r, carried as the Taylor
    coefficients of order k - j, all patterns of a rank in one array.  Rank 1
    is v' dr; `_pattern_step` takes each rank to the next, with
    grad dr = psi h and grad_a h_bc = -psi (h_ab dr_c + h_ac dr_b).  The
    norm squared sums, per set of dr slots, c^2 with no h pair, m c^2 with
    one, and m (m - 1) (a^2 + b^2 + c^2) + m (a + b + c)^2 over the three
    pairings a, b, c of four angular slots: every term is >= 0.  The fold
    starts from v^(j)^2, v^(j) formed as `Jet.derivative` forms it, and adds
    the terms left to right; so each row is >= |v^(j)| bit for bit wherever
    v^(j)^2 neither underflows nor overflows.
    """
    k = v.shape[-1] - 1
    src, scale = partial_table(1, k, 0)
    coef, rows = (v[..., src] * scale)[None], []
    for j in range(1, k):  # rank j -> j + 1, coefficients of order k - j - 1
        d = k - j
        src, scale = partial_table(1, d, 0)
        psi_c = mul_coeffs(coef[..., :d], psi[..., :d], mul_table(1, d - 1, d - 1))
        terms = np.concatenate([coef[..., src] * scale, psi_c, -psi_c])
        (_, first), *levels = _pattern_step(j)[1]
        coef = terms[first]
        for targets, more in levels:
            coef[targets] += terms[more]
        ones, threes = _norm_plan(j + 1)
        x, radial = coef[..., 0], v[..., j + 1] * float(math.factorial(j + 1))
        total = radial * radial
        for term in m * np.square(x[ones]):
            total = total + term
        if threes.size:
            a, b, c = x[threes]
            # at m = 1 this summand is 0, and 0 * inf where a^2 overflows reads NaN
            pairs = m * (m - 1) * (a * a + b * b + c * c) if m != 1.0 else 0.0
            for term in pairs + m * np.square(a + b + c):
                total = total + term
        rows.append(np.sqrt(total))
    return rows


class Frame:
    """Polar points and a rank k, with the metric, Christoffel table and psi there.

    None depends on the radial function, so the bundles of several functions
    taken through one frame (`bundle`) share its metric and each Christoffel
    row any of them reads, and their norm profiles (`norm_profiles`) share
    psi; each function's jet is evaluated once (`jet`) for all its readers.
    `r` may be an array; angles default to pi/2 (all nested sine factors 1).
    The rank and the point are checked on construction; the metric, the
    table, psi and the jets are built when first read.  Only the metric,
    read first by the table and every bundle, requires r >= MIN_RADIUS.
    """

    def __init__(self, m: ManifoldSpec, r, k: int, angles=None):
        if not 0 <= k <= MAX_RANK:
            raise DomainError(f"covariant derivative rank must be within 0..{MAX_RANK}")
        self.m, self.r, self.k, self.angles = m, r, k, angles
        self.point = default_point(m, r) if angles is None else (r,) + tuple(angles)
        polar_radius(m, self.point)
        self._jets = {}  # id(v) -> (v, jet): v is kept, so its id stays its own

    @cached_property
    def metric(self) -> DiagonalMetric:
        if np.any(np.asarray(self.r, dtype=np.float64) < MIN_RADIUS):
            raise ProximityError(f"the dense route requires r >= {MIN_RADIUS}")
        # order max(k - 1, 0): the recursion reads the Christoffel symbols
        # only to order k - 2, at rank 2, and the norms read only values
        return metric_at(self.m, self.point, order=max(self.k - 1, 0))

    @cached_property
    def gamma(self) -> ChristoffelTable | None:
        return christoffel_at(self.metric) if self.k >= 2 else None  # rank 1 is plain partials

    @cached_property
    def psi(self) -> np.ndarray:
        """Taylor coefficients of psi = phi'/phi at r to order k - 2 (k >= 2),
        coefficient axis last: all the norm rows of rank >= 2 read of the warp."""
        w, r = self.m.warp, np.asarray(self.r, dtype=np.float64)
        return np.stack(WARP_TABLE[w.kind].psi(w, r, self.k - 2), axis=-1)

    def jet(self, v) -> Jet:
        """v.eval_jet(r, k), evaluated on v's first read and kept."""
        got = self._jets.get(id(v))
        if got is None:
            got = self._jets[id(v)] = (v, v.eval_jet(self.r, self.k))
        return got[1]

    def bundle(self, v):
        """`covariant_bundle` of v at this frame's points and rank."""
        return covariant_bundle(v, self.m, self.r, self.k, self.angles, _frame=self)

    def norm_profiles(self, v) -> np.ndarray:
        """`norm_profiles` of v at this frame's points and rank."""
        return norm_profiles(v, self.m, self.r, self.k, _frame=self)


def covariant_bundle(v, m: ManifoldSpec, r, k: int, angles=None, _frame: Frame | None = None):
    """Metric plus the covariant derivative tensors of ranks 0..k at (r, angles).

    `v` is any radial profile exposing eval_jet(t, order) -> univariate Jet.
    `r` may be an array; angles default to pi/2 (all nested sine factors 1).
    `_frame` is the `Frame` of exactly these arguments; only `Frame.bundle`
    passes it, and a new one is built otherwise.
    """
    frame = Frame(m, r, k, angles) if _frame is None else _frame
    metric = frame.metric
    u_jet = embed_univariate(frame.jet(v), m.dim, 1, metric.base)

    tensors = [CovTensor(0, m.dim, k, metric.base, value=u_jet.coeffs)]
    for rank in range(1, k + 1):
        tensors.append(CovTensor(rank, m.dim, k - rank, metric.base, tensors[-1], frame.gamma))
    return metric, tensors


def pointwise_norm(t: CovTensor, metric: DiagonalMetric):
    """Tensor norm sqrt( sum g^{i1 i1} ... g^{ij ij} (component)^2 ).

    Valid because the metric is diagonal; returns a scalar or a batch array
    matching the base point.  The sum runs over the nonzero components in
    `product` order, each weight built left to right, and adds them one at
    a time from 0.0, where a pairwise sum would group them otherwise and
    move the last bits.  `norm_profiles` takes the pattern form instead;
    this dense norm is its tests' oracle.
    """
    if t.base is not metric.base and not metric.base.matches(t.base):
        raise DomainError("tensor and metric were built at different base points")
    if t.rank == 0:
        return np.abs(t._entry(())[..., 0])
    n = metric.dim
    inv = {i: metric.inverse_entry(i).value for i in range(1, n + 1)}
    total = 0.0
    for idx in product(range(1, n + 1), repeat=t.rank):
        coeffs = t._entry(idx)
        if not coeffs.any():
            continue
        weight = inv[idx[0]]
        for i in idx[1:]:
            weight = weight * inv[i]
        total = total + weight * np.square(coeffs[..., 0])
    return np.sqrt(total)


def norm_profiles(v, m: ManifoldSpec, r, k: int, _frame: Frame | None = None) -> np.ndarray:
    """|grad^j u|_g for j = 0..k at radius r (batched); shape (k+1,) + r.shape.

    Rows 0 and 1 read no metric: |u| = |v|, and since the angular partials
    of u vanish and g^11 = 1, |grad u|_g = sqrt(v'^2), squared and rooted as
    `pointwise_norm` does it, so a v' whose square underflows gives 0 alike.
    Rows j >= 2 come from the pattern form (`_pattern_norms`), which reads
    v's jet and psi = phi'/phi alone, so no row builds a metric and only the
    point is checked: any r in (0, R), below MIN_RADIUS too.  The rows are
    O(N-1)-invariant, so they take no angles.  `_frame` is as for
    `covariant_bundle`; only `Frame.norm_profiles` passes it.
    """
    frame = Frame(m, r, k) if _frame is None else _frame
    coeffs = frame.jet(v).coeffs
    rows = [np.abs(coeffs[..., 0])]
    if k >= 1:
        rows.append(np.sqrt(coeffs[..., 1] ** 2))
    if k >= 2:
        rows += _pattern_norms(coeffs, frame.psi, m.dim - 1.0)
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
