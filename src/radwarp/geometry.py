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
of a depth-k computation hold jets of order k - j.  A rank is one array of
raw coefficients, one row per component in `product` order, combined by
`jets.partial_table` gathers and `jets.mul_coeffs`, the product of
`jet_mul`, in the operations and order of `jet_partial`, `jet_mul` and jet
subtraction, so no Jet is built per component; `CovTensor.component` wraps
one in a Jet for outside readers.  A product of order 0, as at rank k, is
one elementwise multiply of the two factors: the sum over a one-term
segment is that term, and it gathers no copy of either.

The recursion computes only what its readers keep, and only when they read it:

- The degree <= d coefficients of a product depend only on the degree <= d
  coefficients of its factors.  Each product is subtracted from a partial of
  order d, so it gathers only those prefixes of its factors, bit-identical to
  the full product cut to order d under graded coefficient order.  So the
  Christoffel symbols are built to order k - 2, the most any product reads
  (at rank 2), from metric jets of order k - 1, and not at all for k <= 1.
- A rank is computed in passes, each over a set of components: all N^j for
  `pointwise_norm`, the dependency closure of one index for
  `CovTensor.component`.  A pass first fills what its components read of
  the rank below (their rests, and each rest with alpha put in one place),
  then takes one partial gather per distinct first index, then, for each
  index position and each entry of the Christoffel row (alpha ascending),
  one product over every component whose row has that entry and whose
  factor is nonzero, subtracted from those components alone.  So each
  component sees the operations of the per-component jet recursion in the
  same order, and the numpy calls are per rank, not per component.
  Which rows a pass reads and writes is worked out on Python ints
  (`_plan`), so the numpy calls only move and combine coefficients: integer
  array arithmetic would fault in numpy loops that nothing else in a run
  uses, about 0.25 MB of resident code.  For a whole rank the plan depends
  only on N, the rank and the Christoffel rows, so it is kept
  (`_full_plan`).  Components and Christoffel rows are computed once and
  kept.
- The pure-radial component (1, ..., 1) reads only (1, ..., 1) of the rank
  below and the row of (1, 1), which is empty because radial lines are
  geodesics.  Read alone, it is that one row and one radial partial per
  rank, with the gather and scale of a pass and no plan (`_radial`).
- A gather takes at most as many components as keep it within the largest
  gather of the per-component recursion (`_chunk`), so a bundle's transient
  arrays stay as small as that recursion's.
- `pointwise_norm` adds the weighted squares in `product` order, each
  weight built left to right, as a sequential fold (`np.add.accumulate`
  from 0.0): a pairwise sum (`np.sum`) would group the terms differently
  and move the last bits of the norms.
- The metric and the Christoffel table do not depend on v.  A `Frame`
  carries one set of points and one rank and holds both, each built when
  first read; the bundles of several functions taken through one frame
  (`Frame.bundle`) share them, and with them every Christoffel row any of
  them reads.  Called directly, `covariant_bundle` builds a frame per call.
  Each inverse g^kk is built on first read, and a row forms no product by
  an exactly zero metric partial, so the row of (1, 1), all the pure-radial
  components read, reads no inverse (g_11 = 1).  The frame keeps one jet
  of each v (`Frame.jet`) for its bundle, its norm profiles and the checks.

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
from .jets import (Jet, embed_univariate, jet_coordinate, jet_mul, jet_partial, mul_coeffs,
                   mul_table, n_terms, partial_table)
from .manifold import (
    WARP_TABLE,
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

    The nonzero symbols are the slots of one stacked array `coeffs`, of shape
    (slots,) + batch + (terms,), so the covariant recursion gathers its
    factors from it directly.  `row(i, j)` lists the (alpha, slot) pairs of
    Gamma^alpha_ij, alpha ascending; a row is computed when first read, and
    kept.  `lowered(i, j)` gives a row as (alpha, jet) pairs over views of
    its slots; `entry` reads through it and returns None for a vanishing
    symbol.
    """

    def __init__(self, metric: DiagonalMetric):
        n = metric.dim
        self._metric = metric
        self._partials = {}  # (i, v) -> d_v g_ii, read once so far
        self._rows = {}  # (i, j) -> ((alpha, slot), ...)
        batch = np.broadcast_shapes(*(g.coeffs.shape[:-1] for g in metric.g))
        # g_ii of a warped product depends on x_1 .. x_{i-1} only, so at most
        # n (n - 1) symbols are nonzero; one more slot takes a vanishing one
        # while it is tested, and a denser metric doubles the stack
        self.coeffs = np.empty((n * n - n + 1,) + batch + (n_terms(n, metric.order - 1),))
        self._slots = 0

    def entry(self, k: int, i: int, j: int) -> Jet | None:
        return next((jet for alpha, jet in self.lowered(i, j) if alpha == k), None)

    def lowered(self, i: int, j: int) -> tuple:
        m = self._metric
        return tuple((alpha, Jet(m.dim, m.order - 1, self.coeffs[slot], m.base))
                     for alpha, slot in self.row(i, j))

    def row(self, i: int, j: int) -> tuple:
        """The (alpha, slot) pairs of the nonzero Gamma^alpha_ij, alpha ascending."""
        row = self._rows.get((i, j))
        if row is None:  # torsion-free: (j, i) holds the same row, exactly
            row = self._rows[(i, j)] = self._rows[(j, i)] = self._row(min(i, j), max(i, j))
        return row

    def table(self) -> tuple:
        """Every row, in `product` order of the lower pair (i, j)."""
        n = self._metric.dim
        return tuple(self.row(i, j) for i in range(1, n + 1) for j in range(1, n + 1))

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
        row = []
        for k in range(1, self._metric.dim + 1):
            if i == j == k:
                half, dg = 0.5, self._dg(i, i)
            elif i == j:
                half, dg = -0.5, self._dg(i, k)
            elif k == i:
                half, dg = 0.5, self._dg(i, j)
            elif k == j:
                half, dg = 0.5, self._dg(j, i)
            else:
                continue
            if not dg.coeffs.any():  # the product, all +-0, would leave the row
                continue
            jet = jet_mul(self._metric.inverse_entry(k), dg)
            if self._slots == len(self.coeffs):
                self.coeffs = np.concatenate([self.coeffs, np.empty_like(self.coeffs)])
            # the jet's scalar product, written into the next free slot
            if np.multiply(jet.coeffs, half, out=self.coeffs[self._slots]).any():
                row.append((k, self._slots))
                self._slots += 1
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


def _chunk(dim: int, depth: int, per_component: int) -> int:
    """Components per array operation of a depth-`depth` bundle, taking
    `per_component` numbers per point from each.  No such gather outgrows the
    largest of the recursion run one component at a time: the partial of u
    at rank 1, or a product at rank 2, of two order depth - 2 factors."""
    low = max(depth - 2, 0)
    largest = max(n_terms(dim, depth - 1), len(mul_table(dim, low, low).ia))
    return max(1, largest // per_component)


def _plan(n: int, j: int, comps, row) -> tuple:
    """What a pass over the rank-j components `comps` (ascending rows)
    reads and does, worked out on Python ints: the mask of the rows of the
    rank below it reads; per distinct first index f (0-based), the rows here
    and the rows of their rests below; and per index position and entry of
    the Christoffel row, in the order applied, the rows here, the factor
    rows below and the Christoffel slots of its products.  `row(i, l)` gives
    the row of the lower pair (i, l)."""
    block = n ** (j - 1)
    groups, products = {}, {}
    for c in comps:
        first, rest = divmod(c, block)
        group = groups.setdefault(first, ([], []))
        group[0].append(c)
        group[1].append(rest)
        for s in range(j - 1):
            weight = n ** (j - 2 - s)
            digit = rest // weight % n
            for pos, (alpha, slot) in enumerate(row(first + 1, digit + 1)):
                lists = products.setdefault((s, pos), ([], [], []))
                lists[0].append(c)
                lists[1].append(rest + (alpha - 1 - digit) * weight)
                lists[2].append(slot)
    reads = np.zeros(block, dtype=bool)
    for lists in [*groups.values(), *products.values()]:
        reads[lists[1]] = True
    return (_frozen(reads, bool), [(f, _frozen(g[0]), _frozen(g[1]))
                                   for f, g in sorted(groups.items())],
            [tuple(map(_frozen, products[key])) for key in sorted(products)])


def _frozen(values, dtype=np.intp) -> np.ndarray:
    """`values` as a read-only array: the caches hand one array to every caller."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def _full_plan(n: int, j: int, table: tuple) -> tuple:
    """`_plan` of all n^j components for the Christoffel rows `table`
    (`ChristoffelTable.table`); it depends on nothing else, so it is kept."""
    return _plan(n, j, range(n**j), lambda i, l: table[(i - 1) * n + l - 1])


@lru_cache(maxsize=None)
def _digits(n: int, j: int) -> np.ndarray:
    """The 0-based indices (j, n^j) of every rank-j row, in `product` order."""
    return _frozen(np.array(list(product(range(n), repeat=j))).reshape(n**j, j).T)


class CovTensor:
    """Rank-j covariant derivative of a radial function at one point.

    The component of the 1-based index (i1, ..., ij) is row sum_s (i_s - 1)
    dim^(j-s) (`product` order) of one array `coeffs`, of shape (dim^j,) +
    batch + (terms,): coefficients of jets of order depth - rank; rank 0
    holds u itself.  `_fill` computes a set of rows in one pass, each row
    once, and they are kept; `component` wraps one in a Jet.
    """

    def __init__(self, rank: int, dim: int, order: int, base, prev: "CovTensor | None" = None,
                 gamma: ChristoffelTable | None = None, value: np.ndarray | None = None):
        self.rank, self.dim, self.order, self.base = rank, dim, order, base
        self._prev, self._gamma = prev, gamma
        if value is None:
            self.coeffs = None  # allocated by the first pass, once the rank below is filled
            self._done = np.zeros(dim**rank, dtype=bool)
            self._nonzero = np.zeros(dim**rank, dtype=bool)  # read only where done
        else:
            self.coeffs, self._done, self._nonzero = value[None], np.ones(1, dtype=bool), None

    def component(self, idx: tuple = ()) -> Jet:
        return Jet(self.dim, self.order, self._entry(idx), self.base)

    def _entry(self, idx: tuple) -> np.ndarray:
        """The coefficients of one component, computed with what it reads."""
        idx = tuple(idx)
        if len(idx) != self.rank:
            raise DomainError(f"rank-{self.rank} tensor indexed with {len(idx)} indices")
        if not all(1 <= i <= self.dim for i in idx):
            raise DomainError(f"index {idx} outside 1..{self.dim}")
        row = sum((i - 1) * self.dim ** (self.rank - 1 - s) for s, i in enumerate(idx))
        if row == 0 and not self._done[0] and (self.rank < 2 or not self._gamma.row(1, 1)):
            self._radial()
        elif not self._done[row]:
            want = np.zeros(self._done.size, dtype=bool)
            want[row] = True
            self._fill(want)
        return self.coeffs[row]

    def _radial(self) -> None:
        """Compute row 0, the pure-radial component (1, ..., 1), alone: the
        partial in x_1 of row 0 below, gathered and scaled as a pass does it.
        A pass would subtract the products of the row of Gamma_11, and the
        caller has seen that row empty (radial lines are geodesics)."""
        prev = self._prev
        if not prev._done[0]:
            prev._radial()
        src, scale = partial_table(self.dim, self.order + 1, 0)
        if self.coeffs is None:
            self.coeffs = np.empty((self.dim**self.rank,) + prev.coeffs.shape[1:-1]
                                   + (n_terms(self.dim, self.order),))
        self.coeffs[0] = prev.coeffs[0][..., src] * scale
        self._nonzero[0] = self.coeffs[0].any()
        self._done[0] = True

    def _fill(self, want: np.ndarray) -> None:
        """Compute the rows where the mask `want` holds and that are not done.

        Each is the partial of its rest in its first index, less the products
        Gamma^alpha_{first i} * (rest with alpha in i's place), places in
        order and alpha ascending, nonzero factors only: the operations of the
        per-component jet recursion in its order (see the module docstring).
        """
        comps = np.flatnonzero(want & ~self._done)
        if not comps.size:
            return
        n, j, d, prev = self.dim, self.rank, self.order, self._prev
        block, full = n ** (j - 1), comps.size == self._done.size
        if full:
            plan = _full_plan(n, j, self._gamma.table() if j > 1 else ())
        else:
            plan = _plan(n, j, comps.tolist(), self._gamma.row if j > 1 else None)
        reads, partials, products = plan
        prev._fill(reads)

        if self.coeffs is None:
            self.coeffs = np.empty((n**j,) + prev.coeffs.shape[1:-1] + (n_terms(n, d),))
        out = self.coeffs
        for f, rows, rests in partials:
            src, scale = partial_table(n, d + 1, f)
            if full:  # every rest in order, so the rank below whole, gathered in place
                # (mode "raise" would gather into a buffer and copy it over)
                dst = np.take(prev.coeffs, src, axis=-1, out=out[f * block : (f + 1) * block],
                              mode="clip")
                dst *= scale
            else:
                out[rows] = prev.coeffs[rests][..., src] * scale
        if products:
            gamma, terms, table = self._gamma.coeffs, n_terms(n, d), mul_table(n, d, d)
            step = _chunk(n, j + d, len(table.ia))
        for rows, factor, slot in products:
            keep = prev._nonzero[factor]
            if not keep.all():
                rows, factor, slot = rows[keep], factor[keep], slot[keep]
            for lo in range(0, rows.size, step):
                part = slice(lo, lo + step)
                if d:  # jet_mul of both factors cut to order d
                    out[rows[part]] -= mul_coeffs(gamma[slot[part], ..., :terms],
                                                  prev.coeffs[factor[part], ..., :terms], table)
                else:  # order 0: each product is one term
                    prod = gamma[slot[part], ..., :terms]
                    prod *= prev.coeffs[factor[part], ..., :terms]
                    out[rows[part]] -= prod
        done = slice(None) if full else comps
        self._nonzero[done] = out[done].reshape(comps.size, -1).any(axis=1)
        self._done[done] = True


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
            for term in m * (m - 1) * (a * a + b * b + c * c) + m * np.square(a + b + c):
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
    table, psi and the jets are built when first read.
    """

    def __init__(self, m: ManifoldSpec, r, k: int, angles=None):
        if not 0 <= k <= MAX_RANK:
            raise DomainError(f"covariant derivative rank must be within 0..{MAX_RANK}")
        if np.any(np.asarray(r, dtype=np.float64) < MIN_RADIUS):
            raise ProximityError(f"evaluation requires r >= {MIN_RADIUS}")
        self.m, self.r, self.k, self.angles = m, r, k, angles
        self.point = default_point(m, r) if angles is None else (r,) + tuple(angles)
        polar_radius(m, self.point)
        self._jets = {}  # id(v) -> (v, jet): v is kept, so its id stays its own

    @cached_property
    def metric(self) -> DiagonalMetric:
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
    u_jet = embed_univariate(frame.jet(v), m.dim, 1, metric.base)

    tensors = [CovTensor(0, m.dim, k, metric.base, value=u_jet.coeffs)]
    for rank in range(1, k + 1):
        tensors.append(CovTensor(rank, m.dim, k - rank, metric.base, tensors[-1], frame.gamma))
    return metric, tensors


def pointwise_norm(t: CovTensor, metric: DiagonalMetric):
    """Tensor norm sqrt( sum g^{i1 i1} ... g^{ij ij} (component)^2 ).

    Valid because the metric is diagonal; returns a scalar or a batch array
    matching the base point.  The sum runs over the nonzero components in
    `product` order, each weight built left to right, and is one sequential
    fold (`np.add.accumulate`, from 0.0) taken a block of components at a
    time: the additions of a loop over components, where a pairwise sum
    would group them otherwise and move the last bits.  `norm_profiles`
    takes the pattern form instead; this dense norm is its tests' oracle.
    """
    if t.base is not metric.base and not metric.base.matches(t.base):
        raise DomainError("tensor and metric were built at different base points")
    if t.rank == 0:
        return np.abs(t._entry(())[..., 0])
    n, j = metric.dim, t.rank
    t._fill(np.ones(n**j, dtype=bool))
    batch = t.coeffs.shape[1:-1]
    inv = np.stack([metric.inverse_entry(i).value for i in range(1, n + 1)])  # all of r's shape
    comps, step, digits = np.flatnonzero(t._nonzero), _chunk(n, j + t.order, 1), _digits(n, j)
    total = 0.0
    for lo in range(0, comps.size, step):
        part = comps[lo : lo + step]
        weight = inv[digits[0][part]]
        for s in range(1, j):
            weight *= inv[digits[s][part]]
        fold = np.empty((part.size + 1,) + batch)
        fold[0] = total
        square = t.coeffs[part, ..., 0]
        np.multiply(weight, np.square(square, out=square), out=fold[1:])
        del weight, square
        total = np.add.accumulate(fold, axis=0, out=fold)[-1]
    return np.sqrt(total)


def norm_profiles(v, m: ManifoldSpec, r, k: int, angles=None,
                  _frame: Frame | None = None) -> np.ndarray:
    """|grad^j u|_g for j = 0..k at radius r (batched); shape (k+1,) + r.shape.

    Rows 0 and 1 read no metric: |u| = |v|, and since the angular partials
    of u vanish and g^11 = 1, |grad u|_g = sqrt(v'^2), squared and rooted as
    `pointwise_norm` does it, so a v' whose square underflows gives 0 alike.
    Rows j >= 2 come from the pattern form (`_pattern_norms`), which reads
    v's jet and psi = phi'/phi alone, so no row builds a metric and only the
    point is checked.  `_frame` is as for `covariant_bundle`; only
    `Frame.norm_profiles` passes it.
    """
    frame = Frame(m, r, k, angles) if _frame is None else _frame
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
