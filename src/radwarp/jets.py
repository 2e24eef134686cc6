"""Truncated multivariate Taylor-jet arithmetic.

A jet stores the Taylor coefficients (derivative divided by factorial) of a
smooth function at a base point, up to a fixed total degree.  All downstream
differential geometry runs on jets, so every derivative in the package is
exact up to floating-point rounding; nothing is finite-differenced.

Coefficients live in a dense vector ordered by the canonical multi-index
enumeration (graded by total degree, lexicographic within a degree).  That
makes truncation to a lower order a prefix slice, and it lets us precompute
flat gather tables for products and partial derivatives once per
(num_vars, order) signature.

A product coefficient sums its segment of pairwise products, ordered by the
multi-index of the left factor, as np.add.reduceat does.  A segment of at
most 8 terms, which is every segment of a product of order <= 3 or in one
variable, sums as the head plus a left fold, t0 + ((t1 + t2) + ...);
`mul_table` plans those additions once as whole-array slice adds over all
segments (`mul_coeffs`), bit for bit.  A product with a longer segment, and
one of two unbatched factors, runs np.add.reduceat itself.

The coefficient array may carry leading batch dimensions.  Every operation
broadcasts over them, which is how grid sweeps over evaluation points are
vectorized: a jet "at r" where r is an array of shape (B,) simply has
coefficients of shape (B, n_terms).

Coefficients are raw Taylor coefficients.  Extraction helpers
(:meth:`Jet.derivative`) multiply the factorials back.  Products and
compositions run on bare coefficient arrays (`mul_coeffs`, `compose_coeffs`),
which the Jet operations wrap: array chains build no Jets.  Univariate
chains can also run on a list of coefficient rows, one 1-d array per degree
(`mul_rows`, `compose_rows`), with the bits of the array route.

Variable indices in the public API are 1-based, matching the coordinate
convention used by the geometry layer (coordinate 1 is the radial one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Iterable

import numpy as np

from .errors import (
    BasePointError,
    DimensionError,
    DomainError,
    OrderExhaustedError,
    SingularCompositionError,
)

MAX_VARS = 8
MAX_ORDER = 6

COMPOSABLE_FUNCTIONS = (
    "sin",
    "cos",
    "sinh",
    "cosh",
    "tanh",
    "exp",
    "log",
    "pow",
    "recip",
)


# ---------------------------------------------------------------------------
# multi-index tables


def _compositions(total: int, slots: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `slots` nonnegative ints summing to `total`, lex order."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class _IndexTable:
    num_vars: int
    order: int
    indices: tuple[tuple[int, ...], ...]
    position: dict

    @property
    def n_terms(self) -> int:
        return len(self.indices)


@lru_cache(maxsize=None)
def _table(num_vars: int, order: int) -> _IndexTable:
    """The multi-indices of `num_vars` >= 1 variables up to total degree
    `order`; every index table of the module starts here."""
    if num_vars < 1:
        raise DimensionError(f"a jet needs at least one variable, got num_vars={num_vars}")
    indices = []
    for deg in range(order + 1):
        indices.extend(_compositions(deg, num_vars))
    indices = tuple(indices)
    position = {alpha: i for i, alpha in enumerate(indices)}
    return _IndexTable(num_vars, order, indices, position)


def n_terms(num_vars: int, order: int) -> int:
    """Number of stored coefficients: C(num_vars + order, order)."""
    return _table(num_vars, order).n_terms


@dataclass(frozen=True)
class _MulTable:
    ia: np.ndarray  # coefficient of a of each pair, output ascending, then ia
    ib: np.ndarray  # coefficient of b of each pair, in the same order
    starts: np.ndarray  # first pair of each output's segment
    gather_a: np.ndarray | None  # ia laid out for the summing plan; None: reduceat
    gather_b: np.ndarray | None  # ib laid out for the summing plan
    steps: tuple | None  # (dst, src) slices: w[..., dst] += w[..., src]
    unsort: np.ndarray | None  # where each output coefficient ends up in w


def mul_table(num_vars: int, order_a: int, order_b: int) -> _MulTable:
    """The product table of jets of orders a and b: that of two jets of
    order min(a, b), as the product reads no coefficient above it."""
    return _mul_table(num_vars, min(order_a, order_b))


@lru_cache(maxsize=None)
def _mul_table(num_vars: int, d_out: int) -> _MulTable:
    """Gather and summing plan of the product of two jets of order d_out.

    Output coefficient gamma sums the segment of pairs alpha + beta = gamma,
    ia ascending, as t0 + ((t1 + t2) + ...): np.add.reduceat's order for a
    segment of at most 8 terms (see the module docstring).  The plan lays
    the pairs out place by place, longest segment first: place l of the
    k-th segment sits at off[l] + k.  Each place l >= 2 is added into place
    1 with one slice add, then place 1 into the heads.  A table with a
    longer segment (order >= 4 in two or more variables) has no plan and is
    summed by np.add.reduceat.
    """
    tout = _table(num_vars, d_out)
    position, triples = tout.position, []
    # graded ordering: the terms of degree <= m are the first n_terms(num_vars, m)
    for i, alpha in enumerate(tout.indices):
        room = _table(num_vars, d_out - sum(alpha)).indices
        triples += [(position[tuple(map(add, alpha, beta))], i, j)
                    for j, beta in enumerate(room)]
    triples.sort()
    # every output slot is hit at least once (pair with the zero multi-index)
    lengths = [0] * tout.n_terms
    for t in triples:
        lengths[t[0]] += 1
    starts = [0, *accumulate(lengths[:-1])]
    ia, ib = (_frozen([t[col] for t in triples]) for col in (1, 2))
    longest = max(lengths)
    if longest > 8:
        return _MulTable(ia, ib, _frozen(starts), None, None, None, None)
    rank = sorted(range(tout.n_terms), key=lambda o: -lengths[o])  # stable
    off, order = [], []
    for place in range(longest):
        off.append(len(order))
        order += [starts[o] + place for o in rank if lengths[o] > place]
    off.append(len(order))
    # places 2, 3, ... into place 1, then place 1 into the heads
    steps = [(slice(off[1], off[1] + off[p + 1] - off[p]), slice(off[p], off[p + 1]))
             for p in range(2, longest)]
    if longest > 1:
        steps.append((slice(0, off[2] - off[1]), slice(off[1], off[2])))
    unsort = sorted(range(len(rank)), key=rank.__getitem__)  # the inverse of rank
    return _MulTable(ia, ib, _frozen(starts), _frozen(ia[order]), _frozen(ib[order]),
                     tuple(steps), _frozen(unsort))


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.intp)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def partial_table(num_vars: int, order: int, var0: int):
    tsrc = _table(num_vars, order)
    tdst = _table(num_vars, order - 1)
    src = np.empty(tdst.n_terms, dtype=np.intp)
    scale = np.empty(tdst.n_terms, dtype=np.float64)
    for i, alpha in enumerate(tdst.indices):
        bumped = tuple(a + (1 if v == var0 else 0) for v, a in enumerate(alpha))
        src[i] = tsrc.position[bumped]
        scale[i] = alpha[var0] + 1
    src.flags.writeable = False
    scale.flags.writeable = False
    return src, scale


# ---------------------------------------------------------------------------
# base points


class BasePoint:
    """Shared expansion point for a family of jets.

    Stored once and threaded through a computation; combining jets anchored
    at different base points is rejected.  Coordinates may be scalars or
    batch arrays (all jets of the computation then carry the batch shape).
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(np.asarray(c, dtype=np.float64) for c in coords)

    def matches(self, other: "BasePoint") -> bool:
        if self is other:
            return True
        if len(self.coords) != len(other.coords):
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.coords, other.coords))


def _combine_base(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a is b or a.matches(b):
        return a
    raise BasePointError("jets expanded at different base points cannot be combined")


# ---------------------------------------------------------------------------
# the jet itself


@dataclass(frozen=True)
class Jet:
    """Dense truncated Taylor expansion in `num_vars` variables."""

    num_vars: int
    order: int
    coeffs: np.ndarray
    base: BasePoint | None = None

    def __post_init__(self):
        if not 1 <= self.num_vars <= MAX_VARS:
            raise DimensionError(f"num_vars must be in 1..{MAX_VARS}, got {self.num_vars}")
        if not 0 <= self.order <= MAX_ORDER:
            raise DomainError(f"order must be in 0..{MAX_ORDER}, got {self.order}")
        c = np.asarray(self.coeffs, dtype=np.float64)
        want = n_terms(self.num_vars, self.order)
        if c.shape[-1:] != (want,):
            raise DimensionError(
                f"coefficient vector has {c.shape[-1] if c.ndim else 0} entries, "
                f"expected {want} for num_vars={self.num_vars}, order={self.order}"
            )
        if not c.flags.c_contiguous:
            c = np.ascontiguousarray(c)
        c = c.view()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- inspection --------------------------------------------------------

    @property
    def value(self):
        """Value at the base point (degree-0 coefficient)."""
        return self.coeffs[..., 0]

    def coefficient(self, alpha: tuple[int, ...]):
        """Raw Taylor coefficient of the multi-index `alpha`."""
        pos = _table(self.num_vars, self.order).position.get(tuple(alpha))
        if pos is None:
            raise DomainError(f"multi-index {alpha} exceeds jet order {self.order}")
        return self.coeffs[..., pos]

    def derivative(self, alpha):
        """Partial derivative value: coefficient times the factorial product.

        For univariate jets an integer derivative order is accepted.
        """
        if isinstance(alpha, (int, np.integer)):
            if self.num_vars != 1:
                raise DimensionError("integer derivative order is only valid for univariate jets")
            alpha = (int(alpha),)
        alpha = tuple(int(a) for a in alpha)
        fac = 1.0
        for a in alpha:
            fac *= math.factorial(a)
        return self.coefficient(alpha) * fac

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        keep = n_terms(self.num_vars, order)
        return Jet(self.num_vars, order, self.coeffs[..., :keep], self.base)


# ---------------------------------------------------------------------------
# constructors


def constant_coeffs(value, terms: int) -> np.ndarray:
    """Coefficients of the constant `value` (scalar or batch) in `terms` slots."""
    v = np.asarray(value, dtype=np.float64)
    c = np.zeros(v.shape + (terms,))
    c[..., 0] = v
    return c


def jet_constant(num_vars: int, order: int, value, base: BasePoint | None = None) -> Jet:
    return Jet(num_vars, order, constant_coeffs(value, n_terms(num_vars, order)), base)


def jet_coordinate(num_vars: int, order: int, var_index: int, value, base: BasePoint | None = None) -> Jet:
    """Jet of the coordinate function x_{var_index} (1-based) at the given value."""
    if not 1 <= var_index <= num_vars:
        raise DimensionError(f"var_index {var_index} outside 1..{num_vars}")
    coeffs = constant_coeffs(value, n_terms(num_vars, order))
    if order >= 1:
        unit = tuple(1 if v == var_index - 1 else 0 for v in range(num_vars))
        coeffs[..., _table(num_vars, order).position[unit]] = 1.0
    return Jet(num_vars, order, coeffs, base)


def jet_from_derivatives(derivs, base: BasePoint | None = None) -> Jet:
    """Univariate jet from derivative values [f, f', f'', ...]; see taylor_coeffs."""
    c = taylor_coeffs(derivs)
    return Jet(1, c.shape[-1] - 1, c, base)


def taylor_coeffs(derivs) -> np.ndarray:
    """Univariate coefficients, coefficient axis last, from rows [f, f', f'', ...]."""
    d = np.asarray(derivs, dtype=np.float64)
    fac = np.array([math.factorial(m) for m in range(d.shape[0])])
    return np.moveaxis(d, 0, -1) / fac


def embed_univariate(j: Jet, num_vars: int, var_index: int, base: BasePoint | None = None) -> Jet:
    """Lift a univariate jet to `num_vars` variables along coordinate `var_index`.

    The result represents the same function viewed as depending on all
    coordinates; mixed and foreign partials are zero.
    """
    if j.num_vars != 1:
        raise DimensionError("embed_univariate expects a univariate jet")
    if not 1 <= var_index <= num_vars:
        raise DimensionError(f"var_index {var_index} outside 1..{num_vars}")
    table = _table(num_vars, j.order)
    coeffs = np.zeros(j.coeffs.shape[:-1] + (table.n_terms,))
    for m in range(j.order + 1):
        axis = tuple(m if v == var_index - 1 else 0 for v in range(num_vars))
        coeffs[..., table.position[axis]] = j.coeffs[..., m]
    return Jet(num_vars, j.order, coeffs, base)


# ---------------------------------------------------------------------------
# arithmetic


def jet_mul(a: Jet, b: Jet) -> Jet:
    if a.num_vars != b.num_vars:
        raise DimensionError(f"cannot multiply jets in {a.num_vars} and {b.num_vars} variables")
    base = _combine_base(a.base, b.base)
    coeffs = mul_coeffs(a.coeffs, b.coeffs, mul_table(a.num_vars, a.order, b.order))
    return Jet(a.num_vars, min(a.order, b.order), coeffs, base)


def mul_coeffs(a: np.ndarray, b: np.ndarray, table: _MulTable) -> np.ndarray:
    """Product of two coefficient arrays through a `mul_table` gather.

    Two unbatched factors, or a table without a plan, take np.add.reduceat
    over `table.starts` of the pairs in `table.ia` order.  Otherwise the
    pairwise products overwrite the gathered copy of the factor with the
    larger batch where the other broadcasts into it, so a product allocates
    two batch x pairs arrays, not three (about 0.6 MB each for an order-3
    product at N = 5 on 256 points), and the table's steps sum every segment
    in place, with the bits of np.add.reduceat.  The result is a fresh array
    of the output size, not a view that would keep the pairs alive.
    """
    if table.steps is None or a.ndim == b.ndim == 1:
        return np.add.reduceat(a[..., table.ia] * b[..., table.ib], table.starts, axis=-1)
    prod = a[..., table.gather_a]
    del a  # a factor passed as a temporary is freed before the second gather
    other = b[..., table.gather_b]
    del b
    if prod.ndim < other.ndim:
        prod, other = other, prod  # a product is the same in either order
    if other.shape == prod.shape or other.ndim == 1:
        prod *= other
    else:
        prod = prod * other
    del other
    for dst, src in table.steps:
        prod[..., dst] += prod[..., src]
    return prod[..., table.unsort]


def jet_partial(a: Jet, var_index: int) -> Jet:
    """Formal partial derivative with respect to coordinate `var_index` (1-based)."""
    if a.order == 0:
        raise OrderExhaustedError("cannot differentiate a jet of order 0")
    if not 1 <= var_index <= a.num_vars:
        raise DimensionError(f"var_index {var_index} outside 1..{a.num_vars}")
    src, scale = partial_table(a.num_vars, a.order, var_index - 1)
    return Jet(a.num_vars, a.order - 1, a.coeffs[..., src] * scale, a.base)


# ---------------------------------------------------------------------------
# analytic composition


def tanh_series(a: np.ndarray, order: int) -> list[np.ndarray]:
    """Taylor coefficients of tanh about a, from y' = 1 - y^2."""
    y = [np.tanh(a)]
    for k in range(order):
        conv = sum(y[i] * y[k - i] for i in range(k + 1))
        src = (1.0 if k == 0 else 0.0) - conv
        y.append(src / (k + 1))
    return y


def polynomial_derivatives(terms: list[tuple[int, float]], t: np.ndarray,
                           order: int) -> list[np.ndarray]:
    """Values [P(t), P'(t), ..., P^(order)(t)] of P(t) = sum c t^deg over (deg, c) terms."""
    out = []
    for m in range(order + 1):
        acc = np.zeros_like(t)
        for deg, c in terms:
            if deg >= m:
                fall = math.factorial(deg) // math.factorial(deg - m)
                acc = acc + c * fall * t ** (deg - m)
        out.append(acc)
    return out


def _series_coeffs(f: str, a: np.ndarray, order: int, alpha: float | None):
    a = np.asarray(a, dtype=np.float64)
    ks = range(order + 1)
    if f == "sin":
        return [np.sin(a + k * math.pi / 2) / math.factorial(k) for k in ks]
    if f == "cos":
        return [np.cos(a + k * math.pi / 2) / math.factorial(k) for k in ks]
    if f == "sinh":
        return [(np.sinh(a) if k % 2 == 0 else np.cosh(a)) / math.factorial(k) for k in ks]
    if f == "cosh":
        return [(np.cosh(a) if k % 2 == 0 else np.sinh(a)) / math.factorial(k) for k in ks]
    if f == "exp":
        e = np.exp(a)
        return [e / math.factorial(k) for k in ks]
    if f == "tanh":
        return tanh_series(a, order)
    if f == "log":
        if np.any(a <= 0.0):
            raise SingularCompositionError("log composed with non-positive constant term")
        out = [np.log(a)]
        out.extend((-1.0) ** (k - 1) / (k * a**k) for k in range(1, order + 1))
        return out
    if f == "recip":
        if np.any(a == 0.0):
            raise SingularCompositionError("reciprocal of a jet with zero constant term")
        return [(-1.0) ** k / a ** (k + 1) for k in ks]
    if f == "pow":
        if alpha is None:
            raise DomainError("pow composition requires the exponent argument")
        if not float(alpha).is_integer() and np.any(a <= 0.0):
            raise SingularCompositionError("non-integer power of a non-positive constant term")
        if np.any(a == 0.0):
            raise SingularCompositionError("power series about zero constant term")
        out = []
        coef = 1.0
        for k in ks:
            out.append(coef * a ** (alpha - k) / math.factorial(k))
            coef *= alpha - k
        return out
    raise DomainError(f"unknown composable function tag {f!r}")


def compose_coeffs(f: str, coeffs: np.ndarray, num_vars: int,
                   alpha: float | None = None) -> np.ndarray:
    """Coefficients of f(inner): Horner evaluation of f's Taylor series about
    inner's value in powers of inner's nilpotent part, each step jet_mul's
    product plus the next series coefficient as a full constant array.  `f`
    is in COMPOSABLE_FUNCTIONS; "pow" takes `alpha`."""
    terms = coeffs.shape[-1]
    order = next((d for d in range(MAX_ORDER + 1) if n_terms(num_vars, d) == terms), None)
    if order is None:
        raise DimensionError(f"{terms} coefficients are no jet of order <= {MAX_ORDER} "
                             f"in {num_vars} variables")
    c = _series_coeffs(f, coeffs[..., 0], order, alpha)
    w = np.array(coeffs)
    w[..., 0] = 0.0
    table = mul_table(num_vars, order, order)
    out = constant_coeffs(c[order], terms)
    for m in range(order - 1, -1, -1):
        out = mul_coeffs(out, w, table) + constant_coeffs(c[m], terms)
    return out


def jet_compose_univariate(f: str, inner: Jet, alpha: float | None = None) -> Jet:
    """Jet of f(inner); see compose_coeffs."""
    coeffs = compose_coeffs(f, inner.coeffs, inner.num_vars, alpha)
    return Jet(inner.num_vars, inner.order, coeffs, inner.base)


def _row_sum(a: list, b: list, k: int):
    """Coefficient k of the product of univariate rows a and b, summed as
    `mul_coeffs` sums it: a_0 b_k + ((a_1 b_(k-1) + a_2 b_(k-2)) + ...), a
    head plus a left fold, as a segment of at most 8 terms (k <= MAX_ORDER)
    sums (see the module docstring).  A row given as None is
    exactly zero and its terms are left out, which can change only the sign
    of a zero result; None when no term is left."""
    tail = None
    for i in range(1, k + 1):
        if a[i] is not None and b[k - i] is not None:
            term = a[i] * b[k - i]
            tail = term if tail is None else tail + term
    if a[0] is None or b[k] is None:
        return tail
    head = a[0] * b[k]
    return head if tail is None else head + tail


def mul_rows(a: list, b: list) -> list:
    """Rows of the product of two univariate row lists of equal length:
    `mul_coeffs` with `mul_table(1, d, d)`, bit for bit."""
    return [_row_sum(a, b, k) for k in range(len(a))]


def compose_rows(f: str, rows: list, alpha: float | None = None) -> list:
    """Rows of f(inner) from the inner's univariate rows [w_0, ..., w_d]:
    arrays over the batch (a constant row may be a float), or None for a row
    that is exactly zero.  `compose_coeffs` with num_vars = 1, bit for bit,
    on d + 1 arrays of the batch size.

    Each Horner step forms the product with the nilpotent part row by row as
    `mul_rows` does, then adds c_m to row 0 and 0.0 to every other row, as
    the constant array does.  Terms with an exactly zero factor (w_0, None
    rows, accumulator rows not reached yet) are left out: with a finite
    other factor they could change only the sign of a zero, and the added
    0.0 makes every zero of a row >= 1 +0.0 either way.  Row 0 keeps its
    product with w_0 = 0.0, whose sign reaches a zero c_m."""
    order = len(rows) - 1
    c = _series_coeffs(f, rows[0], order, alpha)
    w = [None] + list(rows[1:])
    out = [c[order]] + [None] * order
    for m in range(order - 1, -1, -1):
        prods = [_row_sum(out, w, k) for k in range(1, order + 1)]
        out = [out[0] * 0.0 + c[m]] + [None if p is None else p + 0.0 for p in prods]
    return [np.zeros_like(out[0]) if row is None else row for row in out]
