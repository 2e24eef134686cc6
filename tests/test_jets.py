"""Jet arithmetic: hand-checked expansions plus algebraic property tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radwarp import jets
from radwarp.errors import (
    BasePointError,
    DimensionError,
    OrderExhaustedError,
    SingularCompositionError,
)
from radwarp.jets import (
    Jet,
    BasePoint,
    compose_coeffs,
    compose_rows,
    embed_univariate,
    jet_compose_univariate,
    jet_constant,
    jet_coordinate,
    jet_from_derivatives,
    jet_mul,
    jet_partial,
)

from oracles import jet_add, jet_scale, mul_coeffs_reduceat, oracle_compose


def uni(coeffs, order=None):
    c = list(coeffs)
    order = len(c) - 1 if order is None else order
    c = c + [0.0] * (jets.n_terms(1, order) - len(c))
    return Jet(1, order, np.array(c))


class TestAdd:
    # the sum of two jets is the oracles' jet_add, which oracle_compose and
    # oracle_covariant use
    def test_cancellation(self):
        a = uni([1.0, 1.0])  # 1 + x
        b = uni([2.0, -1.0])  # 2 - x
        out = jet_add(a, b)
        assert out.coeffs.tolist() == [3.0, 0.0]

    def test_identity(self):
        a = uni([0.5, -2.0, 3.0])
        zero = jet_constant(1, 2, 0.0)
        out = jet_add(a, zero)
        np.testing.assert_array_equal(out.coeffs, a.coeffs)

    def test_two_variables(self):
        x = jet_coordinate(2, 1, 1, 0.0)
        y = jet_coordinate(2, 1, 2, 0.0)
        out = jet_add(x, y)
        assert out.coefficient((1, 0)) == 1.0
        assert out.coefficient((0, 1)) == 1.0
        assert out.value == 0.0

    def test_mismatched_num_vars(self):
        with pytest.raises(DimensionError):
            jet_add(jet_constant(1, 2, 1.0), jet_constant(2, 2, 1.0))

    def test_order_is_min(self):
        out = jet_add(uni([1, 2, 3]), uni([1, 1]))
        assert out.order == 1


class TestMul:
    def test_binomial_square(self):
        a = uni([1.0, 1.0], order=2)  # 1 + x at order 2
        out = jet_mul(a, a)
        assert out.coeffs.tolist() == [1.0, 2.0, 1.0]

    def test_identity(self):
        a = uni([0.3, 1.7, -0.2])
        one = jet_constant(1, 2, 1.0)
        out = jet_mul(a, one)
        np.testing.assert_array_equal(out.coeffs, a.coeffs)

    def test_xy_cross_term(self):
        x = jet_coordinate(2, 2, 1, 0.0)
        y = jet_coordinate(2, 2, 2, 0.0)
        out = jet_mul(x, y)
        assert out.coefficient((1, 1)) == 1.0
        assert np.count_nonzero(out.coeffs) == 1

    def test_mismatched_num_vars(self):
        with pytest.raises(DimensionError):
            jet_mul(jet_constant(1, 2, 1.0), jet_constant(3, 2, 1.0))


class TestCompose:
    def test_sin_at_pi_half(self):
        inner = jet_coordinate(1, 2, 1, math.pi / 2)
        out = jet_compose_univariate("sin", inner)
        np.testing.assert_allclose(out.coeffs, [1.0, 0.0, -0.5], atol=1e-15)

    def test_exp_at_zero(self):
        inner = jet_coordinate(1, 3, 1, 0.0)
        out = jet_compose_univariate("exp", inner)
        np.testing.assert_allclose(out.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], rtol=1e-15)

    def test_recip_geometric(self):
        inner = jet_coordinate(1, 2, 1, 2.0)
        out = jet_compose_univariate("recip", inner)
        np.testing.assert_allclose(out.coeffs, [0.5, -0.25, 0.125], rtol=1e-15)

    def test_recip_of_zero_raises(self):
        with pytest.raises(SingularCompositionError):
            jet_compose_univariate("recip", jet_coordinate(1, 2, 1, 0.0))

    def test_log_of_zero_raises(self):
        with pytest.raises(SingularCompositionError):
            jet_compose_univariate("log", jet_coordinate(1, 2, 1, 0.0))

    @pytest.mark.parametrize("terms, num_vars", [(5, 2), (8, 1), (0, 3)])
    def test_coefficient_count_of_no_jet_is_rejected(self, terms, num_vars):
        # 5 lies between n_terms(2, 1) = 3 and n_terms(2, 2) = 6; 8 is
        # n_terms(1, 7), past MAX_ORDER
        with pytest.raises(DimensionError, match=f"{terms} coefficients"):
            compose_coeffs("sin", np.ones(terms), num_vars)

    @pytest.mark.parametrize("build", [lambda: jets.n_terms(0, 2), lambda: jets.mul_table(0, 1, 1),
                                       lambda: compose_coeffs("sin", np.ones(1), 0),
                                       lambda: jets.partial_table(-1, 1, 0)])
    def test_no_variables_is_a_dimension_error(self, build):
        # the index tables of zero variables would recurse without end
        with pytest.raises(DimensionError, match="at least one variable"):
            build()

    def test_pow_matches_polynomial(self):
        inner = jet_coordinate(1, 3, 1, 3.0)
        out = jet_compose_univariate("pow", inner, alpha=2.0)
        np.testing.assert_allclose(out.coeffs, [9.0, 6.0, 1.0, 0.0], atol=1e-14)

    def test_tanh_against_closed_form(self):
        a = 0.7
        inner = jet_coordinate(1, 3, 1, a)
        out = jet_compose_univariate("tanh", inner)
        t = math.tanh(a)
        s2 = 1 - t * t  # sech^2
        # tanh' = sech^2, tanh'' = -2 tanh sech^2, tanh''' = sech^2(6 tanh^2 - 2) * ... use -2 sech^2 (sech^2 - 2 tanh^2)
        d3 = -2 * s2 * (s2 - 2 * t * t)
        np.testing.assert_allclose(
            [out.derivative(k) for k in range(4)],
            [t, s2, -2 * t * s2, d3],
            rtol=1e-13,
        )


class TestPartial:
    def test_xy_partial_x(self):
        x = jet_coordinate(2, 2, 1, 2.0)
        y = jet_coordinate(2, 2, 2, 3.0)
        out = jet_partial(jet_mul(x, y), 1)
        assert out.value == 3.0
        assert out.coefficient((0, 1)) == 1.0

    def test_constant_partial_is_zero(self):
        out = jet_partial(jet_constant(2, 2, 5.0), 1)
        assert not np.any(out.coeffs)

    def test_x_squared(self):
        x = jet_coordinate(1, 2, 1, 0.0)
        out = jet_partial(jet_mul(x, x), 1)
        assert out.value == 0.0
        assert out.derivative(1) == 2.0

    def test_order_zero_raises(self):
        with pytest.raises(OrderExhaustedError):
            jet_partial(jet_constant(1, 0, 1.0), 1)


class TestBatchAndBase:
    def test_batched_coordinate(self):
        r = np.array([0.5, 1.0, 2.0])
        j = jet_coordinate(1, 2, 1, r)
        sq = jet_mul(j, j)
        np.testing.assert_allclose(sq.value, r**2)
        np.testing.assert_allclose(sq.derivative(1), 2 * r)

    def test_base_point_mismatch(self):
        b1 = BasePoint((1.0,))
        b2 = BasePoint((2.0,))
        a = jet_constant(1, 2, 1.0, base=b1)
        b = jet_constant(1, 2, 1.0, base=b2)
        with pytest.raises(BasePointError):
            jet_mul(a, b)

    def test_equal_base_points_combine(self):
        b1 = BasePoint((1.0, 2.0))
        b2 = BasePoint((1.0, 2.0))
        out = jet_mul(jet_constant(2, 1, 1.5, base=b1), jet_constant(2, 1, 2.0, base=b2))
        assert out.value == 3.0 and out.base is b1

    def test_embed_univariate(self):
        j = jet_from_derivatives([2.0, 3.0, 4.0])
        e = embed_univariate(j, 3, 2)
        assert e.num_vars == 3
        assert e.value == 2.0
        assert e.derivative((0, 1, 0)) == 3.0
        assert e.derivative((0, 2, 0)) == 4.0
        assert e.coefficient((1, 0, 0)) == 0.0


# ---------------------------------------------------------------------------
# algebraic properties


coeff_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)


def jet_strategy(num_vars, order):
    n = jets.n_terms(num_vars, order)
    return st.lists(coeff_floats, min_size=n, max_size=n).map(
        lambda c: Jet(num_vars, order, np.array(c))
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), num_vars=st.integers(1, 3), order=st.integers(1, 4), var=st.integers(1, 3))
def test_product_rule(data, num_vars, order, var):
    var = min(var, num_vars)
    a = data.draw(jet_strategy(num_vars, order))
    b = data.draw(jet_strategy(num_vars, order))
    lhs = jet_partial(jet_mul(a, b), var)
    rhs = jet_add(jet_mul(jet_partial(a, var), b.truncated(order - 1)),
                  jet_mul(a.truncated(order - 1), jet_partial(b, var)))
    scale = np.max(np.abs(rhs.coeffs)) + 1.0
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-13, atol=1e-13 * scale)


@settings(max_examples=120, deadline=None)
@given(
    x0=st.floats(min_value=0.2, max_value=3.0),
    slope=st.floats(min_value=-2, max_value=2, allow_nan=False),
    quad=st.floats(min_value=-1, max_value=1, allow_nan=False),
    alpha=st.floats(min_value=-2.5, max_value=2.5),
    f=st.sampled_from(["sin", "cos", "sinh", "cosh", "tanh", "exp", "log", "recip", "pow"]),
)
def test_composition_chain_rule(x0, slope, quad, alpha, f):
    order = 3
    inner = Jet(1, order, np.array([x0, slope, quad, 0.1]))
    composed = jet_compose_univariate(f, inner, alpha=alpha if f == "pow" else None)
    lhs = jet_partial(composed, 1)
    fprime = {
        "sin": "cos", "sinh": "cosh", "cosh": "sinh", "exp": "exp",
    }
    trunc = inner.truncated(order - 1)
    if f in fprime:
        outer = jet_compose_univariate(fprime[f], trunc)
    elif f == "cos":
        outer = jet_scale(jet_compose_univariate("sin", trunc), -1.0)
    elif f == "tanh":
        t = jet_compose_univariate("tanh", trunc)
        outer = jet_add(jet_constant(1, order - 1, 1.0), jet_scale(jet_mul(t, t), -1.0))
    elif f == "log":
        outer = jet_compose_univariate("recip", trunc)
    elif f == "pow":  # d(x^a) = a x^(a-1)
        outer = jet_scale(jet_compose_univariate("pow", trunc, alpha=alpha - 1.0), alpha)
    else:  # recip: d(1/x) = -1/x^2
        r = jet_compose_univariate("recip", trunc)
        outer = jet_scale(jet_mul(r, r), -1.0)
    rhs = jet_mul(outer, jet_partial(inner, 1))
    scale = np.max(np.abs(rhs.coeffs)) + 1.0
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), num_vars=st.integers(1, 3), order=st.integers(0, 3))
def test_multiplication_distributes(data, num_vars, order):
    a = data.draw(jet_strategy(num_vars, order))
    b = data.draw(jet_strategy(num_vars, order))
    c = data.draw(jet_strategy(num_vars, order))
    lhs = jet_mul(jet_add(a, b), c)
    rhs = jet_add(jet_mul(a, c), jet_mul(b, c))
    scale = np.max(np.abs(rhs.coeffs)) + 1.0
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-13, atol=1e-13 * scale)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), num_vars=st.integers(1, 3), order=st.integers(0, 4))
def test_truncation_idempotent(data, num_vars, order):
    a = data.draw(jet_strategy(num_vars, order))
    lower = max(0, order - 1)
    once = a.truncated(lower)
    twice = once.truncated(lower)
    np.testing.assert_array_equal(once.coeffs, twice.coeffs)
    assert once.order == twice.order == lower


def test_coeffs_are_immutable():
    a = jet_constant(1, 2, 1.0)
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0


# ---------------------------------------------------------------------------
# truncation commutes with arithmetic, bit for bit: the degree <= d
# coefficients of a product or composition depend only on the degree <= d
# coefficients of its inputs, and they are summed in the same order


def random_jet(seed: int, num_vars: int, order: int, batch: tuple, positive: bool = False) -> Jet:
    """Jet with a constant term of size 0.2..3 (positive if asked) and other
    coefficients uniform, about a third of them zeros of either sign.

    The constant term is never zero: at -0.0 an odd function's series starts
    with -0.0, and whether Horner's additions keep that sign depends on the
    order (at order 0 there are none).
    """
    rng = np.random.default_rng(seed)
    shape = batch + (jets.n_terms(num_vars, order),)
    zero = rng.random(shape)
    c = np.where(zero < 0.15, 0.0, np.where(zero < 0.3, -0.0, rng.uniform(-4.0, 4.0, shape)))
    sign = 1.0 if positive else rng.choice([-1.0, 1.0], batch)
    c[..., 0] = sign * rng.uniform(0.2, 3.0, batch)
    return Jet(num_vars, order, c)


truncation_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    num_vars=st.integers(1, 5),
    order=st.integers(0, 4),
    cut=st.integers(0, 4),
    batch=st.sampled_from([(), (1,), (3,), (2, 2)]),
)


@settings(max_examples=200, deadline=None)
@given(extra=st.integers(0, 2), **truncation_cases)
def test_product_of_truncations_is_truncated_product(seed, num_vars, order, cut, batch, extra):
    d = min(cut, order)
    a = random_jet(seed, num_vars, order, batch)
    b = random_jet(seed + 1, num_vars, min(order + extra, 4), batch)
    lhs = jet_mul(a.truncated(d), b.truncated(d))
    rhs = jet_mul(a, b).truncated(d)
    assert lhs.order == rhs.order == d
    assert lhs.coeffs.tobytes() == rhs.coeffs.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_vars=st.integers(1, 5), order=st.integers(0, 4),
       shapes=st.sampled_from([((), ()), ((7,), (7,)), ((7,), ()), ((), (7,)),
                               ((2, 3), (3,)), ((1,), (4,)), ((4, 1), (1, 3))]))
def test_mul_coeffs_is_the_gathered_product(seed, num_vars, order, shapes):
    # the in-place product gives the bits of the plain gather, whichever
    # factor carries the batch, and leaves both factors untouched
    a = random_jet(seed, num_vars, order, shapes[0]).coeffs
    b = random_jet(seed + 1, num_vars, order, shapes[1]).coeffs
    table = jets.mul_table(num_vars, order, order)
    a0, b0 = a.copy(), b.copy()
    want = np.add.reduceat(a[..., table.ia] * b[..., table.ib], table.starts, axis=-1)
    got = jets.mul_coeffs(a, b, table)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()


# a sample of values a summing order can tell apart: zeros of either sign,
# subnormals, and magnitudes whose sums round
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, -3e-310, 1e-160, -7.5, 1e100])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_vars=st.integers(1, 8), order_a=st.integers(0, 6),
       order_b=st.integers(0, 6), edge=st.sampled_from([0.0, 0.3, 0.9]),
       shapes=st.sampled_from([((), ()), ((7,), (7,)), ((7,), ()), ((), (7,)),
                               ((2, 3), (3,)), ((1,), (4,)), ((4, 1), (1, 3))]))
@example(seed=0, num_vars=8, order_a=6, order_b=6, edge=0.0, shapes=((), ()))
@example(seed=1, num_vars=8, order_a=6, order_b=6, edge=0.3, shapes=((4, 1), (1, 3)))
@example(seed=2, num_vars=8, order_a=6, order_b=5, edge=0.9, shapes=((2, 3), (3,)))
@example(seed=3, num_vars=5, order_a=3, order_b=2, edge=0.3, shapes=((7,), ()))
def test_summing_plan_is_the_reduceat_of_the_gathered_pairs(seed, num_vars, order_a, order_b,
                                                            edge, shapes):
    # mixed orders as in the Christoffel rows; at 8 variables and order 6 a
    # segment has up to 64 terms, so the table has no plan and np.add.reduceat
    # sums it, while orders <= 3 run the planned slice adds
    rng = np.random.default_rng(seed)
    factors = []
    for order, batch in zip((order_a, order_b), shapes):
        shape = batch + (jets.n_terms(num_vars, order),)
        c = rng.standard_normal(shape) * 2.0 ** rng.integers(-60, 60, shape)
        factors.append(np.where(rng.random(shape) < edge, rng.choice(EDGE_VALUES, shape), c))
    table = jets.mul_table(num_vars, order_a, order_b)
    want = mul_coeffs_reduceat(*factors, table)
    got = jets.mul_coeffs(*factors, table)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _segment_lengths(table) -> np.ndarray:
    return np.diff(table.starts, append=len(table.ia))


@pytest.mark.parametrize("num_vars, order", [(n, d) for n in range(1, 7) for d in range(4)]
                         + [(1, d) for d in range(4, 7)])
def test_summing_plan_is_one_slice_add_per_place(num_vars, order):
    # place p holds the p-th pair of every segment longer than p, longest
    # segment first: each place p >= 2 adds into place 1 as one pair of
    # slices, then place 1 adds into the heads, t0 + ((t1 + t2) + ...)
    table = jets.mul_table(num_vars, order, order)
    lengths = _segment_lengths(table)
    assert lengths.max() <= 8
    counts = [int((lengths > place).sum()) for place in range(lengths.max())]
    off = [sum(counts[:place]) for place in range(len(counts) + 1)]
    want = [(slice(off[1], off[1] + counts[p]), slice(off[p], off[p + 1]))
            for p in range(2, len(counts))]
    want += [(slice(0, counts[1]), slice(off[1], off[2]))] if len(counts) > 1 else []
    assert table.steps == tuple(want)
    assert sorted(table.gather_a.tolist()) == sorted(table.ia.tolist())


def test_a_segment_over_8_terms_leaves_the_table_to_reduceat():
    # (2, 2) is alpha + beta in 9 ways at order 4 in two variables
    table = jets.mul_table(2, 4, 4)
    assert _segment_lengths(table).max() == 9
    assert table.steps is None and table.gather_a is None and table.unsort is None
    a, b = np.arange(15.0 * 3).reshape(3, 15), np.linspace(-1.0, 1.0, 15)
    assert jets.mul_coeffs(a, b, table).tobytes() == mul_coeffs_reduceat(a, b, table).tobytes()


def test_the_default_suite_builds_only_planned_tables(monkeypatch, tmp_path):
    # every product the checks form has segments of at most 8 terms, so no
    # batched product falls to np.add.reduceat
    from radwarp.cli import main

    built, build = set(), jets._mul_table
    monkeypatch.setattr(jets, "_mul_table", lambda *key: built.add(key) or build(*key))
    assert main(["run", "--default-suite", "--out", str(tmp_path / "report.json")]) == 0
    assert built and all(build(*key).steps is not None for key in built)


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from(jets.COMPOSABLE_FUNCTIONS),
       alpha=st.sampled_from([-1.5, 0.5, 2.0, 3.7]), **truncation_cases)
def test_composition_of_truncation_is_truncated_composition(seed, num_vars, order, cut, batch,
                                                            f, alpha):
    d = min(cut, order)
    x = random_jet(seed, num_vars, order, batch, positive=f in ("log", "pow", "recip"))
    alpha = alpha if f == "pow" else None
    lhs = jet_compose_univariate(f, x.truncated(d), alpha)
    rhs = jet_compose_univariate(f, x, alpha).truncated(d)
    assert lhs.order == rhs.order == d
    assert lhs.coeffs.tobytes() == rhs.coeffs.tobytes()


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from(jets.COMPOSABLE_FUNCTIONS), seed=st.integers(0, 2**32 - 1),
       num_vars=st.integers(1, 6), order=st.integers(0, 4),
       batch=st.sampled_from([(), (1,), (5,)]), alpha=st.sampled_from([-1.5, 0.5, 2.0, 3.7]))
def test_array_composition_is_the_jet_object_horner(f, seed, num_vars, order, batch, alpha):
    # the array route runs the Jet operations of the oracle, so values and
    # the signs of zeros agree exactly
    x = random_jet(seed, num_vars, order, batch, positive=f in ("log", "pow", "recip"))
    alpha = alpha if f == "pow" else None
    want = oracle_compose(f, x, alpha).coeffs
    got = compose_coeffs(f, x.coeffs, num_vars, alpha)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    wrapped = jet_compose_univariate(f, x, alpha)
    assert (wrapped.num_vars, wrapped.order) == (num_vars, order)
    assert wrapped.coeffs.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from(jets.COMPOSABLE_FUNCTIONS), seed=st.integers(0, 2**32 - 1),
       order=st.integers(0, 4), size=st.sampled_from([1, 2, 7, 67]),
       zeros=st.sets(st.integers(1, 4)), alpha=st.sampled_from([-1.5, 0.5, 2.0, 3.7]))
def test_row_composition_is_the_array_composition(f, seed, order, size, zeros, alpha):
    # rows given as None are exact zeros; every bit, the signs of zeros
    # included, is that of compose_coeffs on the stacked coefficients
    x = random_jet(seed, 1, order, (size,), positive=f in ("log", "pow", "recip")).coeffs.copy()
    for k in zeros & set(range(1, order + 1)):
        x[:, k] = 0.0
    rows = [None if k in zeros else x[:, k].copy() for k in range(order + 1)]
    alpha = alpha if f == "pow" else None
    want = compose_coeffs(f, x, 1, alpha)
    got = np.stack(compose_rows(f, rows, alpha), axis=-1)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(0, 4), size=st.sampled_from([1, 5, 67]))
def test_row_product_is_the_gathered_product(seed, order, size):
    a = random_jet(seed, 1, order, (size,)).coeffs
    b = random_jet(seed + 1, 1, order, (size,)).coeffs
    want = jets.mul_coeffs(a, b, jets.mul_table(1, order, order))
    got = np.stack(jets.mul_rows([a[:, k] for k in range(order + 1)],
                                 [b[:, k] for k in range(order + 1)]), axis=-1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
