"""Exact polynomial core: ring laws, substitutions, serialization."""

from fractions import Fraction as F
from itertools import permutations
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsjack.operators import (Operators, divide_by_difference,
                              divided_difference)
from nsjack.poly import (SparsePoly, exp_series, exp_truncated,
                         geometric_substitution, linear_combination,
                         power_sum, rising, series_binomial, symmetrize)


def P(n, terms):
    return SparsePoly(n, terms)


x0 = SparsePoly.variable(2, 0)
x1 = SparsePoly.variable(2, 1)


def test_product_difference_of_squares():
    assert (x0 + x1) * (x0 - x1) == P(2, {(2, 0): 1, (0, 2): -1})


def test_additive_inverse_gives_empty_term_map():
    p = 3 * x0 * x1 - x1 ** 2
    assert (p + (-p)).terms == {}


def test_laurent_pair_product():
    r = P(2, {(1, -1): 1})
    prod = (SparsePoly.one(2) - r) * (SparsePoly.one(2) - r.invert_vars())
    assert prod == P(2, {(0, 0): 2, (1, -1): -1, (-1, 1): -1})
    assert prod.constant_term() == 2


def test_constant_term_cases():
    assert P(2, {(1, -1): 1}).constant_term() == 0
    assert SparsePoly.constant(2, F(7, 3)).constant_term() == F(7, 3)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        x0 + SparsePoly.variable(3, 0)
    with pytest.raises(ValueError):
        x0 * SparsePoly.variable(3, 0)


def test_shift_by_one():
    assert (x0 * x1).shift_by_one() == P(
        2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_evaluate():
    alpha = F(1)
    p = x0 + x1 / (alpha + 1)
    assert p.eval_exact([1, 1]) == F(3, 2)


def test_pole_error():
    p = P(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        p.eval_exact([0, 1])
    assert p.eval_exact([F(1, 2), 0]) == 2


def test_invert_and_square_variables():
    p = P(2, {(2, 1): 1})
    assert p.invert_vars() == P(2, {(-2, -1): 1})
    assert p.scale_exponents(2) == P(2, {(4, 2): 1})


def test_symmetrize():
    assert symmetrize(SparsePoly.one(2)) == SparsePoly.constant(2, 2)
    assert symmetrize(x0) == x0 + x1
    y1 = SparsePoly.variable(3, 1)
    expected = 2 * sum((SparsePoly.variable(3, i) for i in range(3)),
                       SparsePoly.zero(3))
    assert symmetrize(y1) == expected


def test_series_binomial():
    assert series_binomial(1, 3) == [1, 1, 1, 1]
    assert series_binomial(F(1, 2), 2) == [1, F(1, 2), F(3, 8)]
    assert series_binomial(0, 2) == [1, 0, 0]


def test_rising_factorial():
    assert rising(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert rising(5, 0) == 1


def test_exp_truncated_matches_series():
    p = x0 + x1
    e = exp_truncated(p, 3)
    expect = (SparsePoly.one(2) + p + p * p / 2 + p * p * p / 6).filter_terms(
        lambda t: sum(t) <= 3)
    assert e == expect


def test_geometric_substitution_univariate():
    x = SparsePoly.variable(1, 0)
    got = geometric_substitution(x, [0], 4)
    assert got == P(1, {(1,): 1, (2,): 1, (3,): 1, (4,): 1})


def test_exp_and_geometric_truncate_in_a_block():
    p = x0 * x1 + x1
    expect = (SparsePoly.one(2) + p + p * p / 2).filter_terms(
        lambda e: e[1] <= 2)
    assert exp_truncated(p, 2, block=(1,)) == expect
    # a term of degree <= 0 in the block would never leave the series
    for bad in (p + 1, p + x0, p + x0.mul_var(1, -1)):
        with pytest.raises(ValueError):
            exp_truncated(bad, 2, block=(1,))
    # x0 x1 / (1 - x1) through x1-degree 3, whatever the x0-degree
    assert geometric_substitution(x0 * x1, [1], 3, block=(1,)) == P(
        2, {(1, 1): 1, (1, 2): 1, (1, 3): 1})
    with pytest.raises(ValueError):
        geometric_substitution(x0 * x1, [1], 3, block=(0,))


def test_equality_with_other_types():
    one = SparsePoly.one(2)
    assert one == 1 and 1 == one and one == F(1) and one != 2
    assert SparsePoly.zero(2) == 0 and SparsePoly.zero(2) == F(0)
    # only polynomials, ints and Fractions compare by value
    assert (one == "1") is False and (one == "x") is False
    assert (one == None) is False and one != None  # noqa: E711
    assert one in [None, "1", one] and None not in [one]


def test_json_round_trip_and_order():
    p = x0 + x1 / 2
    d = p.to_json_dict()
    assert d == {"n": 2, "terms": [[[1, 0], "1", "1"], [[0, 1], "1", "2"]]}
    assert SparsePoly.from_json_dict(d) == p


small_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
exps2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys2 = st.dictionaries(exps2, small_coeff, max_size=5).map(
    lambda t: SparsePoly(2, t))
lexps2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
laurent2 = st.dictionaries(lexps2, small_coeff, max_size=4).map(
    lambda t: SparsePoly(2, t))


@settings(max_examples=60, deadline=None)
@given(polys2, polys2, polys2)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@settings(max_examples=60, deadline=None)
@given(laurent2, laurent2)
def test_constant_term_swap_symmetry(f, g):
    lhs = (f * g.invert_vars()).constant_term()
    rhs = (g * f.invert_vars()).constant_term()
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(polys2)
def test_symmetrize_idempotent_up_to_factorial(p):
    s = symmetrize(p)
    assert symmetrize(s) == 2 * s


# -- the integer-numerator representation against a plain Fraction dict ----

mixed_coeff = st.fractions(min_value=-50, max_value=50, max_denominator=36)
exps3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
terms3 = st.dictionaries(exps3, mixed_coeff, max_size=6)
scalars = mixed_coeff.filter(lambda c: c != 0)


def canonical(p):
    """Assert the stored form is canonical; returns p."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    if not p.num:
        assert p.den == 1
    return p


def nonzero(d):
    return {e: F(c) for e, c in d.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return nonzero(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return nonzero(out)


def ref_map(a, relabel, sign=lambda e: 1):
    out = {}
    for e, c in a.items():
        key = relabel(e)
        out[key] = out.get(key, 0) + sign(e) * c
    return nonzero(out)


def ref_diff(a, i):
    return nonzero({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                    for e, c in a.items() if e[i]})


def ref_shift(a, variables):
    for i in variables:
        out = {}
        for e, c in a.items():
            for j in range(e[i] + 1):
                key = e[:i] + (j,) + e[i + 1:]
                out[key] = out.get(key, 0) + c * comb(e[i], j)
        a = nonzero(out)
    return a


def agrees(p, expected):
    canonical(p)
    assert p.terms == nonzero(expected)
    assert dict(p.terms.items()) == nonzero(expected)
    assert p == SparsePoly(p.n, expected)
    assert hash(p) == hash(SparsePoly(p.n, expected))


@settings(max_examples=80, deadline=None)
@given(terms3, terms3, scalars)
def test_ring_operations_match_fraction_reference(a, b, c):
    p, q = canonical(SparsePoly(3, a)), canonical(SparsePoly(3, b))
    a, b = nonzero(a), nonzero(b)
    agrees(p, a)
    agrees(p + q, ref_add(a, b))
    agrees(p - q, ref_add(a, b, -1))
    agrees(-p, ref_add({}, a, -1))
    agrees(p * q, ref_mul(a, b))
    agrees(p ** 2, ref_mul(a, a))
    agrees(p * c, {e: v * c for e, v in a.items()})
    agrees(c * p, {e: v * c for e, v in a.items()})
    agrees(p * 6, {e: v * 6 for e, v in a.items()})
    agrees(p / c, {e: v / c for e, v in a.items()})
    agrees(p + c, ref_add(a, {(0, 0, 0): c}))
    agrees(c - p, ref_add({(0, 0, 0): c}, a, -1))
    agrees(p * 0, {})


@settings(max_examples=80, deadline=None)
@given(terms3, st.permutations(range(3)), st.integers(0, 2), st.integers(0, 2))
def test_substitutions_match_fraction_reference(a, sigma, i, j):
    p = canonical(SparsePoly(3, a))
    a = nonzero(a)

    def swap(e):
        le = list(e)
        le[i], le[j] = le[j], le[i]
        return tuple(le)

    def permute(e):
        ne = [0] * 3
        for k, x in enumerate(e):
            ne[sigma[k]] = x
        return tuple(ne)

    agrees(p.swap_vars(i, j), ref_map(a, swap))
    agrees(p.permute_vars(sigma), ref_map(a, permute))
    agrees(p.invert_vars(), ref_map(a, lambda e: tuple(-x for x in e)))
    agrees(p.scale_exponents(2), ref_map(a, lambda e: tuple(2 * x for x in e)))
    agrees(p.diff(i), ref_diff(a, i))
    agrees(p.filter_terms(lambda e: sum(e) % 2 == 0),
           {e: c for e, c in a.items() if sum(e) % 2 == 0})
    agrees(p.shift_by_one(), ref_shift(a, range(3)))
    agrees(p.shift_by_one(only=[i]), ref_shift(a, [i]))
    assert p.eval_exact([1, 1, 1]) == sum(a.values(), F(0))
    assert p.sorted_terms() == sorted(a.items(), reverse=True)


@settings(max_examples=80, deadline=None)
@given(terms3)
def test_scaling_round_trip_and_cancellation(a):
    p = SparsePoly(3, a)
    back = canonical(p * 3 / 3)
    assert back == p and hash(back) == hash(p)
    assert (back.den, back.num) == (p.den, p.num)
    assert (p - p).terms == {}
    assert canonical(p - p) == SparsePoly.zero(3)


# -- the graded truncated product --------------------------------------------

# exponents of x0 and x1 may be negative, those of x2 may not
lexps3 = st.tuples(st.integers(-2, 3), st.integers(-2, 3), st.integers(0, 3))
laurent3 = st.dictionaries(lexps3, mixed_coeff, max_size=6)
blocks3 = st.sampled_from([None, (0, 1, 2), (2,), (1,), (2, 0)])


@settings(max_examples=150, deadline=None)
@given(laurent3, laurent3, blocks3, st.integers(-3, 7))
@example({}, {(1, 0, 2): F(1, 3)}, (2,), 1)
@example({(0, -1, 1): 2}, {(1, 0, 2): F(1, 3)}, None, -1)
@example({(0, -1, 1): 2, (1, 1, 0): F(-1, 6)}, {(-1, 2, 2): F(3, 4)}, (2,), 2)
def test_truncated_product_matches_filtered_product(a, b, block, cap):
    p, q = SparsePoly(3, a), SparsePoly(3, b)
    in_block = range(3) if block is None else block
    keep = lambda e: sum(e[i] for i in in_block) <= cap
    got = p.mul_truncated(q, block, cap)
    agrees(got, {e: c for e, c in ref_mul(nonzero(a), nonzero(b)).items()
                 if keep(e)})
    assert got == (p * q).filter_terms(keep)


# -- substitutions on a block of variables ------------------------------------

factors = st.sampled_from([F(-1), F(2), F(7, 5), F(1)])


@settings(max_examples=120, deadline=None)
@given(laurent3, factors, blocks3)
# x_i -> -x_i for one variable, and for all of them
@example({(1, 0, 2): 1, (0, 1, 0): 1}, F(-1), (0,))
@example({(1, 1, 0): 1, (1, 0, 0): 1}, F(-1), None)
@example({(-2, 1, 3): F(5, 3), (1, -1, 0): -2}, F(7, 5), (0, 1))
def test_scale_vars_matches_fraction_reference(a, factor, block):
    p = SparsePoly(3, a)
    in_block = range(3) if block is None else block
    agrees(p.scale_vars(factor, block),
           ref_map(nonzero(a), tuple,
                   lambda e: factor ** sum(e[i] for i in in_block)))
    with pytest.raises(ValueError):
        p.scale_vars(0, block)


@settings(max_examples=60, deadline=None)
@given(laurent3, st.integers(3, 5), st.integers(0, 2))
def test_embed_matches_fraction_reference(a, total, offset):
    p = SparsePoly(3, a)
    if offset + 3 > total:
        with pytest.raises(ValueError):
            p.embed(total, offset)
        return
    pad = lambda e: (0,) * offset + e + (0,) * (total - 3 - offset)
    got = p.embed(total, offset)
    assert got.n == total
    agrees(got, ref_map(nonzero(a), pad))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), blocks3)
def test_power_sum_matches_fraction_reference(k, block):
    ref = {}
    for i in (range(3) if block is None else block):
        e = tuple(k if j == i else 0 for j in range(3))
        ref[e] = ref.get(e, 0) + F(1)
    agrees(power_sum(3, k, block), ref)


@settings(max_examples=80, deadline=None)
@given(laurent3, blocks3)
def test_block_symmetrize_matches_fraction_reference(a, block):
    p = SparsePoly(3, a)
    idx = list(range(3) if block is None else block)
    ref = {}
    for perm in permutations(idx):
        # variable idx[j] goes to perm[j]
        def move(e, perm=perm):
            ne = list(e)
            for src, dst in zip(idx, perm):
                ne[dst] = e[src]
            return tuple(ne)
        ref = ref_add(ref, ref_map(nonzero(a), move))
    agrees(symmetrize(p, block), ref)


def test_terms_view_reads_like_a_dict():
    p = SparsePoly(2, {(1, 0): F(1, 2), (0, 1): F(2, 3)})
    assert (p.num, p.den) == ({(1, 0): 3, (0, 1): 4}, 6)
    view = p.terms
    assert len(view) == 2 and (1, 0) in view and (2, 2) not in view
    assert view[(0, 1)] == F(2, 3) and view.get((2, 2)) is None
    assert view.get((2, 2), F(0)) == 0
    assert set(view) == set(view.keys()) == {(1, 0), (0, 1)}
    assert sorted(view.values()) == [F(1, 2), F(2, 3)]
    assert dict(view.items()) == {(1, 0): F(1, 2), (0, 1): F(2, 3)}
    assert view == {(1, 0): F(1, 2), (0, 1): F(2, 3)}
    assert view != {(1, 0): F(1, 2)}
    assert view != {(1, 0): F(1, 2), (0, 1): F(2, 3), (1, 1): 0}
    with pytest.raises(TypeError):
        view[(1, 0)] = 1


# -- the n-ary accumulator and the exponent shift ----------------------------

# int and Fraction coefficients, zero included
lc_coeff = st.one_of(st.integers(-6, 6), mixed_coeff)
summands3 = st.lists(st.tuples(lc_coeff, laurent3), max_size=6)


@settings(max_examples=100, deadline=None)
@given(summands3, st.booleans())
@example([], True)
# equal denominators that cancel to zero
@example([(1, {(1, 0, 0): F(1, 3)}), (-1, {(1, 0, 0): F(1, 3)})], False)
# different denominators, a partial cancellation and a zero coefficient
@example([(F(3, 2), {(0, 1, 0): F(2, 5), (1, 0, 0): 1}),
          (F(-3, 4), {(0, 1, 0): F(4, 5), (-1, 2, 0): F(1, 7)}),
          (0, {(0, 0, 1): 5})], True)
def test_linear_combination_matches_the_sum_chain(pairs, as_generator):
    pairs = [(c, SparsePoly(3, t)) for c, t in pairs]
    chain = SparsePoly.zero(3)
    for c, p in pairs:
        chain = chain + c * p
    arg = (pair for pair in pairs) if as_generator else pairs
    got = canonical(linear_combination(3, arg))
    assert got.n == 3 and got == chain
    back = pairs + [(-c, p) for c, p in pairs]
    assert canonical(linear_combination(3, back)) == SparsePoly.zero(3)


def test_linear_combination_edge_cases():
    zero = canonical(linear_combination(4, iter(())))
    assert zero.n == 4 and zero == SparsePoly.zero(4)
    with pytest.raises(ValueError):
        linear_combination(3, [(1, SparsePoly.one(3)), (1, SparsePoly.one(2))])


@settings(max_examples=80, deadline=None)
@given(laurent3, st.integers(0, 2), st.integers(-3, 3))
@example({}, 1, 2)
@example({(1, 0, 2): F(1, 3), (0, 1, 0): F(-5, 6)}, 0, -2)
@example({(1, 0, 2): F(1, 3)}, 1, 0)
@example({(1, 0, 2): F(1, 3), (0, 1, 0): F(-5, 6)}, 2, 3)
def test_mul_var_is_the_product_with_a_monomial(a, i, k):
    p = SparsePoly(3, a)
    e = [0, 0, 0]
    e[i] = k
    got = canonical(p.mul_var(i, k))
    assert got == p * SparsePoly.monomial(3, e)
    assert got.den == p.den
    assert sorted(got.num.values()) == sorted(p.num.values())
    with pytest.raises(ValueError):
        p.mul_var(3, k)


# -- zero numerators are dropped only in _from_num ---------------------------
# Each of these loops accumulates without a zero test; the inputs are chosen
# so that terms cancel, and every result must still be canonical.

pairs3 = st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 1)])


@settings(max_examples=80, deadline=None)
@given(laurent3, pairs3)
# p symmetric in (x0, x1): every term of the divided difference cancels
@example({(2, 0, 0): 1, (0, 2, 0): 1}, (0, 1))
@example({(2, -1, 1): F(1, 3), (-1, 2, 1): F(1, 3), (1, 0, 0): 2}, (1, 0))
def test_divided_difference_matches_its_definition(a, ij):
    i, j = ij
    p = SparsePoly(3, a)
    xi, xj = SparsePoly.variable(3, i), SparsePoly.variable(3, j)
    got = canonical(divided_difference(p, i, j))
    assert got * (xi - xj) == p - p.swap_vars(i, j)
    sym = canonical(divided_difference(p + p.swap_vars(i, j), i, j))
    assert sym == 0


@settings(max_examples=80, deadline=None)
@given(terms3, pairs3, scalars)
@example({(1, 1, 0): 1, (0, 2, 0): 1}, (0, 1), F(-2, 3))
def test_divide_by_difference_recovers_the_factor(a, ij, c):
    i, j = ij
    p = SparsePoly(3, a)
    xi, xj = SparsePoly.variable(3, i), SparsePoly.variable(3, j)
    prod = p * (xi - xj)
    assert canonical(divide_by_difference(prod, i, j)) == p
    # c x_j^2 does not vanish at x_i = x_j, so the remainder is non-zero
    with pytest.raises(ArithmeticError):
        divide_by_difference(prod + c * xj ** 2, i, j)


def ref_geometric(p, var_indices, cap, block):
    """x_v -> x_v + ... + x_v^cap for each v, then truncation in the block."""
    series = {v: linear_combination(3, ((1, SparsePoly.variable(3, v) ** m)
                                        for m in range(1, cap + 1)))
              for v in var_indices}
    total = SparsePoly.zero(3)
    for e, c in p.terms.items():
        term = SparsePoly.constant(3, c)
        for v, k in enumerate(e):
            term = term * (series[v] ** k if v in series
                           else SparsePoly.variable(3, v) ** k)
        total = total + term
    in_block = range(3) if block is None else block
    return total.filter_terms(lambda e: sum(e[i] for i in in_block) <= cap)


@settings(max_examples=80, deadline=None)
@given(terms3, st.sampled_from([(0,), (2,), (0, 2), (2, 0)]),
       st.integers(0, 5), st.sampled_from([None, (0, 1, 2), (0, 2)]))
# x/(1-x) - x^2/(1-x)^2 = x - x^3 - 2x^4 - ...: the x^2 terms cancel
@example({(1, 0, 0): 1, (2, 0, 0): -1}, (0,), 4, None)
def test_geometric_substitution_matches_the_series(a, var_indices, cap, block):
    p = SparsePoly(3, a)
    got = canonical(geometric_substitution(p, var_indices, cap, block))
    assert got == ref_geometric(p, var_indices, cap, block)


def test_operator_images_that_cancel():
    alpha = F(7, 5)
    x = [SparsePoly.variable(3, i) for i in range(3)]
    ops = Operators(3, alpha)
    # T_0 x_0 = 1 + 2/alpha and T_0 x_1 = T_0 x_2 = -1/alpha
    assert ops.dunkl(x[0], 0) == 1 + 2 / alpha
    p = x[0] + (alpha + 1) * x[1] + x[2]
    assert canonical(ops.dunkl(p, 0)) == 0
    q = p + x[0] * x[1]
    assert canonical(ops.dunkl(q, 0)) == ops.dunkl(x[0] * x[1], 0)


@settings(max_examples=40, deadline=None)
@given(terms3, st.sampled_from(["dunkl", "cherednik", "b_op"]),
       st.integers(0, 2))
# the images of x_0, x_1 and x_2 under T_0 cancel
@example({(1, 0, 0): 1, (0, 1, 0): F(12, 5), (0, 0, 1): 1}, "dunkl", 0)
def test_operator_is_the_sum_of_its_monomial_images(a, name, i):
    p = SparsePoly(3, a)
    op = getattr(Operators(3, F(7, 5), a=F(1, 2)), name)
    fresh = getattr(Operators(3, F(7, 5), a=F(1, 2)), name)
    chain = SparsePoly.zero(3)
    for e, c in p.terms.items():
        chain = chain + c * fresh(SparsePoly.monomial(3, e), i)
    assert canonical(op(p, i)) == chain


def ref_exp_series(p, step, c):
    total, term, m, coeff = SparsePoly.zero(p.n), p, 0, F(1)
    while not term.is_zero:
        total = total + coeff * term
        m += 1
        coeff = coeff * c / m
        term = step(term)
    return total


@settings(max_examples=60, deadline=None)
@given(terms3, st.integers(0, 2), mixed_coeff)
def test_exp_series_matches_the_explicit_sum(a, i, c):
    p = SparsePoly(3, a)
    step = lambda q: q.diff(i)
    got = canonical(exp_series(p, step, c))
    assert got == ref_exp_series(p, step, c)
    # exp(c d/dx_i) is the shift x_i -> x_i + c
    if c == 1:
        assert got == p.shift_by_one(only=[i])


def test_exp_series_cancellation_and_laplacian():
    x0 = SparsePoly.variable(1, 0)
    # exp(2 d/dx) (x - 2)^3 = x^3: every lower term cancels
    assert canonical(exp_series((x0 - 2) ** 3, lambda q: q.diff(0), 2)) == x0 ** 3
    assert exp_series(SparsePoly.zero(2), lambda q: q.diff(0)) == 0
    ops = Operators(2, F(7, 5))
    p = SparsePoly(2, {(3, 1): 1, (0, 2): F(-2, 3), (1, 0): 5})
    got = canonical(exp_series(p, ops.laplacian_A, F(-1, 4)))
    assert got == ref_exp_series(p, ops.laplacian_A, F(-1, 4))


# -- the fused transposition step and the block rotations ---------------------


@settings(max_examples=80, deadline=None)
@given(laurent3, pairs3, mixed_coeff)
# p symmetric in (x0, x1) and c = -1: every term cancels
@example({(2, 0, 0): 1, (0, 2, 0): 1, (1, 1, 2): F(2, 3)}, (0, 1), F(-1))
# the terms off the diagonal cancel, and the fixed term is left with
# (1 + c) times its coefficient, so the common factor changes
@example({(2, 0, 1): F(3, 4), (0, 2, 1): F(3, 2), (1, 1, 0): F(3, 4)},
         (0, 1), F(-1, 2))
# a negative c with a denominator
@example({(1, 0, -2): F(5, 6), (0, 1, 0): F(-5, 6), (3, 1, 1): 2},
         (1, 0), F(-7, 3))
# c = 0 is the plain swap
@example({(1, 0, 2): F(1, 3)}, (0, 2), F(0))
def test_swap_add_is_the_swap_plus_a_multiple(a, ij, c):
    i, j = ij
    p = SparsePoly(3, a)
    assert canonical(p.swap_add(i, j, c)) == p.swap_vars(i, j) + c * p
    assert canonical(p.swap_add(i, i, c)) == p + c * p


def test_swap_add_cancellation_is_canonical():
    p = SparsePoly(2, {(2, 0): F(1, 6), (0, 2): F(1, 6), (1, 1): F(-1, 4)})
    got = canonical(p.swap_add(0, 1, -1))
    assert got.is_zero and got.den == 1
    # s(p) - p/2 = p/2 for symmetric p: the halving is reduced away
    assert canonical(p.swap_add(0, 1, F(-1, 2))) == p / 2


def swap_cycle(p, lo, hi, k):
    """The rotation as a chain of adjacent swaps: s_lo, ..., s_(hi-2) in
    that order for k = 1, the reverse order for k = -1."""
    steps = range(lo, hi - 1)
    for i in (steps if k == 1 else reversed(steps)):
        p = p.swap_vars(i, i + 1)
    return p


@settings(max_examples=80, deadline=None)
@given(laurent3, st.sampled_from([(0, 3), (1, 3), (0, 2), (2, 3)]),
       st.sampled_from([1, -1]), st.integers(-2, 2))
@example({(1, 0, 2): F(1, 3), (-2, 3, 0): F(-5, 6)}, (0, 3), 1, 1)
@example({(1, 0, 2): F(1, 3), (-2, 3, 0): F(-5, 6)}, (1, 3), -1, 0)
def test_rotate_vars_is_the_swap_cycle(a, block, k, power):
    lo, hi = block
    p = SparsePoly(3, a)
    got = canonical(p.rotate_vars(lo, hi, k, power))
    assert got == swap_cycle(p, lo, hi, k).mul_var(hi - 1, power)
    assert got.den == p.den
    # a full turn is the identity
    assert p.rotate_vars(lo, hi, hi - lo) == p
    assert p.rotate_vars(lo, hi, k).rotate_vars(lo, hi, -k) == p


def test_rotate_vars_rejects_a_block_outside_the_variables():
    p = SparsePoly.variable(3, 0)
    for lo, hi in [(0, 4), (2, 2), (-1, 2)]:
        with pytest.raises(ValueError):
            p.rotate_vars(lo, hi, 1)
