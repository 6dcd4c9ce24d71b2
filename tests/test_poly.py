"""Exact polynomial arithmetic."""

import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroclosures.poly import MultiPoly

from oracles import (combine_general, compile_float_general, eval_general, mul_general,
                     poly_vars, scale_general)


def random_poly(rng: random.Random, nvars: int, max_deg: int = 6,
                max_terms: int = 5) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        coef = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coef
    return MultiPoly(nvars, terms)


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for case in range(1000):
        nvars = rng.randint(1, 4)
        a = random_poly(rng, nvars)
        b = random_poly(rng, nvars)
        c = random_poly(rng, nvars)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + MultiPoly.zero(nvars) == a
        assert a * MultiPoly.const(nvars, 1) == a
        assert a - a == MultiPoly.zero(nvars)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(nvars)]
        assert (a * b + c).eval(point) == a.eval(point) * b.eval(point) + c.eval(point)


def test_constructors_and_predicates():
    p = MultiPoly.monomial(3, (1, 0, 2), Fraction(3, 4))
    assert p.total_degree() == 3
    assert not p.is_zero
    assert MultiPoly.zero(2).is_zero
    assert MultiPoly.const(2, 5).constant_term() == 5


def test_pow_and_scalar_division():
    x, y = poly_vars(2)
    p = x + 2 * y
    assert p ** 0 == MultiPoly.const(2, 1)
    assert p ** 3 == p * p * p
    assert (p / 2) * 2 == p
    with pytest.raises(TypeError):
        p / y  # polynomial division is out of scope


@st.composite
def polys(draw, nvars=2, max_deg=4):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        terms[exps] = Fraction(draw(st.integers(-20, 20)),
                               draw(st.integers(1, 12)))
    return MultiPoly(nvars, terms)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), st.integers(0, 1))
def test_leibniz_rule(a, b, var):
    assert (a * b).diff(var) == a.diff(var) * b + a * b.diff(var)


@settings(max_examples=200, deadline=None)
@given(polys())
def test_text_round_trip(p):
    assert MultiPoly.parse(p.to_text(), nvars=p.nvars) == p


def test_diff_of_constant_and_variable():
    x, y = poly_vars(2)
    assert MultiPoly.const(2, 7).diff(0).is_zero
    assert x.diff(0) == MultiPoly.const(2, 1)
    assert x.diff(1).is_zero
    assert (x ** 4 * y).diff(0) == 4 * x ** 3 * y


def test_parse_text_forms():
    p = MultiPoly.parse("1 * nu1*nu2 + -1/2 * nu2^3")
    x, y = poly_vars(2)
    assert p == x * y - Fraction(1, 2) * y ** 3
    assert MultiPoly.parse("3").constant_term() == 3
    assert MultiPoly.parse("0").is_zero


def test_to_text_ordering_graded_lex():
    x, y = poly_vars(2)
    p = y + x ** 2 * y + x * y
    assert p.to_text(["a", "b"]) == "1 * a^2*b + 1 * a*b + 1 * b"


def test_compile_float_matches_exact():
    x, y = poly_vars(2)
    p = Fraction(2, 3) * x ** 2 * y - y + 5
    f = p.compile_float()
    for pt in ([0.5, -1.25], [2.0, 3.0]):
        exact = p.eval([Fraction(v) for v in pt])
        assert abs(f(pt) - float(exact)) < 1e-12


@st.composite
def evaluator_cases(draw, max_nvars=3):
    """A polynomial whose coefficients are often 1 or -1, with constant
    terms and the zero polynomial among them, and one list of values per
    variable; values include -0.0, +-inf and NaN."""
    nvars = draw(st.integers(1, max_nvars))
    coef = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                     st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), coef,
                                 max_size=5))
    # |v| <= 1e50 keeps a float v ** 3 clear of Python's OverflowError
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf,
                                       math.nan]),
                      st.floats(-1e50, 1e50))
    size = draw(st.integers(1, 4))
    values = [draw(st.lists(value, min_size=size, max_size=size)) for _ in range(nvars)]
    return MultiPoly(nvars, terms), values


def _bits(x):
    return type(x), np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


def _bits_any_nan(x):
    """_bits with every NaN read as "nan", whatever its sign and payload."""
    a = np.asarray(x, dtype=np.float64)
    bits = a.view(np.uint64).astype(object)
    bits[np.isnan(a)] = "nan"
    return type(x), bits.tolist()


@settings(max_examples=300, deadline=None)
@given(evaluator_cases())
def test_compile_float_bit_identical_to_multiplying_every_factor(case):
    """Leaving out a unit coefficient changes no bit: 1.0 * x is x, the
    sign of zero included. Floats and float64 arrays.

    A NaN result is compared only as NaN. Where two NaNs meet, IEEE 754
    leaves open which sign and payload survive, and CPython 3.11's
    specializing interpreter computes float + and * inline, with another
    operand order than float_add and float_mul: the same a + b of a -NaN
    and math.nan gives +NaN on early calls and -NaN after warm-up."""
    p, values = case
    fast, general = p.compile_float(), compile_float_general(p)
    with np.errstate(all="ignore"):
        for j in range(len(values[0])):
            point = [v[j] for v in values]
            assert _bits_any_nan(fast(point)) == _bits_any_nan(general(point))
        arrays = [np.array(v) for v in values]
        assert _bits_any_nan(fast(arrays)) == _bits_any_nan(general(arrays))


def test_compile_float_edge_polynomials():
    x, y = poly_vars(2)
    nan, inf = math.nan, math.inf
    for p in (MultiPoly.zero(2), MultiPoly.const(2, 1), MultiPoly.const(2, -1),
              x, -x, x * y - y, x ** 2 + 1):
        for point in ([-0.0, 2.0], [inf, -0.0], [nan, -inf], [-0.0, -0.0]):
            assert _bits(p.compile_float()(point)) == \
                _bits(compile_float_general(p)(point))
    # the first add to 0.0 turns a -0.0 sum into +0.0, as before
    assert _bits(x.compile_float()([-0.0, 1.0])) == (float, 0)
    assert _bits((-x).compile_float()([0.0, 1.0])) == (float, 0)


def test_compile_float_coefficients_are_the_floats_of_the_fractions():
    # a coefficient is its numerator over the common denominator, not
    # reduced, in one int division: the float of its reduced Fraction, as
    # both divisions round correctly, digits beyond a float's included
    x, y = poly_vars(2)
    rng = random.Random(3)
    for _ in range(300):
        a, b = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 300)),
                         rng.randint(1, 10 ** rng.randint(1, 300))) for _ in range(2))
        f = (a * x + b * y).compile_float()
        assert _bits(f([1.0, 0.0])) == _bits(float(a))
        assert _bits(f([0.0, 1.0])) == _bits(float(b))


def test_compile_float_coefficient_past_the_float_range_is_inf():
    # float() of such a Fraction raises OverflowError, which ended a
    # simulate run of fourfield kappa = 1e308 in a traceback
    x, y = poly_vars(2)
    big = Fraction(10) ** 400
    assert (big * x + y).compile_float()([2.0, 1.0]) == math.inf
    assert (x - big * y).compile_float()([1.0, 0.5]) == -math.inf
    assert MultiPoly.const(2, -big).compile_float()([0.0, 0.0]) == -math.inf


@pytest.mark.parametrize("text, term", [
    ("nu1*-2", "nu1*-2"),
    ("nu1 * - 2", "nu1 *-2"),
    ("nu1 - -2", "2"),
    ("nu1 + + nu2", "nu2"),
    ("-+nu1", "nu1"),
])
def test_parse_rejects_misplaced_signs(text, term):
    with pytest.raises(ValueError, match="sign") as info:
        MultiPoly.parse(text)
    assert repr(term) in str(info.value)


@pytest.mark.parametrize("text", ["nu1**2", "*nu1", "nu1 +", "nu1 * 1/0"])
def test_parse_rejects_malformed_terms(text):
    with pytest.raises(ValueError):
        MultiPoly.parse(text)


def test_parse_accepts_both_negative_term_forms():
    x, y = poly_vars(2)
    expected = x - 2 * y
    for text in ("nu1 - 2*nu2", "1 * nu1 + -2 * nu2", "-2 * nu2 + nu1", "+nu1 -2 nu2"):
        assert MultiPoly.parse(text) == expected


# -- differential test against sympy.Poly over QQ ---------------------------

@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, p: MultiPoly, gens):
    coeffs = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(coeffs, *gens, domain=sympy.QQ)


def from_sympy(P, nvars: int) -> MultiPoly:
    return MultiPoly(nvars, {e: Fraction(int(c.p), int(c.q)) for e, c in P.terms()})


@st.composite
def poly_pairs(draw):
    nvars = draw(st.integers(1, 4))
    return nvars, draw(polys(nvars=nvars, max_deg=3)), draw(polys(nvars=nvars, max_deg=3))


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), st.integers(0, 3), st.integers(0, 3),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=9),
                min_size=4, max_size=4))
def test_matches_sympy_poly(sympy, pair, n, var, point):
    nvars, a, b = pair
    var %= nvars
    point = point[:nvars]
    gens = sympy.symbols(f"x1:{nvars + 1}")
    A, B = to_sympy(sympy, a, gens), to_sympy(sympy, b, gens)
    for ours, theirs in ((a + b, A + B), (a - b, A - B), (a * b, A * B), (a * a, A * A),
                         (a ** n, A ** n), (a.diff(var), A.diff(gens[var])),
                         (a.euler(), sum((A.diff(g) * g for g in gens), A * 0))):
        assert ours == from_sympy(theirs, nvars)
    value = A.eval({g: sympy.Rational(v.numerator, v.denominator) for g, v in zip(gens, point)})
    assert a.eval(point) == Fraction(int(value.p), int(value.q))


def test_sorted_terms_is_grlex_descending():
    rng = random.Random(5)
    for _ in range(200):
        p = random_poly(rng, rng.randint(1, 4), max_deg=8, max_terms=12)
        exps = [e for e, _ in p.sorted_terms()]
        assert exps == sorted(p.terms, key=lambda e: (sum(e), e), reverse=True)


def test_canonical_form_equal_objects_equal_hashes():
    x, y = poly_vars(2)
    routes = [(x / 2 + y / 3) * 6, 3 * x + 2 * y,
              MultiPoly.parse("3 * nu1 + 2 * nu2"),
              (x * Fraction(3, 4) + y / 2) / Fraction(1, 4),
              (x + y) * (x - y) + 3 * x + 2 * y - x * x + y * y]
    for p in routes:
        assert p == routes[0]
        assert hash(p) == hash(routes[0])
    assert len(set(routes)) == 1
    assert (x / 2 - x / 2) == MultiPoly.zero(2) and hash(x / 2 - x / 2) == hash(MultiPoly.zero(2))


def test_degree_guard():
    x = MultiPoly.monomial(1, (40000,))
    with pytest.raises(ValueError, match="65535"):
        x ** 2
    with pytest.raises(ValueError, match="65535"):
        x * MultiPoly.monomial(1, (25536,))
    with pytest.raises(ValueError, match="65535"):
        MultiPoly.monomial(2, (40000, 30000))
    top = x * MultiPoly.monomial(1, (25535,))
    assert top.total_degree() == 65535 and top.terms == {(65535,): 1}


def test_terms_view_is_read_only_mapping():
    x, y = poly_vars(2)
    p = x / 3 + 2 * y + 1
    assert len(p.terms) == 3
    assert dict(p.terms) == {(1, 0): Fraction(1, 3), (0, 1): 2, (0, 0): 1}
    assert p.terms[(1, 0)] == Fraction(1, 3) and (1, 1) not in p.terms
    assert MultiPoly(2, p.terms) == p
    with pytest.raises(TypeError):
        p.terms[(1, 1)] = 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda nv: st.tuples(polys(nvars=nv), polys(nvars=nv))))
def test_identity_short_cuts_match_the_general_path(pair):
    # p + 0, 0 + p, p - 0, 0 - p, 1 * p, p * 1 and p / 1 skip the loops of
    # _combine and _scale; their results must be those loops' results in
    # value, denominator and key order (the order `terms` documents)
    p, q = pair
    zero = MultiPoly.zero(p.nvars)
    cases = [(p + 0, combine_general(p, zero, 1)), (p + zero, combine_general(p, zero, 1)),
             (0 + p, combine_general(p, zero, 1)), (zero + p, combine_general(zero, p, 1)),
             (p - 0, combine_general(p, zero, -1)), (p - zero, combine_general(p, zero, -1)),
             (0 - p, combine_general(-p, zero, 1)), (zero - p, combine_general(zero, p, -1)),
             (1 * p, scale_general(p, 1, 1)), (p * Fraction(1), scale_general(p, 1, 1)),
             (p / 1, scale_general(p, 1, 1)), (p / Fraction(1), scale_general(p, 1, 1)),
             # the general path itself, on operands that take it
             (p + q, combine_general(p, q, 1)), (p - q, combine_general(p, q, -1)),
             (p * Fraction(-3, 2), scale_general(p, -3, 2))]
    for got, want in cases:
        assert got == want
        assert got._den == want._den
        assert list(got._num) == list(want._num)
        with pytest.raises(AttributeError):
            got._num = {}
        with pytest.raises(AttributeError):
            got.nvars = p.nvars + 1


def reference_product_order(a: MultiPoly, b: MultiPoly) -> list:
    """Exponents of a*b in the order the plain tuple double loop meets them."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return [e for e, c in out.items() if c]


def test_term_order_is_double_loop_order():
    # `terms` documents this order; no value depends on it, as compile_float
    # sorts the terms and eval at a rational point is exact
    rng = random.Random(9)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        a = random_poly(rng, nvars, max_terms=8)
        b = random_poly(rng, nvars, max_terms=8)
        assert list((a * b).terms) == reference_product_order(a, b)
        assert list((a * a).terms) == reference_product_order(a, a)
        expected = list(a.terms) + [e for e in b.terms if e not in a.terms]
        assert list((a + b).terms) == [e for e in expected if (a + b).terms.get(e)]


def sequential_sum_of_products(nvars: int, pairs) -> MultiPoly:
    """The loop `MultiPoly.sum_of_products` replaces, acc = acc + x * y, by
    the general paths of addition and multiplication."""
    acc = MultiPoly.zero(nvars)
    for x, y in pairs:
        acc = combine_general(acc, mul_general(x, y), 1)
    return acc


@st.composite
def product_lists(draw):
    """(nvars, pairs) for sum_of_products: factors from a small pool with
    mixed denominators and the zero polynomial, squares (x is y), and
    addends that cancel an earlier product or bring it back."""
    nvars = draw(st.integers(1, 3))
    pool = draw(st.lists(polys(nvars=nvars, max_deg=3), min_size=1, max_size=4))
    pool.append(MultiPoly.zero(nvars))
    pairs = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["any", "square", "cancel", "repeat"]))
        if kind in ("cancel", "repeat") and pairs:
            x, y = draw(st.sampled_from(pairs))
            pairs.append((-x if kind == "cancel" else x, y))
        else:
            x = draw(st.sampled_from(pool))
            pairs.append((x, x if kind == "square" else draw(st.sampled_from(pool))))
    return nvars, pairs


@settings(max_examples=400, deadline=None)
@given(product_lists())
def test_sum_of_products_is_the_sequential_sum(case):
    nvars, pairs = case
    got = MultiPoly.sum_of_products(nvars, pairs)
    want = sequential_sum_of_products(nvars, pairs)
    assert got == want
    assert list(got.terms) == list(want.terms)
    assert got._den == want._den and 0 not in got._num.values()
    for x, y in pairs:  # a product is the kernel's one-pair sum
        assert list((x * y)._num.items()) == list(mul_general(x, y)._num.items())
        assert (x * y)._den == mul_general(x, y)._den


def test_sum_of_products_appends_a_key_that_cancels_and_comes_back():
    x, y = poly_vars(2)
    one = MultiPoly.const(2, 1)
    # x*y joins, x joins, x*y cancels, x*y comes back after x
    pairs = [(x, y), (x, one), (-x, y), (x / 3, 3 * y)]
    got = MultiPoly.sum_of_products(2, pairs)
    assert list(got.terms) == [(1, 0), (1, 1)]
    assert list(got.terms) == list(sequential_sum_of_products(2, pairs).terms)
    # a square and a zero factor among mixed denominators
    p = x / 2 + y / 3
    pairs = [(p, p), (MultiPoly.zero(2), y), (x / 5, -x / 4)]
    got = MultiPoly.sum_of_products(2, pairs)
    # (x/2 + y/3)^2 - x^2/20, expanded by hand
    assert got == MultiPoly(2, {(2, 0): Fraction(1, 5), (1, 1): Fraction(1, 3),
                                (0, 2): Fraction(1, 9)})
    assert list(got.terms) == list(sequential_sum_of_products(2, pairs).terms)
    assert MultiPoly.sum_of_products(2, []) == MultiPoly.zero(2)
    assert MultiPoly.sum_of_products(2, [(x, x), (x, -x)]) == MultiPoly.zero(2)


def test_sum_of_products_checks_variable_counts_and_degree():
    with pytest.raises(ValueError, match="variable-count"):
        MultiPoly.sum_of_products(2, [(MultiPoly.variable(2, 0), MultiPoly.variable(3, 0))])
    x = MultiPoly.monomial(1, (40000,))
    with pytest.raises(ValueError, match="65535"):
        MultiPoly.sum_of_products(1, [(x, x)])


@pytest.mark.parametrize("roundtrip", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(roundtrip):
    x, y = poly_vars(2)
    p = Fraction(3, 4) * x ** 2 * y - 5 * y + Fraction(1, 6)
    q = x * y + 2
    for obj in (p, MultiPoly.zero(2)):
        back = roundtrip(obj)
        assert type(back) is type(obj)
        assert back == obj
        assert hash(back) == hash(obj)
    back = roundtrip(p)
    assert back.to_text() == p.to_text()
    assert back * q == p * q  # the rebuilt object computes like the original
    with pytest.raises(AttributeError):
        back.nvars = 3


# ints and Fractions of both signs, zero among them
RATIONALS = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-5, max_value=5, max_denominator=12))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda nv: st.tuples(polys(nvars=nv, max_deg=5), st.lists(RATIONALS, min_size=nv,
                                                                 max_size=nv))))
def test_rational_eval_equals_the_fraction_loop(case):
    p, point = case
    value = p.eval(point)
    assert value == eval_general(p, point)
    assert type(value) is Fraction


def test_rational_eval_edge_points():
    x, y, z = poly_vars(3)
    p = Fraction(3, 4) * x ** 2 * y - 5 * z ** 3 + Fraction(1, 6) + x  # mixed degrees
    points = [[0, 0, 0], [Fraction(0), 2, -1], [-1, Fraction(-1, 2), Fraction(2, 3)],
              [True, 3, Fraction(5, 7)], [Fraction(1, 2)] * 3]
    for point in points:
        assert p.eval(point) == eval_general(p, point)
    for q in (MultiPoly.zero(3), MultiPoly.const(3, Fraction(-2, 3))):
        assert q.eval([1, Fraction(1, 2), 0]) == eval_general(q, [1, Fraction(1, 2), 0])
        assert type(q.eval([1, 2, 3])) is Fraction
    # no variables: the constant itself
    assert MultiPoly.const(0, Fraction(5, 3)).eval([]) == Fraction(5, 3)
    assert MultiPoly.zero(0).eval(()) == 0 and type(MultiPoly.zero(0).eval(())) is Fraction


def test_eval_at_a_float_point_is_the_compiled_evaluator():
    # a point holding any float, or an array, is evaluated by compile_float():
    # one float semantics, bit for bit
    rng = random.Random(5)
    for _ in range(200):
        p = random_poly(rng, 3)
        point = [Fraction(rng.randint(-4, 4), 3), 0.1 * rng.randint(-9, 9), rng.randint(-2, 2)]
        assert _bits(p.eval(point)) == _bits(p.compile_float()(point))
        arrays = [np.array([0.5, -1.25]), np.array([0.1, 3.0]), np.array([-2.0, 0.0])]
        assert _bits(p.eval(arrays)) == _bits(p.compile_float()(arrays))
    with pytest.raises(ValueError, match="expected 2 values"):
        MultiPoly.variable(2, 0).eval([0.5])


def test_variable_and_monomial_build_canonical_polynomials():
    for nvars in range(1, 4):
        for i in range(nvars):
            exps = tuple(int(j == i) for j in range(nvars))
            assert MultiPoly.variable(nvars, i) == MultiPoly(nvars, {exps: 1})
            assert list(MultiPoly.variable(nvars, i).terms) == [exps]
    with pytest.raises(IndexError):
        MultiPoly.variable(2, 2)
    assert MultiPoly.monomial(2, (1, 3), Fraction(-4, 6)) == MultiPoly(2, {(1, 3): Fraction(-2, 3)})
    assert MultiPoly.monomial(2, (1, 3), 0) == MultiPoly.zero(2)
    for exps, message in (((1,), "does not match"), ((1, -1), "negative exponent")):
        with pytest.raises(ValueError, match=message):
            MultiPoly.monomial(2, exps)


# a fractional or bool count, index, exponent or power was truncated by
# int() (monomial(2, [2.7, 0.2], 3) was 3 * v1^2, variable(2, 0.7) was v1)
# or failed inside the power loop (p ** 2.0)
NOT_INTEGERS = {
    "fractional-nvars": (lambda: MultiPoly(2.5, {}), "nvars", 2.5),
    "fractional-zero": (lambda: MultiPoly.zero(2.9), "nvars", 2.9),
    "fractional-const": (lambda: MultiPoly.const(1.5, 3), "nvars", 1.5),
    "bool-nvars": (lambda: MultiPoly.zero(True), "nvars", True),
    "fractional-variable-nvars": (lambda: MultiPoly.variable(2.5, 0), "nvars", 2.5),
    "fractional-monomial-nvars": (lambda: MultiPoly.monomial(1.5, [1]), "nvars", 1.5),
    "fractional-index": (lambda: MultiPoly.variable(2, 0.7), "variable index", 0.7),
    "bool-index": (lambda: MultiPoly.variable(2, True), "variable index", True),
    "fractional-exponent": (lambda: MultiPoly(1, {(1.5,): 1}), "exponent", 1.5),
    "fractional-monomial": (lambda: MultiPoly.monomial(2, [2.7, 0.2], 3), "exponent", 2.7),
    "bool-exponent": (lambda: MultiPoly(2, {(0, True): 1}), "exponent", True),
    "zero-term-exponent": (lambda: MultiPoly(1, {(0.5,): 0}), "exponent", 0.5),
    "float-power": (lambda: MultiPoly.variable(2, 0) ** 2.0, "power", 2.0),
    "bool-power": (lambda: MultiPoly.variable(2, 0) ** True, "power", True),
}


@pytest.mark.parametrize("case", NOT_INTEGERS)
def test_non_integer_counts_indices_exponents_and_powers_are_refused(case):
    build, what, value = NOT_INTEGERS[case]
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got {value!r}$"):
        build()


# negative variable counts that built, and failed far from the cause:
# to_text() raised "varnames length mismatch"
NEGATIVE_COUNTS = {
    "constructor": (lambda: MultiPoly(-2, {}), -2),
    "zero": (lambda: MultiPoly.zero(-1), -1),
    "const": (lambda: MultiPoly.const(-1, 3), -1),
    "variable": (lambda: MultiPoly.variable(-1, 0), -1),
    "monomial": (lambda: MultiPoly.monomial(-1, []), -1),
    "parse": (lambda: MultiPoly.parse("3", nvars=-1), -1),
    "parse-with-variable": (lambda: MultiPoly.parse("x1", nvars=-2), -2),
}


@pytest.mark.parametrize("case", NEGATIVE_COUNTS)
def test_negative_variable_counts_are_refused(case):
    build, count = NEGATIVE_COUNTS[case]
    with pytest.raises(ValueError, match=f"^nvars must be >= 0, got {count}$"):
        build()


def test_numpy_integers_are_integers():
    x = MultiPoly.variable(np.int64(2), np.int64(1))
    assert x == MultiPoly.variable(2, 1)
    assert MultiPoly.monomial(2, [np.int64(2), 0]) == MultiPoly.monomial(2, [2, 0])
    assert x ** np.int64(3) == x ** 3
    # a numpy exponent packs as a Python int, so no field of the key overflows
    p = MultiPoly(3, {(np.int64(40000), np.int64(25535), np.int64(0)): 1})
    assert p.total_degree() == 65535 and p.terms[(40000, 25535, 0)] == 1


def test_terms_lookup_takes_only_integer_exponents():
    p = MultiPoly.variable(2, 1)
    assert (0, 1) in p.terms and (0, np.int64(1)) in p.terms
    for key in ((0, True), (0, 1.0), (0,), (0, -1), 1, "01"):
        assert key not in p.terms
        with pytest.raises(KeyError):
            p.terms[key]
