import itertools
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketdec import poly as poly_module
from bracketdec.errors import ParseError, StepBudgetExceeded
from bracketdec.poly import (
    MAX_NESTING,
    MAX_PARSE_COST,
    MonomialOrder,
    Poly,
    StepBudget,
    antiderivative,
    apply_derivation,
    divide_multivariate,
    gcd_univariate,
    _sum_of_products,
    mono_div,
    mono_divides,
    parse_poly,
    partial_derivative,
)

LEX = MonomialOrder.LEX
GRLEX = MonomialOrder.GRLEX

_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=8)
_monos = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2))
polys = st.lists(st.tuples(_monos, _coeffs), max_size=6).map(Poly)


# -- construction and formatting --------------------------------------------

def test_zero_and_one():
    assert Poly.zero().is_zero()
    assert str(Poly.zero()) == "0"
    assert Poly.one().as_constant() == 1
    assert Poly([((0, 0, 0), 2), ((0, 0, 0), -2)]).is_zero()
    assert parse_poly("x + 1").coefficient((0, 1, 0)) == 0
    with pytest.raises(ValueError, match="not constant"):
        parse_poly("x + 1").as_constant()
    with pytest.raises(ValueError, match="unknown variable"):
        Poly.variable("w")


@pytest.mark.parametrize("mono", [(1.5, 0, 0), (0, 1.0, 0), ("2", 0, 0), (0, 0, -1)])
def test_poly_rejects_exponents_that_are_not_nonnegative_integers(mono):
    # int() would have read (1.5, 0, 0) as x and ("2", 0, 0) as x^2
    with pytest.raises(ValueError, match="monomial exponents must be"):
        Poly([(mono, 1)])
    with pytest.raises(ValueError, match="monomial exponents must be"):
        Poly.monomial(mono)


def test_terms_are_canonical():
    p = Poly([((1, 0, 0), 1), ((0, 2, 0), 1), ((3, 0, 0), -1)])
    # descending lex with z, then y, then x: y^2 before x^3 before x
    assert [m for m, _ in p.terms] == [(0, 2, 0), (3, 0, 0), (1, 0, 0)]
    assert str(p) == "y^2 - x^3 + x"


def test_parse_basic():
    p = parse_poly("y^2 - x^3 - x")
    assert p == Poly([((0, 2, 0), 1), ((3, 0, 0), -1), ((1, 0, 0), -1)])
    assert parse_poly("3/2*x^2 + 1").coefficient((2, 0, 0)) == Fraction(3, 2)
    assert parse_poly("2xy") == parse_poly("2*x*y")
    assert parse_poly("x^2y^3") == parse_poly("x^2 * y^3")
    assert parse_poly("(x+1)(x-1)") == parse_poly("x^2 - 1")
    assert parse_poly("1/2x") == parse_poly("x") * Fraction(1, 2)
    assert parse_poly("-x") == -Poly.variable("x")
    assert parse_poly("0").is_zero()
    assert parse_poly("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == parse_poly("x")


def test_parse_unicode_minus():
    assert parse_poly("y^2 − x") == parse_poly("y^2 - x")


_X, _Y = Poly.variable("x"), Poly.variable("y")


@pytest.mark.parametrize("text, expected", [
    ("x - -y", _X + _Y),
    ("x * -y", -(_X * _Y)),
    ("x*-1/2", _X * Fraction(-1, 2)),
    ("-x^2", -(_X * _X)),  # the sign binds looser than the power
    ("(-x)^2", _X * _X),
    ("2 -x", 2 - _X),  # a sign after a factor is binary, not juxtaposition
    ("-" * 1000 + "x", _X),
    ("-" * 999 + "x", -_X),
])
def test_parse_sign_before_any_factor(text, expected):
    assert parse_poly(text) == expected


def _nested(depth):
    return "(" * depth + "x" + ")" * depth


@pytest.mark.parametrize("bad", ["", "w", "x^", "x^-1", "3/0", "(x", "x )", "1//2", "x / 2",
                                 "x²", _nested(MAX_NESTING + 1), _nested(3000)])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


def test_parse_rejects_literals_int_would_refuse():
    # a coefficient, a p/q denominator and an exponent past the interpreter's
    # digit limit are parse errors, not int()'s bare ValueError
    limit = sys.get_int_max_str_digits()
    long = "9" * (limit + 1)
    for text in (long, f"x + 1/{long}", f"x^{long}", "0" * limit + "01"):
        with pytest.raises(ParseError, match=f"longer than {limit} digits"):
            parse_poly(text)
    assert parse_poly("9" * limit).as_constant() == 10 ** limit - 1
    # a limit of 0 means none
    sys.set_int_max_str_digits(0)
    try:
        assert parse_poly(long).as_constant() == 10 ** (limit + 1) - 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_product_bound():
    with pytest.raises(StepBudgetExceeded,
                       match=f"parse phase: .* more than {MAX_PARSE_COST} coefficient word"):
        parse_poly("(x+1)^3000")
    with pytest.raises(StepBudgetExceeded, match="parse phase"):
        parse_poly("(x+y+z+1)^40")
    with pytest.raises(StepBudgetExceeded, match="parse phase"):
        # 701 terms with coefficients of up to 1,105 bits
        parse_poly("(x+2)^700")
    parser = poly_module._PolyParser(poly_module._tokenize("(x+1)^600"))
    expanded = parser.parse()[0]
    assert len(expanded.terms) == 601 and expanded.coefficient((300, 0, 0)) == comb(600, 300)
    # integer coefficients have no common denominator to charge a gcd against
    assert MAX_PARSE_COST - parser.budget.remaining == 1_997_207
    # a one-term power is charged what its squaring spends, exactly
    for text, charge in (("3^40000", 375_534), ("(2/3)^30000", 2_070_127),
                         ("(18446744073709551616/3)^1000", 478_653)):
        parser = poly_module._PolyParser(poly_module._tokenize(text))
        parser.parse()
        assert MAX_PARSE_COST - parser.budget.remaining == charge, text
    for text, expected in (("(x - 2y + 1)^7", parse_poly("x - 2y + 1") ** 7),
                           ("(3x)^0", Poly.one()), ("2(x+1)^2", parse_poly("2x^2 + 4x + 2"))):
        assert parse_poly(text) == expected


def test_parse_coefficient_bits_bound():
    # large coefficients: the coefficient words in the charge stop these.
    # mixed has small coefficients, but over 300 distinct 62-bit
    # denominators the product multiplies numerators of about 18,000 bits.
    mixed = "(" + " + ".join(f"1/{2 ** 61 + i} x^{i}" for i in range(300)) + ")^2"
    # each of the 1,000 output terms of this product pays a gcd against a
    # 47,000-bit denominator: the charge's (w_a + w_b) * w_d stops it
    long_den = "(2/3)^30000*(" + " + ".join(f"{i + 2} x^{i}" for i in range(1000)) + ")"
    for text in ("3^200000000", "(2/3 x)^1000000", "3^300000",
                 "(3^30000*(x+1)^280)*(3^30000*(y+1)^280)", mixed, long_den):
        with pytest.raises(StepBudgetExceeded,
                           match=f"parse phase: .* more than {MAX_PARSE_COST} coefficient word"):
            parse_poly(text)
    assert parse_poly("3^1000").as_constant() == 3 ** 1000
    assert parse_poly("3^40000").as_constant() == 3 ** 40000
    assert parse_poly("(2/3)^30000").as_constant() == Fraction(2, 3) ** 30000
    assert parse_poly("(2/3)^40 x^200000000") == Poly.monomial((200_000_000, 0, 0),
                                                             Fraction(2, 3) ** 40)


def test_parse_monomial_power_takes_no_product(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return _sum_of_products(*args)

    monkeypatch.setattr(poly_module, "_sum_of_products", counting)
    assert parse_poly("x^1000000") == Poly.monomial((1_000_000, 0, 0))
    assert not calls
    assert parse_poly("(2/3 x y^2)^7") == Poly.monomial((7, 14, 0), Fraction(2, 3) ** 7)


@pytest.mark.parametrize("base", ["x", "3", "1/2", "(-1)", "(2/3 x)", "(-5/4096 x y^2 z)",
                                  "(123456789)", "(18446744073709551616/3)"])
def test_parse_monomial_power_charged_as_squaring(base):
    # a one-term power is charged what repeated squaring through the
    # parser's product would be charged, and builds the same polynomial
    b = parse_poly(base)
    for e in (0, 1, 2, 3, 7, 64, 65, 1000, 4097, 30001, 65000):
        direct, squared = poly_module._PolyParser([]), poly_module._PolyParser([])
        try:
            want = poly_module._power(b, e, squared.mul)
        except StepBudgetExceeded:
            with pytest.raises(StepBudgetExceeded):
                direct.power(b, e)
            continue
        assert direct.power(b, e) == want
        assert direct.budget.remaining == squared.budget.remaining


def test_parse_long_flat_sum():
    # a sum's terms merge into one dict: adding each term to the growing
    # sum is quadratic and takes far longer than the timeout on this text
    code = ("from bracketdec.poly import parse_poly\n"
            "p = parse_poly(' + '.join(f'{i + 2} x^{i}' for i in range(10000)))\n"
            "print(len(p.terms), p.coefficient((9999, 0, 0)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["10000", "10001"]


def test_format_round_trip_random(rand_poly):
    rng = random.Random(7001)
    for _ in range(200):
        p = rand_poly(rng, variables=("x", "y", "z"), max_degree=5)
        assert parse_poly(str(p)) == p


# -- arithmetic --------------------------------------------------------------

def _assert_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero() == p
    assert p * Poly.one() == p
    assert p - p == Poly.zero()


@settings(max_examples=60)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    _assert_ring_laws(p, q, r)


@pytest.mark.parametrize("max_denominator", [720, 10**12])
def test_ring_laws_rational(max_denominator, rand_poly):
    # denominators up to 10^12 are mostly coprime, so products run over
    # common denominators far larger than any one coefficient's
    rng = random.Random(7010)
    for _ in range(60):
        p, q, r = (rand_poly(rng, variables=("x", "y", "z"), max_degree=3,
                             max_denominator=max_denominator) for _ in range(3))
        _assert_ring_laws(p, q, r)


def _schoolbook_mul(p, q):
    """Reference product: one Fraction product and one Fraction sum per pair of terms."""
    acc: dict = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            v = acc.get(m)
            acc[m] = c1 * c2 if v is None else v + c1 * c2
    return Poly(acc.items())


def _schoolbook_sum_of_products(pairs):
    acc = Poly.zero()
    for a, b in pairs:
        acc = acc + _schoolbook_mul(a, b)
    return acc


@pytest.mark.parametrize("max_denominator", [1, 12, 10**12])
def test_mul_matches_schoolbook(max_denominator, rand_poly):
    rng = random.Random(7011)
    for _ in range(300):
        p, q = (rand_poly(rng, variables=("x", "y", "z"), max_degree=4, max_terms=8,
                          max_denominator=max_denominator) for _ in range(2))
        assert (p * q).terms == _schoolbook_mul(p, q).terms
        # the unit operand skips the kernel and gives the schoolbook product
        assert p * Poly.one() is p
        assert p.terms == _schoolbook_mul(p, Poly.one()).terms


@pytest.mark.parametrize("max_denominator", [1, 12, 10**12])
def test_sum_of_products_matches_schoolbook(max_denominator, rand_poly):
    rng = random.Random(7012)
    for _ in range(300):
        pairs = [tuple(rand_poly(rng, variables=("x", "y", "z"), max_degree=3,
                                 max_denominator=max_denominator) for _ in range(2))
                 for _ in range(rng.randint(0, 4))]
        if pairs and rng.random() < 0.3:
            # cancels one pair exactly, possibly all of the sum
            a, b = rng.choice(pairs)
            pairs.append((-a, b) if rng.random() < 0.5 else (b, -a))
        assert _sum_of_products(pairs).terms == _schoolbook_sum_of_products(pairs).terms


def test_sum_of_products_edge_cases():
    p = parse_poly("1/3x^2 - 5/7y + 2")
    q = parse_poly("3/11x*y + 1/2")
    assert _sum_of_products([]).is_zero()
    assert _sum_of_products([(Poly.zero(), p), (q, Poly.zero())]).is_zero()
    assert _sum_of_products([(p, q), (-p, q)]).is_zero()
    assert _sum_of_products([(p, q), (Poly.zero(), q), (q, -p)]).is_zero()
    # cancellation down to one term with an integer coefficient
    assert _sum_of_products([(p, q), (-p, q + Poly.one())]) == -p
    # large coprime denominators: the primes 2^61 - 1, 10^9 + 7 and 2^31 - 1
    big1, big2, big3 = 2**61 - 1, 10**9 + 7, 2**31 - 1
    a = Poly([((1, 0, 0), Fraction(1, big1)), ((0, 0, 0), Fraction(3, big2))])
    b = Poly([((0, 1, 0), Fraction(5, big3)), ((0, 0, 0), Fraction(-1, big1))])
    pairs = [(a, b), (b, b), (a, a * Fraction(big1, big2))]
    got = _sum_of_products(pairs)
    assert got.terms == _schoolbook_sum_of_products(pairs).terms
    assert got.coefficient((1, 1, 0)) == Fraction(5, big1 * big3)
    assert got.coefficient((0, 2, 0)) == Fraction(25, big3 ** 2)


def test_sum_of_products_matches_sympy(rand_poly):
    X, Y, Z = sympy.symbols("x y z")

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * X**ex * Y**ey * Z**ez
                    for (ex, ey, ez), c in p.terms), sympy.Integer(0))

    rng = random.Random(7013)
    for _ in range(30):
        pairs = [tuple(rand_poly(rng, variables=("x", "y", "z"), max_degree=3,
                                 max_denominator=rng.choice((1, 10**6))) for _ in range(2))
                 for _ in range(rng.randint(1, 3))]
        expected = sympy.Poly(sum((to_sympy(a) * to_sympy(b) for a, b in pairs),
                                  sympy.Integer(0)), X, Y, Z).as_dict()
        got = {m: sympy.Rational(c.numerator, c.denominator)
               for m, c in _sum_of_products(pairs).terms}
        assert got == {m: c for m, c in expected.items() if c}


def test_scalar_arithmetic():
    x = Poly.variable("x")
    assert 2 * x + x == 3 * x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (x + 1) - 1 == x
    assert Poly.constant(3) == 3
    with pytest.raises(TypeError):
        x * 0.5


def test_pow():
    x = Poly.variable("x")
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (x + 1) ** 0 == Poly.one()
    with pytest.raises(ValueError):
        x ** -1


def test_hash_eq():
    a = parse_poly("x + y")
    b = parse_poly("y + x")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # a constant polynomial equals its value, so sets and dicts must agree
    for value in (0, 3, -7, Fraction(1, 2)):
        c = Poly.constant(value)
        assert c == value and hash(c) == hash(value)
        assert len({c, value}) == 1 and {value: "v"}.get(c) == "v"


# -- orders and leading terms -------------------------------------------------

def test_leading_terms_by_order():
    p = parse_poly("y^2 - x^3 - x")
    assert p.leading_monomial(LEX) == (0, 2, 0)
    # grlex weighs total degree first, so x^3 wins
    assert p.leading_monomial(GRLEX) == (3, 0, 0)
    q = parse_poly("z - x^3")
    assert q.leading_monomial(LEX) == (0, 0, 1)


def test_leading_term_of_zero_raises():
    with pytest.raises(ValueError):
        Poly.zero().leading_term(LEX)


def test_degrees_and_variables():
    p = parse_poly("x^2*y + z")
    assert p.uses_only(("x", "y", "z"))
    assert not p.uses_only(("x", "y"))


def test_uses_only_matches_a_scan_of_every_term():
    # the first term decides for the rings of x and of x and y; every set of
    # up to three of the monomials x^a y^b z^c, a, b, c <= 1, and every set
    # of names agree with reading each exponent outside the names
    monos = list(itertools.product((0, 1), repeat=3))
    for size in range(4):
        for chosen in itertools.combinations(monos, size):
            p = Poly((m, 1) for m in chosen)
            for k in range(4):
                for names in itertools.combinations("xyz", k):
                    outside = [i for i, v in enumerate("xyz") if v not in names]
                    assert p.uses_only(names) == all(not m[i] for m in chosen for i in outside)


# -- calculus -----------------------------------------------------------------

def test_partial_derivative_examples():
    assert partial_derivative(parse_poly("x^3 + x"), "x") == parse_poly("3x^2 + 1")
    assert partial_derivative(parse_poly("y^2 - x^3 - x"), "y") == parse_poly("2y")
    assert partial_derivative(parse_poly("x^2"), "y").is_zero()


def test_antiderivative_examples():
    assert antiderivative(parse_poly("x^2"), "x") == parse_poly("1/3*x^3")
    assert antiderivative(Poly.zero(), "x").is_zero()
    assert antiderivative(parse_poly("y"), "x") == parse_poly("x*y")


def _normalised_derivative(p, var):
    """Reference: the derivative's terms rebuilt and re-sorted through Poly(...)."""
    idx = "xyz".index(var)
    return Poly([(tuple(v - 1 if i == idx else v for i, v in enumerate(m)), c * m[idx])
                 for m, c in p.terms if m[idx]])


def _normalised_antiderivative(p, var):
    idx = "xyz".index(var)
    return Poly([(tuple(v + 1 if i == idx else v for i, v in enumerate(m)), c / (m[idx] + 1))
                 for m, c in p.terms])


def _chain_apply_derivation(components, p):
    """Reference: sum_i components[i] * d p / d v_i as a chain of products and sums."""
    acc = Poly.zero()
    for comp, var in zip(components, "xyz"):
        if not comp.is_zero():
            acc = acc + comp * _normalised_derivative(p, var)
    return acc


def test_calculus_matches_normalised_reference(rand_poly):
    rng = random.Random(7007)
    for max_denominator in (1, 10**6):
        for _ in range(200):
            p = rand_poly(rng, variables=("x", "y", "z"), max_degree=6, max_terms=10,
                          max_denominator=max_denominator)
            for var in "xyz":
                assert partial_derivative(p, var).terms == _normalised_derivative(p, var).terms
                assert antiderivative(p, var).terms == _normalised_antiderivative(p, var).terms
            comps = [rand_poly(rng, variables=("x", "y", "z"), max_degree=3,
                               max_denominator=max_denominator)
                     for _ in range(rng.choice((2, 3)))]
            assert apply_derivation(comps, p).terms == _chain_apply_derivation(comps, p).terms


def test_antiderivative_inverts_derivative(rand_poly):
    rng = random.Random(7002)
    for _ in range(300):
        p = rand_poly(rng, variables=("x", "y", "z"), max_degree=6)
        assert partial_derivative(antiderivative(p, "x"), "x") == p


@settings(max_examples=60)
@given(polys, polys)
def test_leibniz(p, q):
    for var in ("x", "y", "z"):
        lhs = partial_derivative(p * q, var)
        rhs = partial_derivative(p, var) * q + p * partial_derivative(q, var)
        assert lhs == rhs


def test_apply_derivation_two_components():
    p = parse_poly("y^2 - x^3 - x")
    comps = (parse_poly("2y"), parse_poly("3x^2 + 1"))
    expected = comps[0] * parse_poly("-3x^2 - 1") + comps[1] * parse_poly("2y")
    assert apply_derivation(comps, p) == expected


# -- division -----------------------------------------------------------------

def test_divide_examples():
    qs, rem = divide_multivariate(parse_poly("y^2"), [parse_poly("y^2 - x^3 - x")])
    assert [str(q) for q in qs] == ["1"]
    assert rem == parse_poly("x^3 + x")
    qs, rem = divide_multivariate(parse_poly("x"), [parse_poly("y")])
    assert qs[0].is_zero() and rem == parse_poly("x")


def test_divide_earliest_divisor_wins():
    qs, rem = divide_multivariate(parse_poly("x^2"), [parse_poly("x"), parse_poly("x^2")])
    assert qs[0] == parse_poly("x") and qs[1].is_zero() and rem.is_zero()


def test_divide_rejects_zero_divisor():
    with pytest.raises(ValueError):
        divide_multivariate(parse_poly("x"), [Poly.zero()])
    with pytest.raises(ValueError):
        divide_multivariate(parse_poly("x"), [])


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_divide_reconstruction_random(order, rand_poly):
    rng = random.Random(7003 if order is LEX else 7004)
    variables = ("x", "y", "z")
    # integer coefficients first, then rational ones with mostly coprime denominators
    for max_denominator in (1, 1000):
        for _ in range(250):
            p = rand_poly(rng, variables=variables, max_degree=4,
                          max_denominator=max_denominator)
            divisors = [rand_poly(rng, variables=variables, max_degree=3, nonzero=True,
                                  max_denominator=max_denominator)
                        for _ in range(rng.randint(1, 3))]
            qs, rem = divide_multivariate(p, divisors, order)
            recombined = rem
            for q, d in zip(qs, divisors):
                recombined = recombined + q * d
            assert recombined == p
            lms = [d.leading_monomial(order) for d in divisors]
            for mono, _ in rem.terms:
                assert not any(lm[0] <= mono[0] and lm[1] <= mono[1] and lm[2] <= mono[2]
                               for lm in lms)


def _schoolbook_divide(p, divisors, order=LEX, budget=None):
    """Reference division: re-sort the whole dividend on every step."""
    divisors = list(divisors)
    if not divisors:
        raise ValueError("divisors must be nonempty")
    if any(d.is_zero() for d in divisors):
        raise ValueError("cannot divide by the zero polynomial")
    lts = [d.leading_term(order) for d in divisors]
    quotients: list[dict] = [{} for _ in divisors]
    rem_terms: list = []
    cur = p
    while not cur.is_zero():
        if budget is not None:
            budget.spend()
        lm, lc = cur.leading_term(order)
        for i, (dm, dc) in enumerate(lts):
            if mono_divides(dm, lm):
                qm = mono_div(lm, dm)
                qc = lc / dc
                q = quotients[i]
                q[qm] = q.get(qm, Fraction(0)) + qc
                cur = cur - Poly.monomial(qm, qc) * divisors[i]
                break
        else:
            rem_terms.append((lm, lc))
            if order is MonomialOrder.LEX:
                # canonical storage is descending lex, so terms[0] is lm
                cur = Poly(cur.terms[1:])
            else:
                cur = cur - Poly.monomial(lm, lc)
    return [Poly(q.items()) for q in quotients], Poly(rem_terms)


def _assert_divides_like_reference(p, divisors, order):
    budget, ref_budget = StepBudget(10**6), StepBudget(10**6)
    qs, rem = divide_multivariate(p, divisors, order, budget)
    ref_qs, ref_rem = _schoolbook_divide(p, divisors, order, ref_budget)
    assert [q.terms for q in qs] == [q.terms for q in ref_qs]
    assert rem.terms == ref_rem.terms
    assert budget.remaining == ref_budget.remaining
    return 10**6 - budget.remaining


def test_divide_cancel_and_recreate():
    # x*y^2 goes first and cancels x*y; reducing y^2 then recreates it
    p = parse_poly("x*y^2 + y^2 + x*y")
    d = parse_poly("y + x + 1")
    qs, rem = divide_multivariate(p, [d], LEX)
    assert qs[0] == parse_poly("x*y + y - x^2 - x - 1")
    assert rem == parse_poly("x^3 + 2x^2 + 2x + 1")
    assert _assert_divides_like_reference(p, [d], LEX) == 9


def _monic(d, order):
    """d with its leading coefficient under order replaced by 1."""
    lm = d.leading_monomial(order)
    return Poly([(m, 1 if m == lm else c) for m, c in d.terms])


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_divide_matches_reference(order, rand_poly):
    # the corpus holds divisor lists that divide in integers alone, monic
    # with integer coefficients, and lists whose leading coefficients other
    # than 1 bring Fractions into the loop
    kinds = set()
    rng = random.Random(7005 if order is LEX else 7006)
    variables = ("x", "y", "z")
    for monic in (False, True):
        for _ in range(300):
            divisors = [rand_poly(rng, variables=variables, max_degree=3, max_terms=4,
                                  nonzero=True)
                        for _ in range(rng.randint(1, 4))]
            if monic:
                divisors = [_monic(d, order) for d in divisors]
            kinds.add(all(d.leading_term(order)[1] == 1
                          and all(c.denominator == 1 for _, c in d.terms) for d in divisors))
            # multiples of the divisors plus noise: reduction steps cancel
            # dividend terms, and later steps recreate some of them; monic
            # sets get denominators up to 10^12, and every fourth dividend
            # is an exact combination of the divisors
            max_denominator = 10**12 if monic else 1
            p = Poly.zero()
            if rng.randrange(4):
                p = rand_poly(rng, variables=variables, max_degree=4,
                              max_denominator=max_denominator)
            for d in divisors:
                p = p + rand_poly(rng, variables=variables, max_degree=2, max_terms=3,
                                  max_denominator=max_denominator) * d
            steps = _assert_divides_like_reference(p, divisors, order)
            if steps:
                with pytest.raises(StepBudgetExceeded):
                    divide_multivariate(p, divisors, order, StepBudget(steps - 1))
    assert kinds == {False, True}


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_divide_matches_reference_with_rational_divisors(order, rand_poly):
    # divisors with Fraction tails, monic or not, over dividends with
    # denominators: the loop's values turn into Fractions only where a tail
    # or a leading coefficient touches them
    rng = random.Random(7007 if order is LEX else 7008)
    variables = ("x", "y", "z")
    tails = set()
    for _ in range(300):
        divisors = [rand_poly(rng, variables=variables, max_degree=3, max_terms=4,
                              nonzero=True, max_denominator=12)
                    for _ in range(rng.randint(1, 4))]
        if rng.randrange(2):
            divisors = [_monic(d, order) for d in divisors]
        tails.add(any(c.denominator != 1 for d in divisors for m, c in d.terms
                      if m != d.leading_monomial(order)))
        p = rand_poly(rng, variables=variables, max_degree=4, max_denominator=12)
        for d in divisors:
            p = p + rand_poly(rng, variables=variables, max_degree=2, max_terms=3,
                              max_denominator=12) * d
        steps = _assert_divides_like_reference(p, divisors, order)
        if steps:
            with pytest.raises(StepBudgetExceeded):
                divide_multivariate(p, divisors, order, StepBudget(steps - 1))
    assert True in tails


def test_divide_budget():
    budget = StepBudget(3)
    with pytest.raises(StepBudgetExceeded):
        divide_multivariate(parse_poly("x^9 + x^8 + x^7 + x^6"),
                            [parse_poly("x")], LEX, budget)


# -- univariate gcd -----------------------------------------------------------

def test_gcd_univariate():
    g = gcd_univariate(parse_poly("x^2 - 1"), parse_poly("x - 1"))
    assert g == parse_poly("x - 1")
    assert gcd_univariate(parse_poly("3x^2"), Poly.zero()) == parse_poly("x^2")
    assert gcd_univariate(Poly.zero(), Poly.zero()).is_zero()
    assert gcd_univariate(parse_poly("x^3 + x"), parse_poly("3x^2 + 1")).is_constant()
    # P = 2^61 - 1 divides lc(p): the images modulo P lose the common factor
    P = 2**61 - 1
    assert gcd_univariate(parse_poly(f"({P} x + 1) (x + 2)"),
                          parse_poly(f"({P} x + 1) (x + 3)")) == parse_poly(f"x + 1/{P}")
    with pytest.raises(ValueError):
        gcd_univariate(parse_poly("x*y"), parse_poly("x"))


def test_gcd_univariate_p_divides_lc_of_second_operand(monkeypatch):
    # P = 2^61 - 1 divides lc(q) but not lc(p): q's image drops its leading
    # zero and still proves a coprime pair coprime, with no Euclid over Q
    P = 2**61 - 1
    calls = []
    remainder = poly_module._remainder

    def counting(*args, **kwargs):
        calls.append(1)
        return remainder(*args, **kwargs)

    monkeypatch.setattr(poly_module, "_remainder", counting)
    assert gcd_univariate(parse_poly("x - 2"), parse_poly(f"{P} x^2 + x + 1")) == Poly.one()
    assert not calls
    # a shared factor leaves a nonconstant gcd modulo P, and Euclid finds it
    assert gcd_univariate(parse_poly("(x - 1) (x - 2)"),
                          parse_poly(f"(x - 1) ({P} x + 1)")) == parse_poly("x - 1")
    assert calls


def test_gcd_univariate_matches_sympy():
    x = sympy.Symbol("x")
    rng = random.Random(1301)

    def factor():
        return sum(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) * x ** i
                   for i in range(rng.randint(1, 3))) + Fraction(rng.randint(1, 7), 3) * x ** 4

    def check(a, b):
        want = sympy.Poly(sympy.gcd(a, b), x).monic()
        got = gcd_univariate(*(parse_poly(" + ".join(f"({c}) x^{e}" for (e,), c
                                                     in sympy.Poly(p, x).terms()))
                               for p in (a, b)))
        assert got == Poly([((e, 0, 0), Fraction(int(c.p), int(c.q)))
                            for (e,), c in want.terms()])

    for _ in range(60):
        # a shared factor, some of it repeated, times non-monic cofactors
        common = factor() ** rng.randint(1, 3)
        check(sympy.expand(common * factor() * rng.randint(1, 9)),
              sympy.expand(common * factor() ** rng.randint(1, 2) * Fraction(2, 7)))
    for _ in range(60):
        # no shared factor as a rule: the check modulo P decides most pairs
        check(sympy.expand(factor() * factor()), sympy.expand(factor() * Fraction(2, 7)))
