import random
from fractions import Fraction

import pytest

from bracketdec.curve import AffineLine, LocalizedLine, PlaneCurve, SpaceCurve
from bracketdec.errors import CurveMismatch
from bracketdec.liealg import BracketDecomp, VField, apply_tau, bracket, recombine
from bracketdec.poly import MonomialOrder, Poly, parse_poly, partial_derivative


def plane():
    return PlaneCurve(parse_poly("y^2 - x^3 - x"))


def twisted_cubic():
    return SpaceCurve([parse_poly("y - x^2"), parse_poly("z - x^3")],
                      [parse_poly("1"), parse_poly("2x"), parse_poly("3x^2")])


# -- tau action ---------------------------------------------------------------

def test_apply_tau_line():
    line = AffineLine()
    assert apply_tau(line, line.reduce(parse_poly("x^3"))) == line.reduce(parse_poly("3x^2"))
    assert apply_tau(line, line.one()).is_zero()


def test_apply_tau_plane():
    c = plane()
    # tau = (2y, 3x^2+1): tau(x) = 2y, tau(y) = 3x^2 + 1
    assert apply_tau(c, c.reduce(parse_poly("x"))) == c.reduce(parse_poly("2y"))
    assert apply_tau(c, c.reduce(parse_poly("y"))) == c.reduce(parse_poly("3x^2 + 1"))
    # tau kills the equation: tau(y^2 - x^3 - x) reduces to 0
    assert apply_tau(c, c.reduce(parse_poly("y^2"))).poly == \
        apply_tau(c, c.reduce(parse_poly("x^3 + x"))).poly


def test_apply_tau_space():
    c = twisted_cubic()
    assert apply_tau(c, c.reduce(parse_poly("x"))) == c.reduce(Poly.one())
    assert apply_tau(c, c.reduce(parse_poly("y"))) == c.reduce(parse_poly("2x"))
    assert apply_tau(c, c.reduce(parse_poly("z"))) == c.reduce(parse_poly("3x^2"))


def test_apply_tau_localized():
    line = LocalizedLine(parse_poly("x"))
    e = line.elem(Poly.one(), 1)
    d = apply_tau(line, e)
    assert d == line.elem(-Poly.one(), 2)
    # polynomial part still differentiates as usual
    assert apply_tau(line, line.reduce(parse_poly("x^2"))) == line.reduce(parse_poly("2x"))


def test_apply_tau_lift_independence(rand_poly):
    c = plane()
    rng = random.Random(9101)
    for _ in range(25):
        lift = rand_poly(rng, variables=("x", "y"), max_degree=4)
        mult = rand_poly(rng, variables=("x", "y"), max_degree=2)
        shifted = lift + mult * c.equation
        assert c.reduce(lift) == c.reduce(shifted)
        assert apply_tau(c, c.reduce(lift)) == apply_tau(c, c.reduce(shifted))


def test_apply_tau_wrong_curve():
    c = plane()
    with pytest.raises(CurveMismatch):
        apply_tau(c, AffineLine().one())


# -- brackets -----------------------------------------------------------------

def test_bracket_line_example():
    line = AffineLine()
    u = VField(line.reduce(parse_poly("-x")))
    v = VField(line.one())
    assert bracket(u, v) == VField(line.one())


def test_bracket_formula_on_plane():
    c = plane()
    one = VField(c.one())
    f = VField(c.reduce(parse_poly("x")))
    # [tau, f tau] = tau(f) tau
    assert bracket(one, f) == VField(apply_tau(c, f.coeff))


def test_bracket_matches_reduced_product_formula(rand_poly):
    # bracket reduces a tau(b) - b tau(a) once, on the lifts; the old formula
    # reduces tau(a), tau(b) and both products separately (on the line,
    # tau = d/dx is the one-component derivation (1))
    cases = [(PlaneCurve(parse_poly("y^2 - x^3 - x"), order=order), ("x", "y"))
             for order in (MonomialOrder.LEX, MonomialOrder.GRLEX)]
    cases.append((PlaneCurve(parse_poly("x^4 + y^4 - 1"),
                             order=MonomialOrder.GRLEX), ("x", "y")))
    cases.append((twisted_cubic(), ("x", "y", "z")))
    cases.append((AffineLine(), ("x",)))
    rng = random.Random(9105)
    for c, variables in cases:
        for _ in range(25):
            u = VField(c.reduce(rand_poly(rng, variables=variables, max_degree=5)))
            v = VField(c.reduce(rand_poly(rng, variables=variables, max_degree=5)))
            a, b = u.coeff, v.coeff
            assert bracket(u, v).coeff == a * apply_tau(c, b) - b * apply_tau(c, a)


def _chain_derivation(components, p):
    """Reference derivation: a chain of products and sums of partial derivatives."""
    acc = Poly.zero()
    for comp, var in zip(components, "xyz"):
        if not comp.is_zero():
            acc = acc + comp * partial_derivative(p, var)
    return acc


def test_bracket_matches_chain_reference(rand_poly):
    # the coefficient a D(b) - b D(a) of the lifts, as a chain of Poly
    # operations, reduced once; bracket must give the same canonical terms
    rng = random.Random(9106)
    for c, variables in ((plane(), ("x", "y")), (twisted_cubic(), ("x", "y", "z"))):
        comps = c.tau_components
        for _ in range(40):
            a = c.reduce(rand_poly(rng, variables=variables, max_degree=5, max_denominator=50))
            b = c.reduce(rand_poly(rng, variables=variables, max_degree=5, max_denominator=50))
            expected = c.reduce(a.poly * _chain_derivation(comps, b.poly)
                                - b.poly * _chain_derivation(comps, a.poly))
            assert bracket(VField(a), VField(b)).coeff.poly.terms == expected.poly.terms


def test_apply_tau_localized_matches_quotient_rule(rand_poly):
    rng = random.Random(9107)
    for f in (parse_poly("x^2 - 1"), parse_poly("2x^3 + 1/3*x"), parse_poly("(x - 1)^2")):
        line = LocalizedLine(f)
        fx = partial_derivative(f, "x")
        for _ in range(30):
            n = rand_poly(rng, variables=("x",), max_degree=5, max_denominator=20)
            e = line.elem(n, rng.randint(0, 3))
            n, m = e.numerator, e.exponent
            if m == 0:
                expected = line.elem(partial_derivative(n, "x"), 0)
            else:
                expected = line.elem(partial_derivative(n, "x") * f - n * fx * m, m + 1)
            got = apply_tau(line, e)
            assert (got.numerator.terms, got.exponent) == \
                (expected.numerator.terms, expected.exponent)


def test_bracket_mismatch():
    with pytest.raises(CurveMismatch):
        bracket(VField(plane().one()), VField(AffineLine().one()))


def _random_field(rng, curve, rand_poly):
    if isinstance(curve, LocalizedLine):
        num = rand_poly(rng, variables=("x",), max_degree=2, coeff_lo=-5, coeff_hi=5)
        return VField(curve.elem(num, rng.randint(0, 2)))
    variables = ("x",) if isinstance(curve, AffineLine) else \
        ("x", "y") if hasattr(curve, "equation") else ("x", "y", "z")
    lift = rand_poly(rng, variables=variables, max_degree=2,
                     coeff_lo=-5, coeff_hi=5, max_terms=3)
    return VField(curve.reduce(lift))


def _law_corpus():
    return [AffineLine(), LocalizedLine(parse_poly("x^2 - 1")), plane(), twisted_cubic()]


def test_alternating_and_antisymmetry(rand_poly):
    rng = random.Random(9102)
    for curve in _law_corpus():
        zero = VField(curve.zero())
        for _ in range(30):
            u = _random_field(rng, curve, rand_poly)
            v = _random_field(rng, curve, rand_poly)
            assert bracket(u, u) == zero
            assert bracket(u, v) + bracket(v, u) == zero


def test_jacobi(rand_poly):
    rng = random.Random(9103)
    for curve in _law_corpus():
        zero = VField(curve.zero())
        for _ in range(10):
            u = _random_field(rng, curve, rand_poly)
            v = _random_field(rng, curve, rand_poly)
            w = _random_field(rng, curve, rand_poly)
            acc = (bracket(u, bracket(v, w)) + bracket(v, bracket(w, u))
                   + bracket(w, bracket(u, v)))
            assert acc == zero


def test_bilinearity(rand_poly):
    rng = random.Random(9104)
    for curve in _law_corpus():
        for _ in range(10):
            u = _random_field(rng, curve, rand_poly)
            v = _random_field(rng, curve, rand_poly)
            w = _random_field(rng, curve, rand_poly)
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            assert bracket(a * u + b * v, w) == a * bracket(u, w) + b * bracket(v, w)


# -- vector field and decomposition containers -----------------------------------

def test_vfield_ops():
    line = AffineLine()
    u = VField(line.reduce(parse_poly("x")))
    assert (u + u) == 2 * u
    assert (u - u).is_zero()
    assert str(-u) == "-x"
    assert u.curve == line
    with pytest.raises(TypeError):
        u * u  # fields scale by scalars only


def test_bracket_decomp_container():
    line = AffineLine()
    u = VField(line.reduce(parse_poly("-x")))
    v = VField(line.one())
    d = BracketDecomp(line, ((u, v),))
    assert d.length == 1 and len(d) == 1
    assert list(d) == [(u, v)]
    assert recombine(d) == VField(line.one())
    empty = BracketDecomp(line, ())
    assert recombine(empty).is_zero()


def test_bracket_decomp_rejects_foreign_pairs():
    line = AffineLine()
    c = plane()
    with pytest.raises(CurveMismatch):
        BracketDecomp(line, ((VField(c.one()), VField(c.one())),))


def test_trace_excluded_from_equality():
    line = AffineLine()
    u, v = VField(line.reduce(parse_poly("-x"))), VField(line.one())
    assert BracketDecomp(line, ((u, v),), {"method": "line"}) == \
        BracketDecomp(line, ((u, v),), None)
