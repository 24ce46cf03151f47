import random
import warnings
from fractions import Fraction

import pytest

from bracketdec import curve as curve_module
from bracketdec.curve import (
    AffineLine,
    LocalizedLine,
    PlaneCurve,
    SpaceCurve,
    parse_curve,
)
from bracketdec.errors import (
    BadVariables,
    CurveMismatch,
    DoesNotPreserveIdeal,
    NotSmooth,
    ParseError,
    StepBudgetExceeded,
    UnitCertificateAbsent,
    ValidationError,
    ZeroTau,
)
from bracketdec.decompose import localize_decomp, single_bracket_line, two_bracket_plane
from bracketdec.groebner import buchberger
from bracketdec.poly import MonomialOrder, Poly, parse_poly, partial_derivative

# The plane curves of the acceptance corpus, and a quartic under GRLEX.
_PLANE_CORPUS = [(f"y^2 - ({h})", MonomialOrder.LEX)
                 for h in ("x^3 + x", "x^3 - x + 1", "x^5 + x + 1", "x^5 - x", "x^7 + x + 1")]
_PLANE_CORPUS.append(("x^4 + y^4 - 1", MonomialOrder.GRLEX))


def twisted_cubic():
    return SpaceCurve([parse_poly("y - x^2"), parse_poly("z - x^3")],
                      [parse_poly("1"), parse_poly("2x"), parse_poly("3x^2")])


# -- plane curves ---------------------------------------------------------------

def test_plane_curve_construction():
    c = PlaneCurve(parse_poly("y^2 - x^3 - x"))
    assert c.tau_components == (parse_poly("2y"), parse_poly("3x^2 + 1"))
    assert c.smooth_cert.target == Poly.one()
    assert c.reduce(parse_poly("y^2")).poly == parse_poly("x^3 + x")


@pytest.mark.parametrize("equation, order", _PLANE_CORPUS)
def test_plane_decomposition_basis_matches_buchberger(equation, order):
    # the row taken from the smoothness certificate is the row Buchberger
    # computes on (P, Q, F), so decompositions stay byte-identical
    c = PlaneCurve(parse_poly(equation), order=order)
    P, Q = c.tau_components
    gb = buchberger([P, Q, c.equation], order)
    assert gb.basis == (Poly.one(),)
    assert c.unit_cert.generators == gb.generators
    assert c.unit_cert.cofactors == gb.cofactors[0]
    assert c.decomposition_basis() is c.unit_cert


def test_plane_curve_runs_buchberger_once_on_jacobian(monkeypatch):
    import bracketdec.curve
    import bracketdec.groebner

    calls = []
    real = bracketdec.groebner.buchberger

    def counting(generators, *args, **kwargs):
        calls.append(tuple(generators))
        return real(generators, *args, **kwargs)

    monkeypatch.setattr(bracketdec.groebner, "buchberger", counting)
    monkeypatch.setattr(bracketdec.curve, "buchberger", counting)
    F = parse_poly("y^2 - x^3 - x")
    c = PlaneCurve(F)
    decomp = two_bracket_plane(c, c.reduce(parse_poly("x*y + 1")))
    assert decomp.length <= 2
    Fx, Fy = partial_derivative(F, "x"), partial_derivative(F, "y")
    # the Jacobian ideal for smoothness and (F) for the normal forms; the
    # unit certificate over (P, Q, F) reuses the smoothness certificate
    assert sorted(calls, key=len) == [(F,), (F, Fx, Fy)]


def test_plane_curve_rejects():
    with pytest.raises(NotSmooth):
        PlaneCurve(parse_poly("y^2 - x^3"))
    with pytest.raises(BadVariables):
        PlaneCurve(parse_poly("y^2 - z"))
    with pytest.raises(ValidationError):
        PlaneCurve(parse_poly("7"))


def test_plane_reduce_rejects_z():
    c = PlaneCurve(parse_poly("y^2 - x^3 - x"))
    with pytest.raises(BadVariables):
        c.reduce(parse_poly("z"))


def test_rational_embedding_is_smooth():
    # x -> (x, 1/f): the graph curve f(x) y = 1 always has a unit Jacobian
    for ftext in ("x", "x^2 - 1", "x^3 - x"):
        c = PlaneCurve(parse_poly(f"({ftext}) * y - 1"))
        assert c.smooth_cert is not None


def test_ring_elem_arithmetic_is_homomorphic(rand_poly):
    c = PlaneCurve(parse_poly("y^2 - x^3 - x"))
    rng = random.Random(9001)
    for _ in range(50):
        p = rand_poly(rng, variables=("x", "y"), max_degree=4)
        q = rand_poly(rng, variables=("x", "y"), max_degree=4)
        assert c.reduce(p) + c.reduce(q) == c.reduce(p + q)
        assert c.reduce(p) * c.reduce(q) == c.reduce(p * q)
        assert -c.reduce(p) == c.reduce(-p)
        assert c.reduce(p) * Fraction(2, 3) == c.reduce(p * Fraction(2, 3))


def test_curve_equality_includes_order():
    a = PlaneCurve(parse_poly("y^2 - x^3 - x"))
    b = PlaneCurve(parse_poly("y^2 - x^3 - x"))
    g = PlaneCurve(parse_poly("y^2 - x^3 - x"), order=MonomialOrder.GRLEX)
    assert a == b and hash(a) == hash(b)
    assert a != g


def test_elements_of_different_curves_do_not_mix():
    a = PlaneCurve(parse_poly("y^2 - x^3 - x"))
    b = PlaneCurve(parse_poly("y^2 - x^3 + x + 1"))
    with pytest.raises(CurveMismatch):
        a.one() + b.one()


# -- space curves -----------------------------------------------------------------

def test_space_curve_construction():
    c = twisted_cubic()
    assert c.reduce(parse_poly("y")).poly == parse_poly("x^2")
    assert c.reduce(parse_poly("z^2")).poly == parse_poly("x^6")
    assert c.unit_cert.target == Poly.one()


def test_space_curve_embedded_plane():
    c = SpaceCurve([parse_poly("y^2 - x^3 - x"), parse_poly("z")],
                   [parse_poly("2y"), parse_poly("3x^2 + 1"), Poly.zero()])
    assert c.reduce(parse_poly("y^2 + z")).poly == parse_poly("x^3 + x")


def test_space_curve_rejects_zero_tau():
    with pytest.raises(ZeroTau):
        SpaceCurve([parse_poly("y - x^2"), parse_poly("z - x^3")],
                   [Poly.zero(), Poly.zero(), Poly.zero()])
    # nonzero components that vanish on the curve are still zero tau
    with pytest.raises(ZeroTau):
        SpaceCurve([parse_poly("y - x^2"), parse_poly("z - x^3")],
                   [parse_poly("y - x^2"), Poly.zero(), Poly.zero()])


def test_space_curve_rejects_non_preserving():
    with pytest.raises(DoesNotPreserveIdeal):
        SpaceCurve([parse_poly("y - x^2"), parse_poly("z - x^3")],
                   [Poly.zero(), Poly.one(), Poly.zero()])


def test_space_curve_rejects_vanishing_tau_locus():
    # x * (canonical tau) preserves the ideal but vanishes at the origin
    with pytest.raises(UnitCertificateAbsent):
        SpaceCurve([parse_poly("y - x^2"), parse_poly("z - x^3")],
                   [parse_poly("x"), parse_poly("2x^2"), parse_poly("3x^3")])


def test_space_curve_rejects_empty():
    with pytest.raises(ValidationError):
        SpaceCurve([], [Poly.one(), Poly.zero(), Poly.zero()])
    with pytest.raises(ValidationError):
        SpaceCurve([Poly.zero()], [Poly.one(), Poly.zero(), Poly.zero()])


# -- the line and localized lines ---------------------------------------------------

def test_affine_line():
    line = AffineLine()
    assert line.reduce(parse_poly("x^2 + 1")).poly == parse_poly("x^2 + 1")
    with pytest.raises(BadVariables):
        line.reduce(parse_poly("y"))
    assert line == AffineLine()


def test_localized_line_validation():
    with pytest.raises(ValidationError):
        LocalizedLine(parse_poly("3"))
    with pytest.raises(BadVariables):
        LocalizedLine(parse_poly("y"))
    # the repeated-root warning comes from the curve text, not the constructor
    with pytest.warns(UserWarning):
        parse_curve("line minus x^2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        LocalizedLine(parse_poly("x^2"))
        localize_decomp(single_bracket_line(AffineLine().one()),
                        parse_poly("(x - 1)^2*(x + 2)"), 2)


def test_localized_elem_normalization():
    line = LocalizedLine(parse_poly("x"))
    e = line.elem(parse_poly("x^3"), 2)
    assert e.numerator == parse_poly("x") and e.exponent == 0
    e = line.elem(parse_poly("x^2 + x"), 1)
    assert e.numerator == parse_poly("x + 1") and e.exponent == 0
    z = line.elem(Poly.zero(), 5)
    assert z.is_zero() and z.exponent == 0
    with pytest.raises(AttributeError):
        e.exponent = 1
    again = line.elem(parse_poly("x^2 + x"), 1)
    assert again == e and hash(again) == hash(e)


def test_localized_linear_operations_do_not_divide(monkeypatch):
    # negation and scalar multiples keep lowest terms, so they build the
    # record without a trial division by f
    line = LocalizedLine(parse_poly("x^2 - 1"))
    e = line.elem(parse_poly("x + 3"), 2)
    calls = []
    divide = curve_module.divide_multivariate
    monkeypatch.setattr(curve_module, "divide_multivariate",
                        lambda *a, **kw: calls.append(1) or divide(*a, **kw))
    assert (-e).numerator == parse_poly("-x - 3") and (-e).exponent == 2
    half = e * Fraction(3, 2)
    assert half.numerator == parse_poly("3/2 x + 9/2") and half.exponent == 2
    assert (e * 0) == line.zero()
    assert calls == []


def test_localized_constant_numerator_is_not_divided():
    # a nonconstant f cannot divide a constant, so no step is spent
    e = LocalizedLine(parse_poly("x"), max_steps=0).elem(Poly.one(), 3)
    assert e.numerator == Poly.one() and e.exponent == 3


def test_localized_arithmetic():
    line = LocalizedLine(parse_poly("x"))
    one_over = line.elem(Poly.one(), 1)
    assert one_over + one_over == line.elem(Poly.constant(2), 1)
    assert (one_over * one_over).exponent == 2
    assert one_over - one_over == line.reduce(Poly.zero())
    assert str(one_over) == "(1) / (x)"
    assert str(line.elem(Poly.one(), 2)) == "(1) / (x)^2"


def test_localized_mul_cross_check(rand_poly):
    # compare against cross-multiplied unreduced values
    rng = random.Random(9002)
    line = LocalizedLine(parse_poly("x^2 - 1"))
    f = line.denominator
    for _ in range(200):
        a = line.elem(rand_poly(rng, variables=("x",), max_degree=4), rng.randint(0, 3))
        b = line.elem(rand_poly(rng, variables=("x",), max_degree=4), rng.randint(0, 3))
        prod = a * b
        lhs = prod.numerator * f ** (a.exponent + b.exponent - prod.exponent)
        assert lhs == a.numerator * b.numerator
        total = a + b
        m = max(a.exponent, b.exponent)
        lhs = total.numerator * f ** (m - total.exponent)
        rhs = a.numerator * f ** (m - a.exponent) + b.numerator * f ** (m - b.exponent)
        assert lhs == rhs


def test_localized_parse_element():
    line = LocalizedLine(parse_poly("x^2 - 1"))
    e = line.parse_element("(x + 1) / (x^2 - 1)^2")
    assert e == line.elem(parse_poly("x + 1"), 2)
    assert line.parse_element("3/2").numerator == Poly.constant(Fraction(3, 2))
    assert line.parse_element("(x + 1) / ((x^2 - 1) * 2)") == \
        line.elem(Poly.one() * Fraction(1, 2), 1) * line.reduce(parse_poly("x + 1"))
    with pytest.raises(ParseError):
        line.parse_element("1 / (x + 2)")
    with pytest.raises(ParseError):
        line.parse_element("1 / (x^2 - 1) / (x^2 - 1)")


# -- curve grammar -------------------------------------------------------------------

def test_reductions_spend_the_step_budget():
    # each reduction gets its own budget of the curve's max_steps
    # y^40 takes 231 steps modulo y^2 - x^3 - x, z^40 takes 41 on the
    # twisted cubic
    plane = parse_curve("plane y^2 - x^3 - x", max_steps=231)
    assert plane.reduce(parse_poly("y^40")) == plane.reduce(parse_poly("y^40"))
    with pytest.raises(StepBudgetExceeded):
        plane.reduce(parse_poly("y^42"))
    space = parse_curve("space y - x^2; z - x^3 tau 1, 2x, 3x^2", max_steps=40)
    with pytest.raises(StepBudgetExceeded):
        space.reduce(parse_poly("z^40"))
    line = parse_curve("line minus x + 1", max_steps=50)
    assert line.max_steps == 50
    assert line.elem(parse_poly("(x + 1)^3"), 2).exponent == 0
    with pytest.raises(StepBudgetExceeded):
        line.elem(parse_poly("x^60"), 1)


def test_parse_curve_variants():
    assert isinstance(parse_curve("line"), AffineLine)
    loc = parse_curve("line minus x^2 - 1")
    assert isinstance(loc, LocalizedLine) and loc.denominator == parse_poly("x^2 - 1")
    pl = parse_curve("plane y^2 - x^3 - x")
    assert isinstance(pl, PlaneCurve)
    sp = parse_curve("space y - x^2; z - x^3 tau 1, 2x, 3x^2")
    assert isinstance(sp, SpaceCurve) and len(sp.generators) == 2


def test_parse_curve_rejects():
    with pytest.raises(ParseError):
        parse_curve("circle x^2 + y^2 - 1")
    with pytest.raises(ParseError):
        parse_curve("space y - x^2; z - x^3")
    with pytest.raises(ParseError):
        parse_curve("space y - x^2 tau 1, 2x")
    with pytest.raises(NotSmooth):
        parse_curve("plane y^2 - x^3")
