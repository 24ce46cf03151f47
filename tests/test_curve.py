import copy
import pickle
import random
import time
import warnings
from fractions import Fraction
from math import inf, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketdec import curve as curve_module
from bracketdec import poly as poly_module
from bracketdec.curve import (
    AffineLine,
    LocalizedElem,
    LocalizedLine,
    PlaneCurve,
    SpaceCurve,
    parse_curve,
)
from bracketdec.errors import (
    BadVariables,
    BracketDecError,
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
from bracketdec.groebner import MembershipCertificate, buchberger
from bracketdec.liealg import BracketDecomp, VField
from bracketdec.poly import (
    MonomialOrder,
    Poly,
    StepBudget,
    _divide_out,
    divide_multivariate,
    gcd_univariate,
    parse_poly,
    partial_derivative,
)

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
    assert c.unit_cert.cofactors == gb.rows[0].cofactors
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


def test_curve_unit_certificates_are_basis_rows(monkeypatch):
    # each identity is checked once, when it is built: a plane curve checks
    # the Jacobian basis row, the row of (F) and unit_cert, and takes its
    # smoothness certificate straight from the Jacobian basis
    import bracketdec.groebner as groebner

    bases, checks, compositions = [], [], []
    real_buchberger = groebner.buchberger
    real_check = groebner.MembershipCertificate.__post_init__
    real_compose = groebner.certificate_from_basis

    def recording(*args, **kwargs):
        bases.append(real_buchberger(*args, **kwargs))
        return bases[-1]

    def counting_check(self):
        checks.append(self)
        real_check(self)

    def counting_compose(*args, **kwargs):
        compositions.append(args)
        return real_compose(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", recording)
    monkeypatch.setattr(curve_module, "buchberger", recording)
    monkeypatch.setattr(groebner.MembershipCertificate, "__post_init__", counting_check)
    monkeypatch.setattr(groebner, "certificate_from_basis", counting_compose)

    def basis_of(generators):
        return next(gb for gb in bases if gb.generators == tuple(generators))

    def checked_once(certs):
        return len(checks) == len(certs) and all(
            sum(c is d for d in checks) == 1 for c in certs)

    F = parse_poly("y^2 - x^3 - x")
    c = PlaneCurve(F)
    jacobian = basis_of((F, partial_derivative(F, "x"), partial_derivative(F, "y")))
    assert c.smooth_cert is jacobian.rows[0]
    assert checked_once((c.smooth_cert, c.gb.rows[0], c.unit_cert))

    bases.clear()
    checks.clear()
    s = twisted_cubic()
    assert s.unit_cert is basis_of(s.tau_components + s.generators).rows[0]
    assert checked_once(s.gb.rows + (s.unit_cert,))
    assert compositions == []


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


_MODELS = ("line", "line minus", "plane", "space")


def _curve(model, order=MonomialOrder.LEX, max_steps=10_000):
    if model == "line":
        return AffineLine()
    if model == "line minus":
        return LocalizedLine(parse_poly("x^2 - 1"), max_steps=max_steps)
    if model == "plane":
        return PlaneCurve(parse_poly("y^2 - x^3 - x"), order=order, max_steps=max_steps)
    return SpaceCurve([parse_poly("y - x^2"), parse_poly("z - x^3")],
                      [parse_poly("1"), parse_poly("2x"), parse_poly("3x^2")],
                      order=order, max_steps=max_steps)


def test_curve_equality_includes_order():
    # a curve is its model and its defining data; the step budget is not
    for model in _MODELS:
        a, b, c = _curve(model), _curve(model), _curve(model, max_steps=50_000)
        assert a == b == c and hash(a) == hash(b) == hash(c) and repr(a) == repr(c)
        assert all(a != _curve(other) for other in _MODELS if other != model)
        if model in ("plane", "space"):
            assert a != _curve(model, order=MonomialOrder.GRLEX)
    assert AffineLine() != LocalizedLine(parse_poly("x"))
    assert _curve("line minus") != LocalizedLine(parse_poly("x^2 + 1"))


def test_elements_of_different_curves_do_not_mix():
    a = PlaneCurve(parse_poly("y^2 - x^3 - x"))
    b = PlaneCurve(parse_poly("y^2 - x^3 + x + 1"))
    with pytest.raises(CurveMismatch):
        a.one() + b.one()


def test_operands_agree_in_type_and_curve():
    # each binary operation of RingElem, LocalizedElem and VField requires
    # both operands of one type on one curve
    line, plane = AffineLine(), _curve("plane")
    loc, loc2 = _curve("line minus"), LocalizedLine(parse_poly("x"))
    values = [line.one(), plane.one(), loc.one(), loc2.one(),
              VField(line.one()), VField(plane.one()), VField(loc.one())]
    for u in values:
        assert u - u == u + -u and 2 * u == u * 2 == u + u
        for v in values:
            if v is u:
                continue
            with pytest.raises(CurveMismatch):
                u + v
            with pytest.raises(CurveMismatch):
                u - v
            if not isinstance(u, VField):
                with pytest.raises(CurveMismatch):
                    u * v


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
    with pytest.raises(ValueError, match="nonnegative"):
        line.elem(parse_poly("x"), -1)
    # a count is read as an integer, never truncated or converted from text
    for exponent in (1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="must be an integer"):
            line.elem(parse_poly("x + 1"), exponent)
    with pytest.raises(ValueError, match="step budget must be an integer"):
        PlaneCurve(parse_poly("y^2 - x^3 - x"), max_steps="7")
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


def _line_pair():
    line = AffineLine()
    return line, ((VField(line.one()), VField(line.reduce(parse_poly("1/2 x^2")))),)


# (fields, maker): each maker builds its record from new objects, and a
# BracketDecomp takes the given trace
_RECORDS = {
    "RingElem": (("curve", "poly"),
                 lambda trace: AffineLine().reduce(parse_poly("x + 1"))),
    "LocalizedElem": (("curve", "numerator", "exponent"),
                      lambda trace: LocalizedLine(parse_poly("x")).elem(parse_poly("x + 1"), 2)),
    "VField": (("coeff",), lambda trace: VField(
        PlaneCurve(parse_poly("y^2 - x^3 - x")).reduce(parse_poly("y^3")))),
    "BracketDecomp": (("curve", "pairs", "trace"),
                      lambda trace: BracketDecomp(*_line_pair(), trace)),
    "GroebnerBasis": (("generators", "rows", "order"),
                      lambda trace: buchberger([parse_poly("x^2 + y"), parse_poly("x*y + x")])),
    "MembershipCertificate": (("target", "generators", "cofactors"),
                              lambda trace: MembershipCertificate(
                                  parse_poly("x^2 - 1"), (parse_poly("x - 1"),),
                                  (parse_poly("x + 1"),))),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_records_compare_by_fields_and_are_frozen(name):
    fields, make = _RECORDS[name]
    a, b = make(None), make({"method": "line"})
    assert type(a).__name__ == name
    # equal fields give equal records and hashes; trace takes no part
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == repr(b) and "trace" not in repr(a)
    others = [other_make(None) for other, (_, other_make) in _RECORDS.items() if other != name]
    assert all(a != c for c in others) and a != tuple(getattr(a, f) for f in fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    for c in (copy.copy(b), pickle.loads(pickle.dumps(b))):
        assert c == b and all(getattr(c, f) == getattr(b, f) for f in fields)


def test_localized_linear_operations_do_not_divide(monkeypatch):
    # negation and scalar multiples keep lowest terms, so they build the
    # record without a trial division by f
    line = LocalizedLine(parse_poly("x^2 - 1"))
    e = line.elem(parse_poly("x + 3"), 2)
    calls = []
    divide = poly_module.divide_multivariate
    monkeypatch.setattr(poly_module, "divide_multivariate",
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
    # a denominator in y is no c * f^m, whatever its terms in x, and is
    # refused before any trial division spends a step
    for line, text in ((line, "1 / ((x^2 - 1)(y + x))"),
                       (LocalizedLine(parse_poly("x"), max_steps=0), "1 / y")):
        with pytest.raises(ParseError, match="constant multiple of a power"):
            line.parse_element(text)


def _split_element_division(text: str):
    """The splitter parse_element once used: a second scan beside the tokenizer.

    It split at the first top-level '/' not directly followed by a digit,
    which left `x / 2x` and `2x^2/3` to parse_poly, which rejects them.
    """
    depth = 0
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            rest = text[idx + 1:].lstrip()
            if rest and not rest[0].isdigit():
                return text[:idx], text[idx + 1:]
    return None


def _reference_parse_element(line, text):
    split = _split_element_division(text)
    if split is None:
        return line.reduce(parse_poly(text))
    num = parse_poly(split[0])
    den, m = _divide_out(parse_poly(split[1]), line.denominator, inf,
                         StepBudget(line.max_steps))
    if not den.is_constant():
        raise ParseError("element denominator must be a constant multiple of a power "
                         f"of the localization denominator ({line.denominator})")
    c = den.as_constant()
    if c == 0:
        raise ParseError("zero denominator in element text")
    return line.elem(num * (1 / c), m)


def _parse_outcome(parse, line, text):
    try:
        return parse(line, text)
    except (BracketDecError, ValueError) as exc:
        return type(exc)


_space = st.sampled_from(["", " ", "  "])
_literal = st.sampled_from(["1", "3", "1/2", "-2/3", "7 / 5", "(5)", "0"])
_term = st.builds(lambda c, sp, e: f"{c}{sp}x^{e}", _literal, _space, st.integers(0, 4))
_sum = st.lists(_term, min_size=1, max_size=3).map(" + ".join)
_num_text = st.one_of(_sum, _sum.map(lambda t: f"({t})"), _literal)
_LINE_TEXTS = ["x", "x^2 - 1", "2x^2 + 3", "x + 1/2", "(x - 1)^2 (x + 2)"]


@st.composite
def _den_texts(draw, f: str):
    """c * f^m written with and without '*', parentheses and spaces, or another text."""
    power = draw(st.sampled_from([f, f"({f})", f"({f})^{draw(st.integers(0, 3))}"]))
    coeff = draw(st.sampled_from(["", "2", "1/3 ", "(-5)", "2/7*", "x", "(x + 3) "]))
    return draw(st.sampled_from([coeff + power, power + draw(_space) + coeff.strip("* "),
                                 draw(_sum), "0", ""]))


@st.composite
def _quotient_texts(draw):
    f = draw(st.sampled_from(_LINE_TEXTS))
    slash = draw(st.sampled_from(["/", " / ", "/ ", " /"]))
    suffix = draw(st.sampled_from(["", "", "", " / x", " + 1", ")", " / 2"]))
    return f, draw(_num_text) + slash + draw(_den_texts(f)) + suffix


@settings(max_examples=300, deadline=None)
@given(case=_quotient_texts())
def test_parse_element_matches_the_splitter(case):
    # every text the splitter read gives the same element or error code; a
    # text it rejected as a polynomial may now parse
    f, text = case
    line = LocalizedLine(parse_poly(f))
    want = _parse_outcome(_reference_parse_element, line, text)
    got = _parse_outcome(LocalizedLine.parse_element, line, text)
    if want is ParseError:
        assert got is ParseError or isinstance(got, LocalizedElem)
    else:
        assert got == want


@pytest.mark.parametrize("f, text, numerator, exponent", [
    ("x", "x / 2x", "1/2", 0),
    ("x", "2x^2/3", "2/3 x^2", 0),
    ("x + 1", "(x+1) / 2(x+1)^2", "1/2", 1),
    ("x^2 - 1", "x / 2/3 (x^2 - 1)", "3/2 x", 1),
])
def test_parse_element_reads_forms_the_splitter_rejected(f, text, numerator, exponent):
    line = LocalizedLine(parse_poly(f))
    with pytest.raises(ParseError):
        _reference_parse_element(line, text)
    assert line.parse_element(text) == line.elem(parse_poly(numerator), exponent)


def test_parse_element_charges_each_side_its_own_parse_cost():
    # each side costs about 2,000,000 of the 3,000,000 bound, as it did when
    # the sides were parsed apart
    line = LocalizedLine(parse_poly("x + 1"))
    e = line.parse_element("(x+1)^600 / (x+1)^600")
    assert e == line.one()


# -- trial division by f, rejected modulo P = 2^61 - 1 ----------------------------------

_P = 2**61 - 1


def _upoly(coeffs) -> Poly:
    return Poly(((i, 0, 0), c) for i, c in enumerate(coeffs))


_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# a factor of degree 1 or 2 with a nonzero leading coefficient
_factors = st.tuples(st.lists(_coeffs, min_size=1, max_size=2),
                     _coeffs.filter(bool)).map(lambda t: _upoly(t[0] + [t[1]]))
# lc * prod factor^multiplicity: non-monic, rational and repeated-root f;
# and one-term f = c x^e, which is divided out in one pass
_denominators = st.one_of(
    st.tuples(
        _coeffs.filter(bool),
        st.lists(st.tuples(_factors, st.integers(1, 3)), min_size=1, max_size=2),
    ).map(lambda t: prod((g ** m for g, m in t[1]), start=Poly.constant(t[0]))),
    st.tuples(_coeffs.filter(bool), st.integers(1, 3)).map(
        lambda t: Poly.monomial((t[1], 0, 0), t[0])),
)


@st.composite
def _numerators(draw, f):
    """f^j times a dense or a sparse high-degree cofactor, sometimes plus a remainder."""
    if draw(st.booleans()):
        cofactor = _upoly(draw(st.lists(_coeffs, max_size=8)))
    else:
        cofactor = Poly([((draw(st.integers(30, 300)), 0, 0), draw(_coeffs.filter(bool))),
                         ((0, 0, 0), draw(_coeffs))])
    p = cofactor * f ** draw(st.integers(0, 4))
    if draw(st.booleans()):
        p = p + _upoly(draw(st.lists(_coeffs, max_size=4)))
    return p


def _divide_out_unfiltered(line, p, most):
    """The lowest-terms loop with an exact division for every trial."""
    budget = StepBudget(line.max_steps)
    j = 0
    while j < most and not p.is_constant():
        quotients, rem = divide_multivariate(p, [line.denominator], budget=budget)
        if not rem.is_zero():
            break
        p = quotients[0]
        j += 1
    return p, j, budget.remaining


def _outcome(run):
    try:
        return run()
    except StepBudgetExceeded:
        return "exhausted"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), f=_denominators, most=st.one_of(st.integers(0, 6), st.just(inf)),
       max_steps=st.sampled_from([3, 20, 200, 10**6]))
def test_filtered_divide_out_matches_exact_loop(data, f, most, max_steps):
    # the mod-P reject keeps every quotient, every j and the remaining budget
    p = data.draw(_numerators(f))
    line = LocalizedLine(f, max_steps=max_steps)

    def filtered():
        budget = StepBudget(max_steps)
        q, j = _divide_out(p, f, most, budget)
        return q, j, budget.remaining

    assert _outcome(filtered) == _outcome(lambda: _divide_out_unfiltered(line, p, most))


def _count_exact_divisions(monkeypatch) -> list:
    calls = []
    divide = poly_module.divide_multivariate
    monkeypatch.setattr(poly_module, "divide_multivariate",
                        lambda *a, **k: calls.append(a[0]) or divide(*a, **k))
    return calls


@pytest.mark.parametrize("f, p, most, exact, j", [
    # decided modulo P: x^3 + 2 = x (x^2 + 1) - x + 2
    ("x^2 + 1", "x^3 + 2", 1, 0, 0),
    # P divides a denominator of p, or lc(f): the exact division runs
    ("x^2 + 1", "x^3 + 1/2305843009213693951", 1, 1, 0),
    ("x^2 + 1", "(x^2 + 1)^2 (x + 1/2305843009213693951)", 3, 2, 2),
    ("2305843009213693951 x^2 + 1", "x^3 + 2", 1, 1, 0),
    ("x - 1/2305843009213693951", "(x - 1/2305843009213693951) (x^2 + 3)", 2, 2, 1),
    # a sparse numerator takes the exact path, never a list of 301 residues
    ("x + 1", "x^300 + 2", 1, 1, 0),
    # a lower degree decides without any division
    ("x^2 + 1", "(x^2 + 1) x", 2, 1, 1),
])
def test_divide_out_defers_to_exact_division(monkeypatch, f, p, most, exact, j):
    line = LocalizedLine(parse_poly(f))
    calls = _count_exact_divisions(monkeypatch)
    num = parse_poly(p)
    q, got = _divide_out(num, line.denominator, most, StepBudget(line.max_steps))
    assert (len(calls), got) == (exact, j)
    assert q * line.denominator ** j == num


@pytest.mark.parametrize("f, p, steps", [
    ("x^2 + 1", "x^3 + 2", 3),  # quotient x, remainder -x + 2
    ("x^3 + 1", "x^5 + 3", 3),  # quotient x^2, remainder -x^2 + 3
    ("x^2 + 1", "x", 1),        # the degree check: one step per term
    ("x^3 + 1", "x^2 - 4", 2),
])
def test_mod_p_reject_charges_the_exact_steps(f, p, steps):
    assert LocalizedLine(parse_poly(f), max_steps=steps).elem(parse_poly(p), 1).exponent == 1
    with pytest.raises(StepBudgetExceeded):
        LocalizedLine(parse_poly(f), max_steps=steps - 1).elem(parse_poly(p), 1)


# -- the repeated-root check of line minus f ------------------------------------------

def _count_euclid_divisions(monkeypatch) -> list:
    # parse_curve divides only in gcd_univariate's Euclid over Q
    calls = []
    remainder = poly_module._remainder
    monkeypatch.setattr(poly_module, "_remainder",
                        lambda *a, **k: calls.append(1) or remainder(*a, **k))
    return calls


@pytest.mark.parametrize("f, warns, exact", [
    ("x^2 - 1", False, 0),
    ("(x - 1)^2*(x + 2)", True, 1),
    ("2x^2 + 3", False, 0),
    # P divides lc(f), or a denominator of f: Euclid over Q decides
    ("2305843009213693951 (x - 1)^2", True, 1),
    ("2305843009213693951 x^2 + 1", False, 1),
    ("x^2 + 1/2305843009213693951", False, 1),
    # too sparse for a residue list
    ("x^100 + 1", False, 1),
])
def test_repeated_root_check_modulo_p(monkeypatch, f, warns, exact):
    # exact is 1 when Euclid over Q runs, which divides at least once
    divisions = _count_euclid_divisions(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_curve(f"line minus {f}")
    assert (len(caught), min(len(divisions), 1)) == (int(warns), exact)


def test_repeated_root_check_of_degree_300_is_fast():
    # Euclid over Q on this dense f took 15.6 s; modulo P it takes milliseconds
    rng = random.Random(1)
    f = " + ".join(f"{rng.randint(1, 9)} x^{i}" for i in range(301))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_curve(f"line minus {f}", max_steps=10)
    assert time.perf_counter() - start < 2


@settings(max_examples=100, deadline=None)
@given(f=_denominators)
def test_repeated_root_check_matches_euclid(f):
    # a constant gcd modulo P proves f squarefree, and no gcd here is a
    # nonzero multiple of P, so the check agrees with Euclid over Q alone
    with mock.patch.object(poly_module, "_residues", return_value=None):
        exact = gcd_univariate(f, partial_derivative(f, "x")).is_constant()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_curve(f"line minus {f}")
    assert bool(caught) is not exact


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
