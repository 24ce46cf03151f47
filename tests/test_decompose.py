import random

import pytest
import sympy
from test_acceptance import _plane_corpus, _space_corpus

import bracketdec.decompose as dec
from bracketdec.curve import (
    AffineLine,
    LocalizedElem,
    LocalizedLine,
    PlaneCurve,
    SpaceCurve,
)
from bracketdec.decompose import (
    localize_decomp,
    rational_decompose,
    single_bracket_line,
    solve_rgh,
    three_bracket_space,
    two_bracket_plane,
)
from bracketdec.errors import CertificateFailure, CurveMismatch
from bracketdec.groebner import (
    GroebnerBasis,
    MembershipCertificate,
    buchberger,
    certificate_from_basis,
)
from bracketdec.liealg import BracketDecomp, VField, recombine
from bracketdec.poly import Poly, parse_poly, partial_derivative


def plane():
    return PlaneCurve(parse_poly("y^2 - x^3 - x"))


def twisted_cubic():
    return SpaceCurve([parse_poly("y - x^2"), parse_poly("z - x^3")],
                      [parse_poly("1"), parse_poly("2x"), parse_poly("3x^2")])


# -- line ---------------------------------------------------------------------

def test_single_bracket_line_examples():
    line = AffineLine()
    d = single_bracket_line(line.one())
    assert d.length == 1
    (u, v), = d.pairs
    assert u == VField(line.one()) and v == VField(line.reduce(parse_poly("x")))
    assert recombine(d) == VField(line.one())

    assert single_bracket_line(line.zero()).length == 0

    h = line.reduce(parse_poly("x^12"))
    d = single_bracket_line(h)
    assert d.length == 1 and recombine(d) == VField(h)


def test_single_bracket_line_trace():
    line = AffineLine()
    d = single_bracket_line(line.reduce(parse_poly("x")), trace=True)
    assert d.trace["r"] == d.trace["f"] == "1/2*x^2"
    assert d.trace["membership_generators"] == ["1"]
    assert d.trace["membership_cofactors"] == ["x"]


def test_single_bracket_line_wrong_curve():
    with pytest.raises(CurveMismatch):
        single_bracket_line(plane().one())


# -- the r, g, h solver ---------------------------------------------------------

def test_solve_rgh_trivial():
    r, g, h = solve_rgh([Poly.zero()] * 3, ("y", "z"))
    assert r.is_zero() and g.is_zero() and h.is_zero()
    r, g, h = solve_rgh([Poly.one(), Poly.zero(), Poly.zero()], ("y", "z"))
    assert r == parse_poly("x") and g.is_zero() and h.is_zero()
    # the line: no extra coordinate, so r alone
    assert solve_rgh([Poly.one()], ()) == (parse_poly("x"),)


def test_solve_rgh_identities(rand_poly):
    rng = random.Random(9201)
    for _ in range(300):
        fc = rand_poly(rng, variables=("x", "y", "z"), max_degree=4)
        gc = rand_poly(rng, variables=("x", "y", "z"), max_degree=4)
        hc = rand_poly(rng, variables=("x", "y", "z"), max_degree=4)
        r, g, h = solve_rgh([fc, gc, hc], ("y", "z"))
        assert partial_derivative(r, "x") == fc
        assert partial_derivative(r, "y") - 2 * g == gc
        assert partial_derivative(r, "z") - 2 * h == hc


# -- plane curves -----------------------------------------------------------------

def test_two_bracket_plane_unit_target():
    c = plane()
    d = two_bracket_plane(c, c.one(), trace=True)
    assert d.length <= 2
    assert recombine(d).coeff == c.one()
    assert d.trace["membership_generators"][0] == "2*y"
    assert "r" in d.trace and "f" in d.trace


def test_two_bracket_plane_zero_target():
    assert two_bracket_plane(plane(), plane().zero()).length == 0


def test_two_bracket_plane_random(rand_poly):
    rng = random.Random(9202)
    # the last curve is smooth but reducible: the construction needs only
    # smoothness and the unit certificate, not irreducibility
    for ftext, targets in (("y^2 - x^3 - x", 20), ("y^2 - x^5 - x - 1", 20),
                           ("(y^2 - x)(y^2 - x - 1)", 8)):
        c = PlaneCurve(parse_poly(ftext))
        for _ in range(targets):
            target = c.reduce(rand_poly(rng, variables=("x", "y"), max_degree=5))
            d = two_bracket_plane(c, target)
            assert d.length <= 2
            assert recombine(d).coeff == target


def test_two_bracket_plane_wrong_curve():
    with pytest.raises(CurveMismatch):
        two_bracket_plane(plane(), AffineLine().one())
    a, b = plane(), PlaneCurve(parse_poly("y^2 - x^3 + x + 1"))
    with pytest.raises(CurveMismatch):
        two_bracket_plane(a, b.one())


def test_plane_cofactor_syzygy_perturbation(rand_poly):
    # shifting the certificate by a syzygy (c_P, c_Q) -> (c_P + sQ, c_Q - sP)
    # leaves the construction valid; the decomposition is not tied to one
    # particular certificate
    rng = random.Random(9203)
    c = plane()
    p_comp, q_comp = c.tau_components
    y = Poly.variable("y")
    gb = buchberger(c.unit_cert.generators, c.order)
    for _ in range(10):
        target = c.reduce(rand_poly(rng, variables=("x", "y"), max_degree=4))
        cert = certificate_from_basis(target.poly, gb)
        s = rand_poly(rng, variables=("x", "y"), max_degree=2)
        c_p = cert.cofactors[0] + s * q_comp
        c_q = cert.cofactors[1] - s * p_comp
        r, g = solve_rgh([c_p, c_q], ("y",))
        f = r - y * g
        d = BracketDecomp(c, (
            (VField(c.one()), VField(c.reduce(f))),
            (VField(c.reduce(y)), VField(c.reduce(g)))))
        assert recombine(d).coeff == target


# -- space curves -------------------------------------------------------------------

def test_three_bracket_space_example():
    c = twisted_cubic()
    target = c.reduce(parse_poly("x"))
    d = three_bracket_space(c, target)
    # certificate is immediate (P = 1), so one pair survives: [tau, x^2/2 tau]
    assert d.length == 1
    (u, v), = d.pairs
    assert u == VField(c.one())
    assert v == VField(c.reduce(parse_poly("1/2*x^2")))
    assert recombine(d).coeff == target


def test_three_bracket_space_zero_target():
    assert three_bracket_space(twisted_cubic(), twisted_cubic().zero()).length == 0


def test_three_bracket_space_random(rand_poly):
    rng = random.Random(9204)
    curves = [
        twisted_cubic(),
        SpaceCurve([parse_poly("y^2 - x^3 - x"), parse_poly("z")],
                   [parse_poly("2y"), parse_poly("3x^2 + 1"), Poly.zero()]),
    ]
    for c in curves:
        for _ in range(15):
            target = c.reduce(rand_poly(rng, variables=("x", "y", "z"), max_degree=4))
            d = three_bracket_space(c, target)
            assert d.length <= 3
            assert recombine(d).coeff == target


def test_three_bracket_space_trace():
    c = twisted_cubic()
    d = three_bracket_space(c, c.reduce(parse_poly("x")), trace=True)
    assert len(d.trace["membership_cofactors"]) == 5
    assert "h" in d.trace


def test_three_bracket_space_wrong_curve():
    with pytest.raises(CurveMismatch):
        three_bracket_space(plane(), plane().one())
    other = SpaceCurve([parse_poly("y^2 - x^3 - x"), parse_poly("z")],
                       [parse_poly("2y"), parse_poly("3x^2 + 1"), Poly.zero()])
    with pytest.raises(CurveMismatch):
        three_bracket_space(twisted_cubic(), other.one())


# -- the shared certificate construction ----------------------------------------------

@pytest.mark.parametrize("curve, decompose, used, traced", [
    (plane, two_bracket_plane, 2, 3),
    (twisted_cubic, three_bracket_space, 3, 5),
])
def test_untraced_construction_scales_only_the_cofactors_it_solves_with(
        monkeypatch, curve, decompose, used, traced):
    # solve_rgh reads the cofactors of x, y (and z); the F or generator
    # cofactors are scaled by the target only for a trace
    seen = []
    solve = dec.solve_rgh
    monkeypatch.setattr(dec, "solve_rgh", lambda cofs, coords: seen.append(len(cofs))
                        or solve(cofs, coords))
    c = curve()
    target = c.reduce(parse_poly("x^2 + y"))
    plain, shown = decompose(c, target), decompose(c, target, trace=True)
    assert seen == [used, traced]
    assert plain.pairs == shown.pairs


def test_trace_cofactors_match_basis_certificate(rand_poly):
    # the cofactors are the target times the stored unit row, which is what a
    # division by the basis (1) of the certificate's generators gives
    rng = random.Random(9207)
    corpus = [(c, ("x", "y"), two_bracket_plane) for c in _plane_corpus()]
    corpus += [(c, ("x", "y", "z"), three_bracket_space) for c in _space_corpus()]
    for curve, variables, decompose in corpus:
        gb = buchberger(curve.unit_cert.generators, curve.order)
        for _ in range(10):
            target = curve.reduce(rand_poly(rng, variables=variables, max_degree=6,
                                            nonzero=True))
            if target.is_zero():
                continue
            cert = certificate_from_basis(target.poly, gb)
            trace = decompose(curve, target, trace=True).trace
            assert trace["membership_cofactors"] == [str(c) for c in cert.cofactors]
            assert trace["membership_generators"] == [str(g) for g in cert.generators]


def test_each_bracket_computed_once(monkeypatch, rand_poly):
    calls = {"bracket": 0, "recombine": 0, "solve_rgh": 0}
    recombined = []

    def counting(name):
        fn = getattr(dec, name)

        def wrapped(*args):
            calls[name] += 1
            if name == "recombine":
                recombined.append(args[0])
            return fn(*args)
        return wrapped

    monkeypatch.setattr(dec, "bracket", counting("bracket"))
    monkeypatch.setattr(dec, "recombine", counting("recombine"))
    monkeypatch.setattr(dec, "solve_rgh", counting("solve_rgh"))

    built = []

    def recording(check):
        def wrapped(self):
            built.append(type(self).__name__)
            check(self)
        return wrapped

    for cls in (MembershipCertificate, GroebnerBasis):
        monkeypatch.setattr(cls, "__post_init__", recording(cls.__post_init__))

    def count(decompose, *args):
        calls.update(bracket=0, recombine=0, solve_rgh=0)
        recombined.clear()
        built.clear()
        decompose(*args)
        return dict(calls)

    rng = random.Random(9208)
    cases = ((plane(), ("x", "y"), 2, two_bracket_plane),
             (twisted_cubic(), ("x", "y", "z"), 3, three_bracket_space))
    for curve, variables, lifts, decompose in cases:
        for _ in range(10):
            target = curve.reduce(rand_poly(rng, variables=variables, max_degree=5,
                                            nonzero=True))
            if target.is_zero():
                continue
            assert count(decompose, curve, target) == \
                {"bracket": lifts, "recombine": 0, "solve_rgh": 1}
            # the curve's unit certificate is scaled, neither rebuilt nor rechecked
            assert built == []
        assert count(decompose, curve, curve.zero()) == \
            {"bracket": 0, "recombine": 0, "solve_rgh": 0}
    # the line and the localized line take the same path with no extra coordinate
    line = AffineLine()
    assert count(single_bracket_line, line.reduce(parse_poly("x^2 + 3"))) == \
        {"bracket": 1, "recombine": 0, "solve_rgh": 1}
    assert built == []
    assert count(single_bracket_line, line.zero()) == \
        {"bracket": 0, "recombine": 0, "solve_rgh": 0}
    f = parse_poly("x^2 - 1")
    loc = LocalizedLine(f)
    for m in range(4):
        assert count(rational_decompose, f, loc.elem(parse_poly("x + 3"), m)) == \
            {"bracket": 1, "recombine": 0, "solve_rgh": 1}
        assert built == []
    assert count(rational_decompose, f, loc.zero()) == \
        {"bracket": 0, "recombine": 0, "solve_rgh": 0}
    # localize_decomp recombines its input once, for the target, and
    # brackets each localized pair once
    given = BracketDecomp(line, tuple(
        (VField(line.reduce(parse_poly(a))), VField(line.reduce(parse_poly(b))))
        for a, b in (("x", "x^2"), ("1", "x^3 - x"), ("x + 1", "2"))))
    for k in range(3):
        assert count(localize_decomp, given, f, k) == \
            {"bracket": 3, "recombine": 1, "solve_rgh": 0}
        assert recombined == [given]


def test_non_unit_decomposition_basis_fails(monkeypatch):
    # a certificate of 2 in place of 1 presents twice the target, which the
    # decomposer's one comparison with the target rejects
    def doubled(unit):
        return MembershipCertificate(
            Poly.constant(2), unit.generators, tuple(u * 2 for u in unit.cofactors))

    for c, decompose in ((plane(), two_bracket_plane), (twisted_cubic(), three_bracket_space)):
        monkeypatch.setattr(c, "unit_cert", doubled(c.unit_cert))
        with pytest.raises(CertificateFailure):
            decompose(c, c.one())
    # the line and the localized line use the line's class-level certificate
    monkeypatch.setattr(AffineLine, "unit_cert", doubled(AffineLine.unit_cert))
    with pytest.raises(CertificateFailure):
        single_bracket_line(AffineLine().one())
    loc = LocalizedLine(parse_poly("x"))
    with pytest.raises(CertificateFailure):
        rational_decompose(parse_poly("x"), loc.elem(Poly.one(), 3))


# -- localization ----------------------------------------------------------------------

def test_localize_decomp_example():
    line = AffineLine()
    d = single_bracket_line(line.one())
    out = localize_decomp(d, parse_poly("x"), 1)
    loc = LocalizedLine(parse_poly("x"))
    (u, v), = out.pairs
    assert u.coeff == loc.elem(Poly.one(), 1)
    assert v.coeff == loc.elem(Poly.one(), 0)
    assert recombine(out).coeff == loc.elem(Poly.one(), 2)


def test_localize_decomp_k_zero_keeps_values():
    line = AffineLine()
    d = single_bracket_line(line.reduce(parse_poly("x^3 - 2x")))
    out = localize_decomp(d, parse_poly("x^2 - 1"), 0)
    assert out.length == d.length
    assert recombine(out).coeff == LocalizedLine(parse_poly("x^2 - 1")).reduce(
        parse_poly("x^3 - 2x"))


def test_localize_decomp_preserves_length(rand_poly):
    rng = random.Random(9205)
    line = AffineLine()
    for _ in range(20):
        pairs = tuple(
            (VField(line.reduce(rand_poly(rng, variables=("x",), max_degree=3))),
             VField(line.reduce(rand_poly(rng, variables=("x",), max_degree=3))))
            for _ in range(rng.randint(1, 4)))
        d = BracketDecomp(line, pairs)
        k = rng.randint(0, 3)
        out = localize_decomp(d, parse_poly("x^2 - 1"), k)
        assert out.length == d.length
        g = recombine(d).coeff.poly
        assert recombine(out).coeff == LocalizedLine(parse_poly("x^2 - 1")).elem(g, 2 * k)


def test_localize_decomp_validation():
    line = AffineLine()
    d = single_bracket_line(line.one())
    with pytest.raises(ValueError, match="nonnegative"):
        localize_decomp(d, parse_poly("x"), -1)
    for k in (1.9, 2.0, "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            localize_decomp(d, parse_poly("x"), k)
    loc_pairs = localize_decomp(d, parse_poly("x"), 1)
    with pytest.raises(CurveMismatch):
        localize_decomp(loc_pairs, parse_poly("x"), 1)


# -- rational curves ----------------------------------------------------------------------

def test_rational_decompose_example():
    loc = LocalizedLine(parse_poly("x"))
    target = loc.elem(Poly.one(), 2)
    d = rational_decompose(parse_poly("x"), target, trace=True)
    assert d.length == 1
    assert recombine(d).coeff == target
    assert d.trace["k"] == 1


def test_rational_decompose_zero():
    loc = LocalizedLine(parse_poly("x"))
    assert rational_decompose(parse_poly("x"), loc.zero()).length == 0


def test_rational_decompose_polynomial_part():
    # m = 0 still goes through the line construction with k = 0
    loc = LocalizedLine(parse_poly("x^2 - 1"))
    target = loc.reduce(parse_poly("x^4 - 3"))
    d = rational_decompose(parse_poly("x^2 - 1"), target)
    assert d.length == 1 and recombine(d).coeff == target


def test_rational_decompose_random(rand_poly):
    rng = random.Random(9206)
    for ftext in ("x", "x^3 - x"):
        f = parse_poly(ftext)
        loc = LocalizedLine(f)
        for _ in range(20):
            num = rand_poly(rng, variables=("x",), max_degree=4)
            target = loc.elem(num, rng.randint(0, 5))
            d = rational_decompose(f, target)
            assert d.length <= 1
            assert recombine(d).coeff == target


def test_rational_decompose_mismatched_denominator():
    loc = LocalizedLine(parse_poly("x"))
    with pytest.raises(ValueError):
        rational_decompose(parse_poly("x^2 - 1"), loc.elem(Poly.one(), 1))
    with pytest.raises(CurveMismatch):
        rational_decompose(parse_poly("x"), AffineLine().one())


# -- an independent oracle for the line and the localized line ------------------------------

_X = sympy.Symbol("x")


def _to_sympy(elem):
    """A line or localized-line element as a sympy rational function of x."""
    def poly(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * _X**e for (e, _, _), c
                    in p.terms), sympy.Integer(0))
    if isinstance(elem, LocalizedElem):
        return poly(elem.numerator) / poly(elem.curve.denominator) ** elem.exponent
    return poly(elem.poly)


def _sympy_field(decomp):
    """sum of a b' - b a' over the pairs: the field they present, tau = d/dx."""
    total = sympy.Integer(0)
    for u, v in decomp.pairs:
        a, b = _to_sympy(u.coeff), _to_sympy(v.coeff)
        total += a * sympy.diff(b, _X) - b * sympy.diff(a, _X)
    return total


def test_line_decomposers_match_sympy(rand_poly):
    rng = random.Random(9209)
    line = AffineLine()
    for _ in range(15):
        target = line.reduce(rand_poly(rng, variables=("x",), max_degree=6,
                                       max_denominator=5))
        d = single_bracket_line(target)
        assert d.length <= 1
        assert sympy.cancel(_sympy_field(d) - _to_sympy(target)) == 0
    # squarefree and repeated-root denominators
    for ftext in ("x", "x^3 - x", "(x - 1)^2*(x + 2)", "x^2", "(x^2 + 1)^3"):
        f = parse_poly(ftext)
        loc = LocalizedLine(f)
        for _ in range(6):
            num = rand_poly(rng, variables=("x",), max_degree=4, max_denominator=3)
            target = loc.elem(num, rng.randint(0, 5))
            d = rational_decompose(f, target)
            assert d.length <= 1
            assert sympy.cancel(_sympy_field(d) - _to_sympy(target)) == 0
