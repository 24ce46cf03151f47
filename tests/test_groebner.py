import functools
import hashlib
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketdec.curve import PlaneCurve, SpaceCurve, parse_curve
from bracketdec.errors import (
    DoesNotPreserveIdeal,
    NotSmooth,
    StepBudgetExceeded,
    ValidationError,
)
from bracketdec.groebner import (
    DEFAULT_MAX_STEPS,
    GroebnerBasis,
    MembershipCertificate,
    buchberger,
    certificate_from_basis,
    normal_form,
    unit_certificate,
)
from bracketdec.poly import (
    MonomialOrder,
    Poly,
    StepBudget,
    _remainder,
    _sum_of_products,
    divide_multivariate,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    parse_poly,
    partial_derivative,
)

LEX = MonomialOrder.LEX
GRLEX = MonomialOrder.GRLEX

X, Y, Z = sympy.symbols("x y z")


def to_sympy(p: Poly):
    expr = sympy.Integer(0)
    for (ex, ey, ez), c in p.terms:
        expr += sympy.Rational(c.numerator, c.denominator) * X**ex * Y**ey * Z**ez
    return sympy.expand(expr)


def sympy_basis(gens, order=LEX):
    name = "lex" if order is LEX else "grlex"
    # symbol order (z, y, x) matches the package's elimination convention;
    # sympy clears integer content, so renormalize monic before comparing
    gb = sympy.groebner([to_sympy(g) for g in gens], Z, Y, X, order=name)
    out = set()
    for e in gb.exprs:
        lc = sympy.Poly(e, Z, Y, X).LC(order=name)
        out.add(sympy.expand(e / lc))
    return out


@functools.cache
def _sympy_groebner(gens: tuple, order):
    name = "lex" if order is LEX else "grlex"
    # over QQ, so dividends with denominators reduce too
    return sympy.groebner([to_sympy(g) for g in gens], Z, Y, X, order=name, domain="QQ")


def sympy_normal_form(p, gens, order=LEX):
    return sympy.expand(_sympy_groebner(tuple(gens), order).reduce(to_sympy(p))[1])


# -- frozen examples ----------------------------------------------------------

def test_basis_simple():
    gb = buchberger([parse_poly("x"), parse_poly("y")])
    assert {str(b) for b in gb.basis} == {"x", "y"}


def test_jacobian_unit_ideal():
    F = parse_poly("y^2 - x^3 - x")
    gb = buchberger([F, partial_derivative(F, "x"), partial_derivative(F, "y")])
    assert gb.basis == (Poly.one(),)
    assert [str(b) for b in gb.basis] == ["1"]


def test_cusp_jacobian():
    F = parse_poly("y^2 - x^3")
    gb = buchberger([F, partial_derivative(F, "x"), partial_derivative(F, "y")])
    assert {str(b) for b in gb.basis} == {"x^2", "y"}
    assert gb.basis != (Poly.one(),)


def test_normal_form_examples():
    gb = buchberger([parse_poly("y^2 - x^3 - x")])
    assert normal_form(parse_poly("y^2"), gb) == parse_poly("x^3 + x")
    assert normal_form(parse_poly("x + 1"), gb) == parse_poly("x + 1")
    tw = buchberger([parse_poly("y - x^2"), parse_poly("z - x^3")])
    assert normal_form(parse_poly("y"), tw) == parse_poly("x^2")
    assert normal_form(parse_poly("z^2"), tw) == parse_poly("x^6")


def test_zero_generators_dropped():
    gb = buchberger([Poly.zero(), parse_poly("x")])
    assert [str(b) for b in gb.basis] == ["x"]
    # cofactor row still aligned with both generators
    assert len(gb.rows[0].cofactors) == 2
    assert gb.rows[0].cofactors[0].is_zero()
    # the zero ideal has an empty basis: nothing reduces and nothing nonzero is a member
    zero = buchberger([Poly.zero()])
    assert zero.basis == () and zero.rows == ()
    p = parse_poly("x y + 1")
    assert normal_form(p, zero, StepBudget(0)) == p
    assert certificate_from_basis(p, zero) is None
    with pytest.raises(ValueError, match="nonempty"):
        buchberger([])


def test_deterministic():
    gens = [parse_poly("x^2 + y"), parse_poly("x*y + x"), parse_poly("y^2 - 1")]
    assert buchberger(gens) == buchberger(gens)


# -- certificate plumbing -------------------------------------------------------

def test_certificate_recombines_euclid_identity():
    # 1 = (3x^2+1)(1 + 3/2 x^2) - 9/2 x (x^3+x), folded through y^2 = x^3 + x
    F = parse_poly("y^2 - x^3 - x")
    gens = (F, parse_poly("-3x^2 - 1"), parse_poly("2y"))
    cofs = (parse_poly("9/2*x"),
            parse_poly("-(1 + 3/2x^2)"),
            parse_poly("-9/4*x*y"))
    cert = MembershipCertificate(Poly.one(), gens, cofs)
    assert cert.target == Poly.one()


def test_certificate_rejects_bad_cofactors():
    gens = (parse_poly("x"),)
    with pytest.raises(ValueError):
        MembershipCertificate(Poly.one(), gens, (parse_poly("1"),))
    with pytest.raises(ValueError, match="one cofactor per generator"):
        MembershipCertificate(Poly.zero(), gens, ())


def test_groebner_basis_rejects_bad_cofactor_row():
    x = parse_poly("x")
    with pytest.raises(ValueError):
        GroebnerBasis((x,), (MembershipCertificate(x, (x,), (parse_poly("2"),)),), LEX)
    # a row certified over other generators is not a row of this basis
    row = MembershipCertificate(x, (x, parse_poly("y")), (Poly.one(), Poly.zero()))
    with pytest.raises(ValueError):
        GroebnerBasis((x,), (row,), LEX)


def test_membership_examples():
    def membership(target, generators):
        return certificate_from_basis(target, buchberger(generators))

    assert membership(parse_poly("x"), [parse_poly("y")]) is None
    cert = membership(parse_poly("x^2*y + y"), [parse_poly("y")])
    assert cert is not None and cert.cofactors[0] == parse_poly("x^2 + 1")
    zero_cert = membership(Poly.zero(), [parse_poly("x")])
    assert zero_cert is not None and all(c.is_zero() for c in zero_cert.cofactors)


def test_membership_cofactors_against_original_generators():
    rng = random.Random(8101)
    from bracketdec.poly import parse_poly as pp
    gens = [pp("y^2 - x^3 - x"), pp("2y"), pp("-3x^2 - 1")]
    gb = buchberger(gens)
    assert gb.basis == (Poly.one(),)
    for _ in range(20):
        coeff = rng.randint(-9, 9)
        target = pp(f"({coeff}) * (x^2 + y)") if coeff else Poly.zero()
        cert = certificate_from_basis(target, gb)
        assert cert is not None
        assert cert.generators == tuple(gens)


# -- smoothness -----------------------------------------------------------------

def _jacobian(F):
    return (F, partial_derivative(F, "x"), partial_derivative(F, "y"))


def test_plane_smoothness_examples():
    def smooth(text):
        try:
            PlaneCurve(parse_poly(text))
        except NotSmooth:
            return False
        return True

    assert smooth("y^2 - x^3 - x")
    assert not smooth("y^2 - x^3")
    assert smooth("y - x^2")
    assert not smooth("x*y")


def test_smoothness_certificate_contents():
    F = parse_poly("y^2 - x^3 - x")
    cert = unit_certificate(_jacobian(F), LEX, DEFAULT_MAX_STEPS)
    assert cert is not None
    assert cert.target == Poly.one()
    assert cert.generators == _jacobian(F)
    assert cert == PlaneCurve(F).smooth_cert
    assert unit_certificate(_jacobian(parse_poly("y^2 - x^3")), LEX, DEFAULT_MAX_STEPS) is None


# -- ideal preservation -----------------------------------------------------------

def test_space_curve_ideal_preservation_examples():
    # SpaceCurve construction is the ideal-preservation check
    F = parse_poly("y^2 - x^3 - x")
    ham = (partial_derivative(F, "y"), -partial_derivative(F, "x"))
    SpaceCurve([F], ham)
    tw = [parse_poly("y - x^2"), parse_poly("z - x^3")]
    SpaceCurve(tw, (parse_poly("1"), parse_poly("2x"), parse_poly("3x^2")))
    with pytest.raises(DoesNotPreserveIdeal):
        SpaceCurve(tw, (parse_poly("0"), parse_poly("1"), parse_poly("0")))
    with pytest.raises(ValidationError):
        SpaceCurve(tw, (parse_poly("1"),))


# -- budget -----------------------------------------------------------------------

def test_buchberger_budget():
    gens = [parse_poly("x^2 + y"), parse_poly("x*y + x")]
    with pytest.raises(StepBudgetExceeded):
        buchberger(gens, max_steps=2)
    with pytest.raises(ValueError, match="step budget must be an integer"):
        buchberger(gens, max_steps=2.5)
    gb = buchberger(gens)
    assert gb.basis


# -- cross-checks against sympy ----------------------------------------------------

def _ideal_pool(rand_poly, seed=8102, max_denominator=1):
    """Random ideals that stay cheap under lex: dense in 2 vars, sparse in 3."""
    rng = random.Random(seed)
    pool = []
    for _ in range(15):
        gens = [rand_poly(rng, variables=("x", "y"), max_degree=3, coeff_lo=-4, coeff_hi=4,
                          max_terms=4, nonzero=True, max_denominator=max_denominator)
                for _ in range(rng.randint(1, 3))]
        pool.append(gens)
    for _ in range(10):
        gens = [rand_poly(rng, variables=("x", "y", "z"), max_degree=2, coeff_lo=-3, coeff_hi=3,
                          max_terms=3, nonzero=True, max_denominator=max_denominator)
                for _ in range(rng.randint(1, 2))]
        pool.append(gens)
    return pool


def _reference_buchberger(generators, order, criteria=False):
    """Reference loop: scan every pair for the least (lcm key, i, j) on each
    iteration and recompute leading terms from the polynomials.

    With criteria=True, each element joining the basis (generators
    included) filters the pairs by the Gebauer-Moeller criteria, written
    as plain scans: B on the waiting pairs, then M, F and the coprime rule
    on the new pairs.  Without them, only coprime pairs are skipped, when
    popped.  Returns the basis and the number of reduction steps it spent.
    """
    gens = tuple(generators)
    budget = StepBudget(10**6)
    ngen = len(gens)
    polys, rows, pairs = [], [], []

    def lm(i):
        return polys[i].leading_monomial(order)

    def lcm(i, j):
        return mono_lcm(lm(i), lm(j))

    def join(p, row):
        polys.append(p)
        rows.append(row)
        t = len(polys) - 1
        new = [(k, t) for k in range(t)]
        if criteria:
            pairs[:] = [(i, j) for i, j in pairs
                        if not (mono_divides(lm(t), lcm(i, j)) and lcm(i, t) != lcm(i, j)
                                and lcm(j, t) != lcm(i, j))]
            new = [(k, t) for k, _ in new
                   if not any(lcm(k2, t) != lcm(k, t) and mono_divides(lcm(k2, t), lcm(k, t))
                              for k2 in range(t))]
            survivors = new
            new = []
            for k, _ in survivors:
                same = [k2 for k2, _ in survivors if lcm(k2, t) == lcm(k, t)]
                if k == min(same) and not any(mono_coprime(lm(k2), lm(t)) for k2 in same):
                    new.append((k, t))
        pairs.extend(new)

    for j, g in enumerate(gens):
        if not g.is_zero():
            join(g, tuple(Poly.one() if t == j else Poly.zero() for t in range(ngen)))

    def combination(base, quotients, qrows):
        out = list(base)
        for q, row in zip(quotients, qrows):
            out = [r - q * c for r, c in zip(out, row)]
        return tuple(out)

    def pair_key(pair):
        i, j = pair
        return (order.key(lcm(i, j)), i, j)

    while pairs:
        i, j = pairs.pop(min(range(len(pairs)), key=lambda k: pair_key(pairs[k])))
        lmi, lci = polys[i].leading_term(order)
        lmj, lcj = polys[j].leading_term(order)
        if mono_coprime(lmi, lmj):
            continue
        ui = Poly.monomial(mono_div(lcm(i, j), lmi), 1 / lci)
        uj = Poly.monomial(mono_div(lcm(i, j), lmj), 1 / lcj)
        s = ui * polys[i] - uj * polys[j]
        if s.is_zero():
            continue
        quotients, rem = divide_multivariate(s, polys, order, budget)
        if rem.is_zero():
            continue
        row = combination([ui * a - uj * b for a, b in zip(rows[i], rows[j])], quotients, rows)
        inv = 1 / rem.leading_term(order)[1]
        join(rem * inv, tuple(r * inv for r in row))

    kept = []
    by_lm = sorted(range(len(polys)), key=lambda i: (order.key(lm(i)), i))
    for i in by_lm:
        if not any(mono_divides(lm(k), lm(i)) for k in kept):
            kept.append(i)
    final = []
    for i in kept:
        others = [k for k in kept if k != i]
        rem, row = polys[i], rows[i]
        if others:
            quotients, rem = divide_multivariate(rem, [polys[k] for k in others], order, budget)
            row = combination(row, quotients, [rows[k] for k in others])
        inv = 1 / rem.leading_term(order)[1]
        final.append((rem * inv, tuple(r * inv for r in row)))
    final.sort(key=lambda pr: order.key(pr[0].leading_monomial(order)), reverse=True)
    gb = GroebnerBasis(gens, tuple(MembershipCertificate(p, gens, r) for p, r in final), order)
    return gb, 10**6 - budget.remaining


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_buchberger_matches_reference_loop(order, rand_poly):
    # the pair heap pops pairs in the order of the scan and the criteria drop
    # the same pairs, so the basis, the cofactor rows and the steps spent are
    # all the same as the reference's with criteria; without criteria the
    # reference reduces the dropped pairs to zero, so it reaches the same
    # basis and rows in at least as many steps
    pools = _ideal_pool(rand_poly) + _ideal_pool(rand_poly, seed=8105, max_denominator=12)
    # generators sharing their leading monomial y^3: every pair's lcm ties,
    # so only the (i, j) tie-break orders them
    rng = random.Random(8106)
    for _ in range(10):
        pools.append([Poly.monomial((0, 3, 0), rng.randint(1, 3))
                      + rand_poly(rng, variables=("x", "y"), max_degree=2, max_terms=3)
                      for _ in range(rng.randint(3, 4))])
    fewer = 0
    for gens in pools:
        expected, steps = _reference_buchberger(gens, order, criteria=True)
        assert buchberger(gens, order, max_steps=steps) == expected
        if steps:
            with pytest.raises(StepBudgetExceeded):
                buchberger(gens, order, max_steps=steps - 1)
        plain, plain_steps = _reference_buchberger(gens, order)
        assert plain == expected
        assert plain_steps >= steps
        fewer += plain_steps > steps
    # the criteria must actually drop pairs that would have cost steps
    assert fewer > 0


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_reduced_basis_matches_sympy(order, rand_poly):
    for gens in _ideal_pool(rand_poly):
        mine = {to_sympy(b) for b in buchberger(gens, order).basis}
        assert mine == sympy_basis(gens, order)


# Jacobian ideals (F, F_x, F_y) of plane curves of degree 4 and 5, drawn
# from the smooth and singular families of the curves benchmark workload:
# y^2 or y^3 minus a squarefree h(x), Fermat curves and their shears
# (smooth), and curves with every term of degree two or more at a point
# (singular).
JACOBIAN_CURVES = (
    ("y^2 - (x - 1)*(x + 2)*(x + 3)*(x + 4)", True),
    ("x^4 + (y - 2*x)^4 - 1", True),
    ("y^2 - (x - 2*y + 1)*(x - 2*y + 2)*(x - 2*y - 3)*(x - 2*y - 4)", True),
    ("(y + 1)^2 - (x + 2)^2*(x - 1)*(x + 2)", False),
    ("(y - 2*x^2 - 3*x)^2 - (x + 1)*(x + 2)*(x + 3)*(x + 4)", True),
    ("y^3 - (x - 1)*(x - 2)*(x + 3)*(x - 4)", True),
    ("(y - 1)^3 + (x + 2)^2*(y - 1) + (x + 2)^4 + 5*(x + 2)^2", False),
    ("x^4 + y^4 - 3", True),
    ("y^2 - (x - 1)*(x - 2)*(x - 3)*(x + 4)*(x - 5)", True),
    ("x^5 + (y - x)^5 - 3", True),
    ("y^2 - (x - y + 1)*(x - y - 2)*(x - y + 3)*(x - y - 4)*(x - y - 5)", True),
    ("(y - 1)^2 - (x - 2)^2*(x + 1)*(x + 2)*(x + 3)", False),
    ("(y - x^2 - x)^2 - (x - 1)*(x - 2)*(x + 3)*(x - 4)*(x - 5)", True),
    ("y^3 - (x + 1)*(x - 2)*(x - 3)*(x - 4)*(x + 5)", True),
    ("(y - 1)^3 + (x + 2)^2*(y - 1) + (x + 2)^5 + 5*(x + 2)^2", False),
    ("x^5 + y^5 - 2", True),
    ("y^2 - (x + y + 1)*(x + y - 2)*(x + y + 3)*(x + y + 4)", True),
    ("(y + x^2)^2 - (x + 1)*(x + 2)*(x + 3)*(x - 4)", True),
    ("y^3 - (x + 1)*(x + 2)*(x + 3)*(x + 4)", True),
)


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_jacobian_bases_match_sympy(order):
    for text, smooth in JACOBIAN_CURVES:
        F = parse_poly(text)
        gens = [F, partial_derivative(F, "x"), partial_derivative(F, "y")]
        gb = buchberger(gens, order)
        assert {to_sympy(b) for b in gb.basis} == sympy_basis(gens, order), text
        assert (gb.basis == (Poly.one(),)) == smooth, text


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_unit_certificate_matches_sympy(order, rand_poly):
    # the unit certificate is the basis row of 1: None exactly when sympy's
    # reduced basis is not [1], and otherwise an identity sympy expands to 1
    rng = random.Random(8107)
    name = "lex" if order is LEX else "grlex"
    units = 0
    for _ in range(40):
        gens = [rand_poly(rng, variables=("x", "y", "z"), max_degree=2, coeff_lo=-3,
                          coeff_hi=3, max_terms=3, nonzero=True)
                for _ in range(rng.randint(2, 3))]
        cert = unit_certificate(gens, order, DEFAULT_MAX_STEPS)
        unit = sympy.groebner([to_sympy(g) for g in gens], Z, Y, X, order=name).exprs == [1]
        assert (cert is not None) == unit, gens
        if cert is not None:
            assert cert.generators == tuple(gens)
            total = sum(to_sympy(c) * to_sympy(g) for c, g in zip(cert.cofactors, gens))
            assert sympy.expand(total) == 1, gens
            units += 1
    # both outcomes must be exercised
    assert 0 < units < 40


# SHA-256 of the comma-joined certificate cofactors, as the first version
# with cofactor-row fusion and pair criteria must reproduce them: the
# criteria only drop pairs that reduce to zero, so no certificate changes.
FROZEN_CERTIFICATES = {
    ("plane", "y^2 - (x^3 + x)"):
        "9826723fcf86724b77970e5adeeb5e343ce2a4c72536982eadde1c260bae9e07",
    ("plane", "y^2 - (x^3 - x + 1)"):
        "6b7bdea8125c94e90562671904941904ae93879732b7700b65c13d4bf0da467b",
    ("plane", "y^2 - (x^5 + x + 1)"):
        "4fac2b30df3e3cdc389784abe9e627a625be7efd935af1959362d49cbc2dace2",
    ("plane", "y^2 - (x^5 - x)"):
        "a6153f6ae848777201b376dd70947f4b5baf988d7e3077385ca805f461cabe22",
    ("plane", "y^2 - (x^7 + x + 1)"):
        "a5169562d6c1c1667e8a8358dc81c1cd3e91e447b6bb100a9779c0800bed2abb",
    ("space", "y - x^2; z - x^3 tau 1, 2x, 3x^2"):
        "6366ec3acc4737636b0b2ef3dfd327b97635e0a04a15a64d94d307e5928cdaa0",
    ("space", "y^2 - (x^3 + x); z tau 2y, 3x^2 + 1, 0"):
        "d518dbf47f5c5a86bdc4af6e79c956e0db54d28e65c18aeb2690913673453fc3",
    ("space", "y^2 - (x^5 + x + 1); z tau 2y, 5x^4 + 1, 0"):
        "48a8bacb13ad1b4211490fd6cfcca8159347cf3ff009f1d618fd36c250d7365e",
}
FROZEN_SEXTIC = {
    LEX: "7fe97198f15e1a4c95f1a1f0af6f7cb391844dc77d9788834f0975f93ab5c788",
    GRLEX: "57a6bd347be3bdd51f6f95967023f566d45506c9f18854ea9fbd816373c96d8a",
}


def _cofactor_digest(cert):
    return hashlib.sha256(",".join(str(c) for c in cert.cofactors).encode()).hexdigest()


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_certificates_frozen(order):
    for (kind, text), expected in FROZEN_CERTIFICATES.items():
        curve = parse_curve(f"{kind} {text}", order=order)
        if kind == "plane":
            cert = curve.smooth_cert
        elif order is LEX:
            cert = curve.unit_cert
        else:
            continue
        assert _cofactor_digest(cert) == expected, text
    sextic = parse_curve("plane x^6 + y^6 + 2x^3y + x + y + 1", order=order)
    assert _cofactor_digest(sextic.smooth_cert) == FROZEN_SEXTIC[order]


def test_spolynomial_reduction_invariant(rand_poly):
    # every S-polynomial of basis pairs reduces to zero: the defining property
    from bracketdec.poly import mono_div, mono_lcm
    for gens in _ideal_pool(rand_poly)[:10]:
        gb = buchberger(gens)
        basis = list(gb.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                mi, ci = basis[i].leading_term(LEX)
                mj, cj = basis[j].leading_term(LEX)
                lcm = mono_lcm(mi, mj)
                s = (Poly.monomial(mono_div(lcm, mi), 1 / ci) * basis[i]
                     - Poly.monomial(mono_div(lcm, mj), 1 / cj) * basis[j])
                assert normal_form(s, gb).is_zero()


def test_normal_form_matches_sympy(rand_poly):
    rng = random.Random(8103)
    for gens in _ideal_pool(rand_poly)[:12]:
        gb = buchberger(gens)
        for _ in range(5):
            p = rand_poly(rng, variables=("x", "y", "z"), max_degree=3,
                          coeff_lo=-5, coeff_hi=5)
            assert to_sympy(normal_form(p, gb)) == sympy_normal_form(p, gens)


def test_normal_form_idempotent_and_linear(rand_poly):
    rng = random.Random(8104)
    gb = buchberger([parse_poly("y^2 - x^3 - x")])
    for _ in range(100):
        p = rand_poly(rng, variables=("x", "y"), max_degree=5)
        q = rand_poly(rng, variables=("x", "y"), max_degree=5)
        np_, nq = normal_form(p, gb), normal_form(q, gb)
        assert normal_form(np_, gb) == np_
        assert normal_form(p + q, gb) == np_ + nq
        assert normal_form(p * q, gb) == normal_form(np_ * nq, gb)


# -- fused normal forms of sums of products --------------------------------------

@functools.cache
def _fused_basis(name):
    """The bases the fused normal form is checked on: monic integer bases
    under LEX and GRLEX, and one whose monic basis has Fraction coefficients."""
    if name == "twisted cubic":
        return SpaceCurve([parse_poly("y - x^2"), parse_poly("z - x^3")],
                          [parse_poly("1"), parse_poly("2x"), parse_poly("3x^2")]).gb
    equation, order = {"lex plane": ("y^2 - x^3 - x", LEX),
                       "grlex plane": ("x^4 + y^4 - 1", GRLEX),
                       "fraction plane": ("2y^2 - x^3 - x", LEX)}[name]
    return PlaneCurve(parse_poly(equation), order=order).gb


_FUSED_NAMES = ("twisted cubic", "lex plane", "grlex plane", "fraction plane")


def test_fused_bases_have_integer_and_fraction_coefficients():
    # the division keeps ints over three bases and meets Fractions over one
    integer = [all(c.denominator == 1 for b in _fused_basis(name).basis for _, c in b.terms)
               for name in _FUSED_NAMES]
    assert integer == [True, True, True, False]


@pytest.mark.parametrize("name", _FUSED_NAMES)
def test_fused_normal_form_with_denominators_matches_sympy(name):
    # dividends with denominators on every basis, whatever Hypothesis draws
    gb = _fused_basis(name)
    z = " + 1/7 z^2" if name == "twisted cubic" else ""
    pairs = [(parse_poly(f"1/3 x*y + 1/2{z}"), parse_poly("1/5 y^3 - x^2 + 2/9")),
             (parse_poly("3/4 x^4"), parse_poly("y - 1/6"))]
    fused = _remainder(pairs, gb.basis, gb.order, None)
    assert any(c.denominator > 1 for _, c in fused.terms)
    assert to_sympy(fused) == sympy_normal_form(_sum_of_products(pairs), gb.basis, gb.order)


_coefficients = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def _product_pairs(variables):
    exps = st.tuples(*(st.integers(0, 4) if v in variables else st.just(0) for v in "xyz"))
    poly = st.lists(st.tuples(exps, _coefficients), max_size=5).map(Poly)
    return st.lists(st.tuples(poly, poly), max_size=3)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(_FUSED_NAMES))
def test_fused_normal_form_matches_unfused(data, name):
    gb = _fused_basis(name)
    pairs = data.draw(_product_pairs("xyz" if name == "twisted cubic" else "xy"))
    if pairs and data.draw(st.booleans()):
        # cancel the first product, as a bracket's two products partly do:
        # the kernel's zero sums must spend no step
        pairs.append((pairs[0][1], -pairs[0][0]))
    p = _sum_of_products(pairs)
    budgets = [StepBudget(10**6) for _ in range(3)]
    fused = _remainder(pairs, gb.basis, gb.order, budgets[0])
    assert fused.terms == normal_form(p, gb, budgets[1]).terms
    # the public division still builds the quotients Buchberger's rows read
    quotients, rem = divide_multivariate(p, list(gb.basis), gb.order, budgets[2])
    assert fused.terms == rem.terms
    assert _sum_of_products(zip(quotients, gb.basis)) + rem == p
    assert len({b.remaining for b in budgets}) == 1
    # fused and unfused share one division, so sympy checks the remainder
    assert to_sympy(fused) == sympy_normal_form(p, gb.basis, gb.order)
    steps = 10**6 - budgets[0].remaining
    if steps:
        with pytest.raises(StepBudgetExceeded):
            _remainder(pairs, gb.basis, gb.order, StepBudget(steps - 1))
        with pytest.raises(StepBudgetExceeded):
            normal_form(p, gb, StepBudget(steps - 1))
