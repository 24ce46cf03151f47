"""Acceptance gate: one test per criterion, exact tolerance-zero checks.

Every test prints one PASS line with its measured values once its
assertions hold; a failing assertion turns that criterion's line into a
pytest FAILED report instead.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import bracketdec as bd

HYPERELLIPTIC_H = ("x^3 + x", "x^3 - x + 1", "x^5 + x + 1", "x^5 - x", "x^7 + x + 1")
RATIONAL_F = ("x", "x^2 - 1", "x^3 - x", "x(x - 1)(x - 2)(x - 3)")


def _plane_corpus():
    return [bd.PlaneCurve(bd.parse_poly(f"y^2 - ({h})")) for h in HYPERELLIPTIC_H]


def _space_corpus():
    curves = [bd.SpaceCurve(
        [bd.parse_poly("y - x^2"), bd.parse_poly("z - x^3")],
        [bd.parse_poly("1"), bd.parse_poly("2x"), bd.parse_poly("3x^2")])]
    for htext in ("x^3 + x", "x^5 + x + 1"):
        eq = bd.parse_poly(f"y^2 - ({htext})")
        curves.append(bd.SpaceCurve(
            [eq, bd.parse_poly("z")],
            [bd.partial_derivative(eq, "y"), -bd.partial_derivative(eq, "x"),
             bd.Poly.zero()]))
    return curves


# -- criterion 1: plane-curve bound ------------------------------------------------

def test_criterion_1_plane_two_brackets(rand_poly):
    rng = random.Random(20101)
    worst = 0.0
    for curve in _plane_corpus():
        t0 = time.perf_counter()
        for _ in range(100):
            lift = rand_poly(rng, variables=("x", "y"), max_degree=6, max_terms=8)
            target = curve.reduce(lift)
            d = bd.two_bracket_plane(curve, target)
            assert d.length <= 2
            assert bd.recombine(d).coeff == target
        worst = max(worst, time.perf_counter() - t0)
    print(f"\nPASS criterion 1: 5 hyperelliptic curves x 100 targets, "
          f"length <= 2, exact recombination (worst curve {worst:.2f}s)")


# -- criterion 2: space-curve bound ------------------------------------------------

def test_criterion_2_space_three_brackets(rand_poly):
    rng = random.Random(20102)
    worst = 0.0
    for curve in _space_corpus():
        t0 = time.perf_counter()
        for _ in range(100):
            lift = rand_poly(rng, variables=("x", "y", "z"), max_degree=6, max_terms=8)
            target = curve.reduce(lift)
            d = bd.three_bracket_space(curve, target)
            assert d.length <= 3
            assert bd.recombine(d).coeff == target
        worst = max(worst, time.perf_counter() - t0)
    print(f"\nPASS criterion 2: twisted cubic + 2 embedded plane curves x 100 "
          f"targets, length <= 3, exact recombination (worst curve {worst:.2f}s)")


# -- criterion 3: rational-curve width one ------------------------------------------

def test_criterion_3_rational_width_one(rand_poly):
    rng = random.Random(20103)
    worst = 0.0
    for ftext in RATIONAL_F:
        f = bd.parse_poly(ftext)
        line = bd.LocalizedLine(f)
        t0 = time.perf_counter()
        for _ in range(100):
            num = rand_poly(rng, variables=("x",), max_degree=4)
            target = line.elem(num, rng.randint(0, 5))
            d = bd.rational_decompose(f, target)
            assert d.length <= 1
            assert bd.recombine(d).coeff == target
        worst = max(worst, time.perf_counter() - t0)
    print(f"\nPASS criterion 3: 4 denominators x 100 targets p/f^m (m <= 5), "
          f"length <= 1, exact recombination (worst f {worst:.2f}s)")


# -- criterion 4: localization preserves length --------------------------------------

def test_criterion_4_localization_preserves_length(rand_poly):
    rng = random.Random(20104)
    line = bd.AffineLine()
    pool = [bd.parse_poly(t) for t in ("x", "x^2 - 1", "x^3 - x", "x^2 + 1")]
    for _ in range(100):
        pairs = tuple(
            (bd.VField(line.reduce(rand_poly(rng, variables=("x",), max_degree=3))),
             bd.VField(line.reduce(rand_poly(rng, variables=("x",), max_degree=3))))
            for _ in range(rng.randint(1, 4)))
        d = bd.BracketDecomp(line, pairs)
        f = rng.choice(pool)
        k = rng.randint(0, 3)
        out = bd.localize_decomp(d, f, k)
        assert out.length == d.length
        g = bd.recombine(d).coeff.poly
        assert bd.recombine(out).coeff == bd.LocalizedLine(f).elem(g, 2 * k)
    print("\nPASS criterion 4: 100 line decompositions (lengths 1-4) localized, "
          "length preserved, recombines to g/f^(2k) exactly")


# -- criterion 5: smoothness vs independent univariate gcd oracle ---------------------

def _strip(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _list_mod(a, b):
    a = a[:]
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        off = len(a) - len(b)
        for i, bc in enumerate(b):
            a[off + i] -= q * bc
        a.pop()
        _strip(a)
    return a


def _list_gcd(a, b):
    a, b = _strip(a[:]), _strip(b[:])
    while b:
        a, b = b, _list_mod(a, b)
    return a


def _oracle_smooth(h) -> bool:
    """gcd(h, h') is a nonzero constant, by plain list-based Euclid."""
    coeffs = [Fraction(0)] * (h.degree_in("x") + 1)
    for (ex, _, _), c in h.terms:
        coeffs[ex] = c
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    return len(_list_gcd(coeffs, deriv)) == 1


def _certified_smooth(F) -> bool:
    """A PlaneCurve is built exactly when its smoothness certificate exists."""
    try:
        bd.PlaneCurve(F)
    except bd.NotSmooth:
        return False
    return True


def test_criterion_5_smoothness_matches_gcd_oracle(rand_poly):
    rng = random.Random(20105)
    y2 = bd.parse_poly("y^2")
    checked = smooth_count = 0
    for i in range(200):
        if i % 5 == 2:
            # force a repeated root so singular cases are well represented
            t = rand_poly(rng, variables=("x",), max_degree=2, nonzero=True)
            s = rand_poly(rng, variables=("x",), max_degree=5)
            h = t * t * s
        else:
            h = rand_poly(rng, variables=("x",), max_degree=9, max_terms=10)
        got = _certified_smooth(y2 - h)
        expected = _oracle_smooth(h)
        assert got == expected, f"disagreement at h = {h}"
        checked += 1
        smooth_count += got
    print(f"\nPASS criterion 5: {checked} random y^2 - h(x) (deg h <= 9), "
          f"the smoothness certificate always matches the gcd oracle "
          f"({smooth_count} smooth / {checked - smooth_count} singular)")


# -- criterion 6: Lie-algebra law suite ------------------------------------------------

def _law_corpus():
    curves = [bd.AffineLine()]
    curves += [bd.LocalizedLine(bd.parse_poly(t)) for t in RATIONAL_F]
    curves += _plane_corpus()
    curves += _space_corpus()
    return curves


def _random_field(rng, curve, rand_poly):
    if isinstance(curve, bd.LocalizedLine):
        num = rand_poly(rng, variables=("x",), max_degree=2, coeff_lo=-5, coeff_hi=5)
        return bd.VField(curve.elem(num, rng.randint(0, 2)))
    if isinstance(curve, bd.AffineLine):
        variables = ("x",)
    elif isinstance(curve, bd.PlaneCurve):
        variables = ("x", "y")
    else:
        variables = ("x", "y", "z")
    lift = rand_poly(rng, variables=variables, max_degree=2,
                     coeff_lo=-5, coeff_hi=5, max_terms=3)
    return bd.VField(curve.reduce(lift))


def test_criterion_6_lie_laws(rand_poly):
    rng = random.Random(20106)
    corpus = _law_corpus()
    t0 = time.perf_counter()
    for curve in corpus:
        zero = bd.VField(curve.zero())
        for _ in range(300):
            u = _random_field(rng, curve, rand_poly)
            v = _random_field(rng, curve, rand_poly)
            assert bd.bracket(u, u) == zero
            assert bd.bracket(u, v) + bd.bracket(v, u) == zero
        for _ in range(100):
            u = _random_field(rng, curve, rand_poly)
            v = _random_field(rng, curve, rand_poly)
            w = _random_field(rng, curve, rand_poly)
            acc = (bd.bracket(u, bd.bracket(v, w))
                   + bd.bracket(v, bd.bracket(w, u))
                   + bd.bracket(w, bd.bracket(u, v)))
            assert acc == zero
        for _ in range(100):
            u = _random_field(rng, curve, rand_poly)
            v = _random_field(rng, curve, rand_poly)
            w = _random_field(rng, curve, rand_poly)
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            assert bd.bracket(a * u + b * v, w) == \
                a * bd.bracket(u, w) + b * bd.bracket(v, w)
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion 6: antisymmetry 300 + Jacobi 100 + bilinearity 100 "
          f"per curve on {len(corpus)} corpus curves, zero violations "
          f"({elapsed:.2f}s total)")


# -- criterion 7: Groebner soundness ----------------------------------------------------

def test_criterion_7_groebner_soundness(rand_poly):
    rng = random.Random(20107)
    pool = []
    for _ in range(15):
        pool.append([rand_poly(rng, variables=("x", "y"), max_degree=3,
                               coeff_lo=-4, coeff_hi=4, max_terms=4, nonzero=True)
                     for _ in range(rng.randint(1, 3))])
    for _ in range(10):
        pool.append([rand_poly(rng, variables=("x", "y", "z"), max_degree=2,
                               coeff_lo=-3, coeff_hi=3, max_terms=3, nonzero=True)
                     for _ in range(rng.randint(1, 2))])
    bases = [(gens, bd.buchberger(gens)) for gens in pool]
    cases = certs = 0
    for round_ in range(20):
        for gens, gb in bases:
            p = rand_poly(rng, variables=("x", "y", "z"), max_degree=3,
                          coeff_lo=-5, coeff_hi=5)
            q = rand_poly(rng, variables=("x", "y", "z"), max_degree=3,
                          coeff_lo=-5, coeff_hi=5)
            np_, nq = bd.normal_form(p, gb), bd.normal_form(q, gb)
            assert bd.normal_form(np_, gb) == np_
            assert bd.normal_form(p + q, gb) == np_ + nq
            assert bd.normal_form(p * q, gb) == bd.normal_form(np_ * nq, gb)
            # a constructed member must certify, and the certificate must
            # recombine to the target exactly
            member = sum((c * g for c, g in
                          zip((p, q, np_), gens)), bd.Poly.zero())
            cert = bd.certificate_from_basis(member, gb)
            assert cert is not None
            acc = bd.Poly.zero()
            for c, g in zip(cert.cofactors, cert.generators):
                acc = acc + c * g
            assert acc == member
            cases += 1
            certs += 1
    assert cases == 500
    print(f"\nPASS criterion 7: {cases} normal-form idempotence/congruence cases "
          f"and {certs} membership certificates recombined exactly")


# -- criterion 8: lower bounds documented out of scope -----------------------------------

def test_criterion_8_lower_bounds_documented_out_of_scope():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "upper bounds only" in text.lower()
    assert "lower bound" in text.lower()
    print("\nPASS criterion 8: README documents that the suite certifies "
          "upper bounds only; width lower bounds are out of scope")
