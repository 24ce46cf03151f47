"""Constructive bracket decompositions with verified length bounds.

Every field h * tau is a short sum of brackets:

* on the line, one bracket: h tau = [tau, H tau] with H' = h;
* on a smooth plane curve, at most two brackets, from a unit certificate
  1 = c_P P + c_Q Q modulo the curve applied to the target;
* on a space curve with a trivializing derivation, at most three;
* on a localized line, one bracket for numerator / f^m targets, and any
  line decomposition localizes with its length unchanged because
  [a / f^k tau, b / f^k tau] = (1 / f^(2k)) [a tau, b tau].

Every decomposer scales the curve's unit certificate by the target (the
line's is 1 = 1 * 1) and checks nothing on the way: each constructor
compares the field its output presents with the target exactly once and
raises CertificateFailure on any mismatch, a wrong certificate included,
so a returned decomposition is verified, never assumed.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .curve import (
    AffineLine,
    LocalizedElem,
    LocalizedLine,
    PlaneCurve,
    RingElem,
    SpaceCurve,
)
from .errors import CertificateFailure, CurveMismatch
from .liealg import BracketDecomp, VField, bracket, recombine
from .poly import Poly, _sum_of_products, antiderivative, partial_derivative

_HALF = Fraction(1, 2)


def _verified(curve, pairs, brackets, target_coeff, trace) -> BracketDecomp:
    """Assemble a decomposition and compare the field it presents with the target.

    brackets are the already computed [u, v] of the pairs; their sum is the
    presented field.
    """
    decomp = BracketDecomp(curve, tuple(pairs), trace)
    if sum(brackets, VField(curve.zero())).coeff != target_coeff:
        raise CertificateFailure("decomposition does not recombine to the target")
    return decomp


def single_bracket_line(target: RingElem,
                        trace: bool = False) -> BracketDecomp:
    """h tau = [tau, H tau] on the line: the certificate path with no extra coordinate."""
    line = target.curve
    if not isinstance(line, AffineLine):
        raise CurveMismatch("single_bracket_line expects an element of the line")
    return _construct(line, target, target.poly, line.reduce,
                      {"method": "line"} if trace else None)


def solve_rgh(cofactors: list, coords: tuple):
    """Solve c_0 = r'_x and c_v = r'_v - 2 g_v for each extra coordinate v.

    cofactors[0] goes with x and cofactors[i] with coords[i - 1]; further
    cofactors are ignored.  Returns (r, g_v for each v in coords), which
    is what turns a unit-certificate combination into a bracket sum.
    """
    r = antiderivative(cofactors[0], "x")
    return (r, *((partial_derivative(r, v) - c) * _HALF
                 for v, c in zip(coords, cofactors[1:])))


def _construct(curve, target, poly: Poly, elem, info) -> BracketDecomp:
    """The brackets presenting target, the field poly * tau, on curve.

    The cofactors are poly times the curve's unit certificate; they need no
    division and no check of their own.  The extra coordinates are the
    curve's variables after x.  With (r, g_v) from solve_rgh and
    f = r - sum v g_v, the pairs are the lifts (1, f) and (v, g_v), one per
    extra coordinate v, mapped to elements by elem, and each bracket is
    computed once; zero brackets are dropped.  info, unless None, receives
    the intermediates.
    """
    if poly.is_zero():
        return _verified(curve, (), (), target, info)
    unit, coords = curve.unit_cert, curve.variables[1:]
    # solve_rgh reads only the cofactors of x and coords; a trace prints them all
    cofs = [poly * u for u in (unit.cofactors if info is not None
                               else unit.cofactors[:len(coords) + 1])]
    r, *partners = solve_rgh(cofs, coords)
    # (variable, its bracket partner): (y, g) on plane curves, (y, g), (z, h) in space
    extra = tuple(zip((Poly.variable(v) for v in coords), partners))
    f = r
    if extra:
        f = _sum_of_products(((r, Poly.one()), *((-var, g) for var, g in extra)))
    if info is not None:
        info.update({"membership_generators": [str(p) for p in unit.generators],
                     "membership_cofactors": [str(c) for c in cofs],
                     "r": str(r),
                     **{name: str(p) for name, (_, p) in zip(("g", "h"), extra)},
                     "f": str(f)})
    pairs, brackets = [], []
    for a, b in ((Poly.one(), f),) + extra:
        u, v = VField(elem(a)), VField(elem(b))
        w = bracket(u, v)
        if not w.is_zero():
            pairs.append((u, v))
            brackets.append(w)
    return _verified(curve, pairs, brackets, target, info)


def two_bracket_plane(curve: PlaneCurve, target: RingElem,
                      trace: bool = False) -> BracketDecomp:
    """At most two brackets presenting target * tau on a smooth plane curve.

    A membership certificate writes the target as c_P P + c_Q Q modulo the
    curve equation; with r the x-antiderivative of c_P, g = (r'_y - c_Q)/2
    and f = r - y g, the sum [tau, f tau] + [y tau, g tau] recombines to
    the target.
    """
    if not isinstance(curve, PlaneCurve) or target.curve != curve:
        raise CurveMismatch("two_bracket_plane expects an element of a plane curve")
    return _construct(curve, target, target.poly, curve.reduce,
                      {"method": "plane"} if trace else None)


def three_bracket_space(curve: SpaceCurve, target: RingElem,
                        trace: bool = False) -> BracketDecomp:
    """At most three brackets presenting target * tau on a space curve.

    Same construction as the plane case with one more coordinate: the
    certificate gives target = c_P P + c_Q Q + c_R R modulo the curve, and
    solve_rgh turns it into [tau, f tau] + [y tau, g tau] + [z tau, h tau].
    """
    if not isinstance(curve, SpaceCurve) or target.curve != curve:
        raise CurveMismatch("three_bracket_space expects an element of a space curve")
    return _construct(curve, target, target.poly, curve.reduce,
                      {"method": "space"} if trace else None)


def localize_decomp(decomp: BracketDecomp, denominator: Poly, k: int,
                    trace: bool = False) -> BracketDecomp:
    """Push a line decomposition onto the localized line, dividing by f^k.

    Each pair (a tau, b tau) becomes (a/f^k tau, b/f^k tau); the bracket
    picks up exactly 1/f^(2k), so the localized sum presents g / f^(2k)
    where g tau is the input's field, and the length never changes.
    """
    return _localize(decomp, LocalizedLine(denominator), k, trace)[1]


def _localize(decomp: BracketDecomp, line: LocalizedLine, k: int, trace: bool) -> tuple:
    """(target, decomposition) of localize_decomp on line.

    The target g / f^(2k) is reduced before the pairs, so a run's budget
    that cannot reduce it stops the run before any pair is localized.
    """
    if not isinstance(decomp.curve, AffineLine):
        raise CurveMismatch("localize_decomp expects a decomposition on the line")
    try:
        k = index(k)
    except TypeError:
        raise ValueError(f"localization exponent must be an integer, not {k!r}") from None
    if k < 0:
        raise ValueError("localization exponent must be nonnegative")
    target = line.elem(recombine(decomp).coeff.poly, 2 * k)
    pairs = tuple(
        (VField(line.elem(u.coeff.poly, k)), VField(line.elem(v.coeff.poly, k)))
        for u, v in decomp.pairs)
    info = {"method": "localize", "k": k} if trace else None
    return target, _verified(line, pairs, [bracket(u, v) for u, v in pairs], target, info)


def rational_decompose(denominator: Poly, target: LocalizedElem,
                       trace: bool = False) -> BracketDecomp:
    """One bracket presenting target * tau on the line minus V(f).

    The target n / f^m is rescaled to (n f^(2k - m)) / f^(2k) with
    k = ceil(m / 2); the line's lifts (1, H) for the scaled numerator are
    divided by f^k, as localize_decomp divides its pairs, which gives the
    pair (1/f^k tau, H/f^k tau).
    """
    if not isinstance(target.curve, LocalizedLine):
        raise CurveMismatch("rational_decompose expects a localized element")
    if target.curve.denominator != denominator:
        raise ValueError("denominator does not match the target's curve")
    line = target.curve
    m = target.exponent
    k = (m + 1) // 2
    scaled = target.numerator * denominator ** (2 * k - m)
    info = {"method": "rational", "k": k, "scaled_numerator": str(scaled)} if trace else None
    # the line's lifts for scaled * tau, each divided by f^k
    return _construct(line, target, scaled, lambda p: line.elem(p, k), info)
