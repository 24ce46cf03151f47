"""Vector fields and their Lie bracket on a curve with trivial tangent sheaf.

Every vector field on such a curve is coeff * tau for the curve's
trivializing field tau, and

    [a tau, b tau] = (a tau(b) - b tau(a)) tau,

so the whole Lie algebra is carried by coordinate-ring elements.  On the
line, plane and space curves tau is the curve's stored component
derivation (on the line the one component (1), i.e. d/dx), applied to any
lift of the element (the ideal is preserved, so the result does not depend
on the lift).  On a localized line tau is d/dx by the quotient rule.
"""

from __future__ import annotations

from .curve import Curve, LocalizedElem, RingElem, _Operand
from .errors import CurveMismatch
from .poly import (
    _derivation_pairs,
    _Record,
    _scalar,
    _sum_of_products,
    apply_derivation,
    partial_derivative,
)

Element = RingElem | LocalizedElem


class VField(_Operand):
    """The vector field coeff * tau."""

    __slots__ = _fields = ("coeff",)

    def __init__(self, coeff: Element):
        object.__setattr__(self, "coeff", coeff)

    @property
    def curve(self) -> Curve:
        return self.coeff.curve

    def __add__(self, other):
        return VField(self.coeff + self._check(other).coeff)

    def __neg__(self):
        return VField(-self.coeff)

    def __mul__(self, scalar):
        if not _scalar(scalar):
            return NotImplemented
        return VField(self.coeff * scalar)

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def __str__(self):
        return str(self.coeff)


def apply_tau(curve: Curve, elem: Element) -> Element:
    """tau applied to a coordinate-ring element, as an element again."""
    if elem.curve != curve:
        raise CurveMismatch("element does not live on the given curve")
    if isinstance(elem, LocalizedElem):
        # quotient rule for n / f^m
        n, m = elem.numerator, elem.exponent
        f = curve.denominator
        if m == 0:
            return curve.elem(partial_derivative(n, "x"), 0)
        num = _sum_of_products(((partial_derivative(n, "x"), f),
                                (n, partial_derivative(f, "x") * -m)))
        return curve.elem(num, m + 1)
    return curve._reduce_products(_derivation_pairs(curve.tau_components, elem.poly))


def bracket(u: VField, v: VField) -> VField:
    """[u, v] = (a tau(b) - b tau(a)) tau for u = a tau, v = b tau.

    For polynomial-ring elements (line, plane and space curves) the
    coefficient is computed on the lifts and reduced once, from one kernel
    call: normal forms are linear and unique, so this equals the product of
    the reduced factors.
    """
    if u.curve != v.curve:
        raise CurveMismatch("vector fields live on different curves")
    c = u.curve
    a, b = u.coeff, v.coeff
    if isinstance(a, RingElem):
        comps = c.tau_components
        return VField(c._reduce_products(((a.poly, apply_derivation(comps, b.poly)),
                                          (-b.poly, apply_derivation(comps, a.poly)))))
    return VField(a * apply_tau(c, b) - b * apply_tau(c, a))


class BracketDecomp(_Record):
    """A sum-of-brackets presentation of a vector field.

    pairs is a tuple of (u, v) with the presented field equal to
    sum of [u, v]; length is the number of summands.  trace, when present,
    records the construction (certificate cofactors and intermediates) and
    does not take part in equality.
    """

    __slots__ = ("curve", "pairs", "trace")
    _fields = ("curve", "pairs")

    def __init__(self, curve: Curve, pairs: tuple, trace: dict | None = None):
        for u, v in pairs:
            if u.curve != curve or v.curve != curve:
                raise CurveMismatch("decomposition pair on a different curve")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "trace", trace)

    @property
    def length(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


def recombine(decomp: BracketDecomp) -> VField:
    """Sum the brackets of the pairs; the field the decomposition presents."""
    acc = VField(decomp.curve.zero())
    for u, v in decomp.pairs:
        acc = acc + bracket(u, v)
    return acc
