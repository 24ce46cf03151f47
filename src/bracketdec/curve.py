"""Curve models and their coordinate-ring elements.

Four models, all with trivial tangent sheaf and a distinguished trivializing
vector field tau:

* AffineLine: Q[x] with tau = d/dx.
* LocalizedLine: Q[x][1/f], the line with the zeros of f removed, tau = d/dx.
* PlaneCurve: a smooth V(F) in the (x, y) plane; tau is the Hamiltonian
  field (dF/dy, -dF/dx), which is nowhere zero exactly when the curve is
  smooth.
* SpaceCurve: V(generators) in (x, y, z) with a user-supplied derivation;
  the constructor checks that it preserves the ideal, is nonzero on the
  curve, and has components generating the unit ideal modulo the curve.

Elements are kept in canonical form (normal form modulo the curve ideal,
or numerator/denominator in lowest terms), so equality is structural.  The
reductions are groebner's and poly's entries; each call gets a fresh
StepBudget of the curve's max_steps, and this module reads no polynomial's
terms.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Sequence
from math import inf
from operator import index

from .errors import (
    BadVariables,
    CurveMismatch,
    DoesNotPreserveIdeal,
    NotSmooth,
    ParseError,
    UnitCertificateAbsent,
    ValidationError,
    ZeroTau,
)
from .groebner import (
    DEFAULT_MAX_STEPS,
    MembershipCertificate,
    buchberger,
    normal_form,
    unit_certificate,
)
from .poly import (
    MonomialOrder,
    Poly,
    StepBudget,
    _divide_out,
    _parse_quotient,
    _Record,
    _remainder,
    _scalar,
    _sum_of_products,
    apply_derivation,
    format_number,
    gcd_univariate,
    parse_poly,
    partial_derivative,
)


class Curve:
    """Common interface of the curve models; instances are immutable.

    Each model defines reduce(p), the canonical element of p, and
    describe().  A curve equals one of its own model with the same _key,
    its defining data; max_steps is not part of it.
    """

    order: MonomialOrder = MonomialOrder.LEX
    _key: tuple = ()

    def _member(self, p: Poly) -> Poly:
        """p, once checked to lie in the curve's ring Q[variables]."""
        if not p.uses_only(self.variables):
            raise BadVariables(f"elements of the {self._noun} must use only "
                               + " and ".join(self.variables))
        return p

    def _reduce_products(self, pairs) -> RingElem:
        """The element sum(a * b for a, b in pairs) of polynomials already in
        the ring, reduced modulo the curve's basis, never empty; AffineLine overrides this."""
        return RingElem(self, _remainder(pairs, self.gb.basis, self.gb.order,
                                         StepBudget(self.max_steps)))

    def zero(self):
        return self.reduce(Poly.zero())

    def one(self):
        return self.reduce(Poly.one())

    def parse_element(self, text: str):
        return self.reduce(parse_poly(text))

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and other._key == self._key)

    def __hash__(self):
        return hash((type(self), self._key))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key))})"


class _Operand(_Record):
    """Arithmetic shared by the value types: both operands of a binary
    operation are of one type on one curve."""

    __slots__ = ()

    def _check(self, other):
        if type(other) is not type(self) or other.curve != self.curve:
            raise CurveMismatch(
                f"operands must both be {type(self).__name__} on one curve")
        return other

    def __sub__(self, other):
        return self + -self._check(other)

    def __rmul__(self, scalar):
        return self.__mul__(scalar)


class RingElem(_Operand):
    """A coordinate-ring element, stored as its canonical representative."""

    __slots__ = _fields = ("curve", "poly")

    def __init__(self, curve: Curve, poly: Poly):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "poly", poly)

    def __add__(self, other):
        other = self._check(other)
        # normal forms are linear, so no re-reduction is needed
        return RingElem(self.curve, self.poly + other.poly)

    def __neg__(self):
        return RingElem(self.curve, -self.poly)

    def __mul__(self, other):
        if _scalar(other):
            return RingElem(self.curve, self.poly * other)
        other = self._check(other)
        return self.curve._reduce_products(((self.poly, other.poly),))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __str__(self):
        return str(self.poly)


class LocalizedElem(_Operand):
    """numerator / denominator^exponent over a localized line.

    Built in lowest terms by the line's elem(): the stored numerator is not
    divisible by the line's denominator unless the exponent is already zero.
    Negation and nonzero scalar multiples keep lowest terms, so they build
    the record directly.
    """

    __slots__ = _fields = ("curve", "numerator", "exponent")

    def __init__(self, curve: LocalizedLine, numerator: Poly, exponent: int = 0):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "exponent", exponent)

    def __add__(self, other):
        other = self._check(other)
        # zero has exponent 0: raising f to the other exponent would cost
        # a power of f that the lowest-terms reduction then divides out
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        f = self.curve.denominator
        m = max(self.exponent, other.exponent)
        num = (self.numerator * f ** (m - self.exponent)
               + other.numerator * f ** (m - other.exponent))
        return self.curve.elem(num, m)

    def __neg__(self):
        return LocalizedElem(self.curve, -self.numerator, self.exponent)

    def __mul__(self, other):
        if _scalar(other):
            if not other:
                return self.curve.zero()
            return LocalizedElem(self.curve, self.numerator * other, self.exponent)
        other = self._check(other)
        return self.curve.elem(self.numerator * other.numerator,
                               self.exponent + other.exponent)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __str__(self):
        if self.exponent == 0:
            return str(self.numerator)
        power = f"^{format_number(self.exponent)}" if self.exponent > 1 else ""
        return f"({self.numerator}) / ({self.curve.denominator}){power}"

    def __repr__(self):
        return f'LocalizedElem("{self}")'


class AffineLine(Curve):
    """The affine line: coordinate ring Q[x], trivializing field d/dx."""

    variables = ("x",)
    _noun = "line"
    tau_components = (Poly.one(),)
    unit_cert = MembershipCertificate(Poly.one(), (Poly.one(),), (Poly.one(),))

    def reduce(self, p: Poly) -> RingElem:
        return RingElem(self, self._member(p))

    def _reduce_products(self, pairs) -> RingElem:
        return RingElem(self, _sum_of_products(pairs))

    def describe(self) -> dict:
        return {"variant": "line"}


class LocalizedLine(Curve):
    """The affine line with the zero set of a fixed denominator removed.

    Coordinate ring Q[x][1/f]; the trivializing field is still d/dx, so the
    line's unit certificate serves here too.  max_steps bounds the division
    steps of each element's lowest-terms reduction and of parsing each
    element's denominator.
    """

    variables = ("x",)
    _noun = "line"

    def __init__(self, denominator: Poly, *, max_steps: int = DEFAULT_MAX_STEPS):
        if self._member(denominator).is_constant():
            raise ValidationError("localization denominator must be nonconstant")
        self.denominator = denominator
        self.max_steps = max_steps
        self._key = (denominator,)

    def elem(self, numerator: Poly, exponent: int = 0) -> LocalizedElem:
        """numerator / f^exponent in lowest terms."""
        try:
            exponent = index(exponent)
        except TypeError:
            raise ValueError(
                f"denominator exponent must be an integer, not {exponent!r}") from None
        if exponent < 0:
            raise ValueError("denominator exponent must be nonnegative")
        if self._member(numerator).is_zero():
            return LocalizedElem(self, numerator, 0)
        numerator, j = _divide_out(numerator, self.denominator, exponent,
                                   StepBudget(self.max_steps))
        return LocalizedElem(self, numerator, exponent - j)

    @property
    def unit_cert(self) -> MembershipCertificate:
        return AffineLine.unit_cert

    def reduce(self, p: Poly) -> LocalizedElem:
        return self.elem(p, 0)

    def parse_element(self, text: str) -> LocalizedElem:
        """Parse `num` or `num / den` where den is c * f^m for the line's f."""
        num, den = _parse_quotient(text)
        if den is None:
            return self.reduce(num)
        # a den outside Q[x] is no c * f^m, and is not divided
        den, m = (_divide_out(den, self.denominator, inf, StepBudget(self.max_steps))
                  if den.uses_only(self.variables) else (den, 0))
        if not den.is_constant():
            raise ParseError(
                "element denominator must be a constant multiple of a power "
                f"of the localization denominator ({self.denominator})")
        c = den.as_constant()
        if c == 0:
            raise ParseError("zero denominator in element text")
        return self.elem(num * (1 / c), m)

    def describe(self) -> dict:
        return {"variant": "line_minus", "denominator": str(self.denominator)}


class PlaneCurve(Curve):
    """A smooth plane curve V(F) in the (x, y) plane.

    The trivializing field is the Hamiltonian field of F, with components
    (dF/dy, -dF/dx).  smooth_cert is the unit certificate for the Jacobian
    ideal (F, dF/dx, dF/dy), the row of its reduced basis (1,); its
    existence is exactly smoothness, and it is also what makes the
    Hamiltonian field nowhere zero on the curve.  unit_cert is the same
    identity 1 = a F + b F_x + c F_y over (P, Q, F) = (F_y, -F_x, F), the
    row (c, -b, a), checked once here.  The construction uses only
    smoothness and that certificate, so a reducible smooth equation works
    too; irreducibility is what makes the Lie algebra of vector fields
    simple, not a precondition of the code.
    """

    variables = ("x", "y")
    _noun = "plane curve"

    def __init__(self, equation: Poly, *,
                 order: MonomialOrder = MonomialOrder.LEX,
                 max_steps: int = DEFAULT_MAX_STEPS):
        if self._member(equation).is_constant():
            raise ValidationError("plane curve equation must be nonconstant")
        F_x, F_y = partial_derivative(equation, "x"), partial_derivative(equation, "y")
        cert = unit_certificate((equation, F_x, F_y), order, max_steps)
        if cert is None:
            raise NotSmooth(f"the Jacobian ideal of {equation} is not the unit ideal")
        self.equation = equation
        self.smooth_cert = cert
        self.tau_components = (F_y, -F_x)
        self.order = order
        self.max_steps = max_steps
        self._key = (equation, order)
        self.gb = buchberger([equation], order, max_steps)
        a, b, c = cert.cofactors
        self.unit_cert = MembershipCertificate(
            Poly.one(), self.tau_components + (equation,), (c, -b, a))

    def reduce(self, p: Poly) -> RingElem:
        return RingElem(self, normal_form(self._member(p), self.gb,
                                          StepBudget(self.max_steps)))

    def decomposition_basis(self) -> MembershipCertificate:
        """The stored unit certificate 1 = c_P P + c_Q Q + c_F F."""
        return self.unit_cert

    def describe(self) -> dict:
        return {"variant": "plane",
                "equation": str(self.equation),
                "tau": [str(c) for c in self.tau_components]}


class SpaceCurve(Curve):
    """A curve in 3-space with an explicit trivializing derivation.

    The supplied components (P, Q, R) must define a derivation that
    preserves the curve ideal, is not identically zero on the curve, and
    generates the unit ideal together with the curve generators; the last
    condition is witnessed by a stored certificate and makes the field
    nowhere zero on the curve.  The ideal is assumed to cut out a curve,
    which is not checked; irreducibility is not needed, since the
    construction uses only that certificate.
    """

    variables = ("x", "y", "z")

    def __init__(self, generators: Sequence[Poly], tau_components: Sequence[Poly], *,
                 order: MonomialOrder = MonomialOrder.LEX,
                 max_steps: int = DEFAULT_MAX_STEPS):
        gens = tuple(generators)
        if not gens or all(g.is_zero() for g in gens):
            raise ValidationError("curve ideal needs a nonzero generator")
        comps = tuple(tau_components)
        if len(comps) == 2:
            comps = comps + (Poly.zero(),)
        if len(comps) != 3:
            raise ValidationError("tau needs components for d/dx, d/dy, d/dz")
        self.generators = gens
        self.tau_components = comps
        self.order = order
        self.max_steps = max_steps
        self._key = (gens, comps, order)
        self.gb = buchberger(list(gens), order, max_steps)
        for g in gens:
            if not self.reduce(apply_derivation(comps, g)).is_zero():
                raise DoesNotPreserveIdeal(
                    f"tau maps {g} outside the curve ideal")
        if all(self.reduce(c).is_zero() for c in comps):
            raise ZeroTau("tau vanishes identically on the curve")
        cert = unit_certificate(comps + gens, order, max_steps)
        if cert is None:
            raise UnitCertificateAbsent(
                "tau components do not generate the unit ideal modulo the curve")
        self.unit_cert = cert

    def reduce(self, p: Poly) -> RingElem:
        return RingElem(self, normal_form(p, self.gb, StepBudget(self.max_steps)))

    def decomposition_basis(self) -> MembershipCertificate:
        """The stored unit certificate 1 = c_P P + c_Q Q + c_R R + sum c_j g_j."""
        return self.unit_cert

    def describe(self) -> dict:
        return {"variant": "space",
                "generators": [str(g) for g in self.generators],
                "tau": [str(c) for c in self.tau_components]}


# the former factory functions, kept as aliases for existing callers
make_plane_curve = PlaneCurve
make_space_curve = SpaceCurve


_SPACE_TAU_RE = re.compile(r"\btau\b")


def parse_curve(text: str, *,
                order: MonomialOrder = MonomialOrder.LEX,
                max_steps: int = DEFAULT_MAX_STEPS) -> Curve:
    """Parse a curve description.

    Grammar: `line` | `line minus <f>` | `plane <F>` |
    `space <g1>; <g2> [; <g3>] tau <P>, <Q>, <R>`.  Warns when the f of
    `line minus <f>` has a repeated root, since its squarefree part defines
    the same open set.
    """
    s = text.strip()
    if s == "line":
        return AffineLine()
    if s.startswith("line minus "):
        line = LocalizedLine(parse_poly(s[len("line minus "):]), max_steps=max_steps)
        f = line.denominator
        if not gcd_univariate(f, partial_derivative(f, "x"),
                              StepBudget(max_steps)).is_constant():
            warnings.warn(
                "localization denominator has a repeated root; "
                "its squarefree part defines the same ring",
                stacklevel=2)
        return line
    if s.startswith("plane "):
        return PlaneCurve(parse_poly(s[len("plane "):]), order=order, max_steps=max_steps)
    if s.startswith("space "):
        rest = s[len("space "):]
        parts = _SPACE_TAU_RE.split(rest)
        if len(parts) != 2:
            raise ParseError("space curve description needs exactly one tau clause")
        gen_texts = [t for t in parts[0].split(";") if t.strip()]
        if not gen_texts:
            raise ParseError("space curve description needs at least one generator")
        comp_texts = parts[1].split(",")
        if len(comp_texts) != 3:
            raise ParseError("tau clause needs exactly three components")
        gens = [parse_poly(t) for t in gen_texts]
        comps = [parse_poly(t) for t in comp_texts]
        return SpaceCurve(gens, comps, order=order, max_steps=max_steps)
    raise ParseError(f"unrecognized curve description: {text!r}")
