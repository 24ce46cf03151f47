"""Exact multivariate polynomials over Q in the variables x, y, z.

Coefficients are `fractions.Fraction` values, so every operation in this
module is exact.  A polynomial is stored as a tuple of (monomial,
coefficient) pairs with no zero coefficients, sorted descending in the
lexicographic order.  A monomial x^a y^b z^c is the int a | b << 64 | c << 128,
so int order is LEX order; the public names give and take exponent triples.

Only this module knows how terms and coefficients are stored, and only it
spends step budgets: its entries spend the run's StepBudget, which a
`with StepBudget(n):` block sets, and the parser bounds its own work with
one, so one class counts every bound.
Sums and differences, the parser's too, go through one signed sum; products,
and sums of products such as S-polynomials, cofactor rows and certificate
identities, through one kernel that multiplies integer numerators over a
common denominator and builds one Fraction per output term, so the gcd that
Fraction arithmetic pays on every operation is paid once per term.  The
parser's products and the squarings of its powers go through the same
kernel, which spends the parse charge from the denominator lcms it takes
anyway: one exact rule, with no estimate.  Division
keeps that representation: each value is an integer numerator over the
dividend's one denominator, and becomes a Fraction only where a divisor's
tail or leading coefficient brings one in.  One private entry, _remainder,
reduces a sum of products without building quotients, for normal_form and
the curves' products alike; another, _divide_out, puts an element of a
localized line in lowest terms by trial divisions, most of them decided
without an exact division.  Derivatives and antiderivatives shift one
exponent, which keeps the canonical term order, so they need no sort.

Both monomial orders compare the z exponent first and the x exponent last.
Reduction modulo a curve ideal therefore eliminates z and y before x, and
quotient-ring representatives collect in the x coordinate (the twisted cubic
ideal, for example, rewrites y and z as powers of x).
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Sequence
from contextvars import ContextVar
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import inf, lcm
from operator import index

from .errors import ParseError, StepBudgetExceeded

VARIABLES = ("x", "y", "z")
_VAR_INDEX = {"x": 0, "y": 1, "z": 2}

# The public monomial: an exponent triple (e_x, e_y, e_z).
Mono = tuple

Scalar = int | Fraction

# The packed monomial e_x | e_y << W | e_z << 2W.  _GUARD holds each field's
# top bit, clear in every monomial, so a sum of two carries into no field.
_W = 64
_FIELD = (1 << _W) - 1
_GUARD = (1 | 1 << _W | 1 << 2 * _W) << _W - 1
_MONOS = (1 << 3 * _W) - 1
_BOUND = f"monomial exponents must be below 2^{_W - 1}"


def _pack(ex: int, ey: int, ez: int) -> int:
    """The monomial of int exponents; ValueError below 0 or from 2^63 on."""
    if (u := ex | ey | ez) >> _W - 1:  # so is a negative u, from any negative exponent
        raise ValueError(_BOUND if u >= 0 else "monomial exponents must be nonnegative")
    return ex | ey << _W | ez << 2 * _W


def _unpack(m: int) -> Mono:
    return (m & _FIELD, m >> _W & _FIELD, m >> 2 * _W)


def _mono_divides(a: int, b: int) -> bool:
    """True when a divides b: (b | G) - a clears the guard where b is smaller."""
    return ((b | _GUARD) - a) & _GUARD == _GUARD


def _mono_lcm(a: int, b: int) -> int:
    """The exponentwise max: the guards left by (a | G) - b mark the fields of a."""
    ge = ((a | _GUARD) - b) & _GUARD
    return b ^ ((a ^ b) & (ge - (ge >> _W - 1)))


def _mono_key(m: int, order: MonomialOrder) -> int:
    """The int sort key of a monomial: itself, under GRLEX below its degree."""
    return m if order is MonomialOrder.LEX else (
        (m & _FIELD) + (m >> _W & _FIELD) + (m >> 2 * _W)) << 3 * _W | m


def _scalar(x) -> bool:
    """True for a scalar of Q: an int or a Fraction.  A Poly, the common
    operand, is ruled out first, because a failing isinstance against
    Fraction goes through ABCMeta and costs about twenty times as much."""
    return not isinstance(x, Poly) and isinstance(x, Scalar)


class MonomialOrder(Enum):
    """Monomial orders compatible with multiplication.

    LEX compares exponents of z, then y, then x.  GRLEX compares total
    degree first and breaks ties the same way.
    """

    LEX = "lex"
    GRLEX = "grlex"

    def key(self, mono: Mono):
        if self is MonomialOrder.LEX:
            # z first, x last: elimination pushes representatives into x
            return mono[::-1]
        return (mono[0] + mono[1] + mono[2], mono[2], mono[1], mono[0])


class _Record:
    """Base of the frozen value records, which spare each command line process
    the inspect import of frozen dataclasses.  __init__ takes the __slots__ in
    order and stores them by object.__setattr__; eq, hash and repr read _fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild the record through __init__
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class Poly:
    """An exact polynomial in Q[x, y, z].

    `terms` is a tuple of (exponent triple, coefficient) pairs sorted
    descending in the lexicographic order, with no zero coefficients; the
    zero polynomial has an empty tuple.  Instances are immutable and
    hashable, and equality is structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = ()):
        acc: dict = {}
        for mono, coeff in terms:
            try:
                m = _pack(index(mono[0]), index(mono[1]), index(mono[2]))
            except TypeError:
                raise ValueError("monomial exponents must be integers") from None
            c = acc.get(m, 0) + Fraction(coeff)
            if c:
                acc[m] = c
            elif m in acc:
                del acc[m]
        self._terms = tuple(sorted(acc.items(), reverse=True))

    @classmethod
    def _raw(cls, terms: tuple) -> "Poly":
        """Wrap terms already in canonical form, skipping normalization.

        Callers build the tuple from a list: tuple() of a generator
        over-allocates, and the oversized blocks linger in the interpreter's
        tuple free lists and raise peak memory.
        """
        p = object.__new__(cls)
        p._terms = terms
        return p

    @property
    def terms(self) -> tuple:  # unpacked from the packed monomials on each read
        return tuple([(_unpack(m), c) for m, c in self._terms])

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        c = Fraction(value)
        if not c:
            return _ZERO
        return cls._raw(((0, c),))

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}")
        return cls._raw(((1 << _W * _VAR_INDEX[name], Fraction(1)),))

    @classmethod
    def monomial(cls, mono: Mono, coeff: Scalar = 1) -> "Poly":
        return cls([(mono, coeff)])

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0] == 0)

    def as_constant(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if self.is_constant():
            return self._terms[0][1]
        raise ValueError(f"{self} is not constant")

    def uses_only(self, names: Sequence[str]) -> bool:
        """True when no term has a positive exponent of a variable outside names.

        Only those exponents are read.  The terms are sorted z exponent
        first, then y, so the first term has the largest z exponent and,
        when no term has z, the largest y exponent: for the rings of x and
        of x and y, the first term decides.
        """
        if not self._terms:
            return True
        lead = self._terms[0][0]
        if "z" not in names and lead >> 2 * _W:
            return False
        if "y" not in names and (any(m >> _W & _FIELD for m, _ in self._terms) if "z" in names
                                 else lead >> _W):
            return False
        return "x" in names or not any(m & _FIELD for m, _ in self._terms)

    def coefficient(self, mono: Mono) -> Fraction:
        return next((c for m, c in self.terms if m == mono), Fraction(0))

    def leading_term(self, order: MonomialOrder = MonomialOrder.LEX):
        """(monomial, coefficient) maximal under order; errors on zero."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        m, c = _leading(self, order)
        return _unpack(m), c

    def leading_monomial(self, order: MonomialOrder = MonomialOrder.LEX) -> Mono:
        return self.leading_term(order)[0]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _signed_sum(((True, self), (True, other)))

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(tuple([(m, -c) for m, c in self._terms]))

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _signed_sum(((True, self), (False, other)))

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _signed_sum(((True, other), (False, self)))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self if other is _ONE else _sum_of_products(((self, other),))
        if not _scalar(other):
            return NotImplemented
        if not other:
            return _ZERO
        return Poly._raw(tuple([(m, c * other) for m, c in self._terms]))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, exponent, Poly.__mul__)

    def __eq__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self._terms == other._terms

    def __hash__(self):
        # a constant equals its value, so it hashes as that value
        return hash(self.as_constant()) if self.is_constant() else hash(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if not self._terms:
            return "0"
        out = []
        for i, (mono, coeff) in enumerate(self._terms):
            mstr = _format_mono(mono)
            neg = coeff < 0
            mag = -coeff if neg else coeff
            if not mstr:
                body = format_number(mag)
            elif mag == 1:
                body = mstr
            else:
                body = f"{format_number(mag)}*{mstr}"
            if i == 0:
                out.append("-" + body if neg else body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    def __repr__(self):
        return f'Poly("{self}")'


_ZERO = Poly._raw(())
_ONE = Poly._raw(((0, Fraction(1)),))


def _leading(p: Poly, order: MonomialOrder) -> tuple:
    """(monomial, coefficient) of the nonzero p maximal under order."""
    return p._terms[0] if order is MonomialOrder.LEX else max(
        p._terms, key=lambda t: _mono_key(t[0], order))


def _monomial(m: int, c: Fraction) -> Poly:
    """The Poly c * m of a monomial and a nonzero Fraction."""
    return Poly._raw(((m, c),))


def _operand(x):
    """x as the Poly operand of a sum or comparison, or None."""
    return x if isinstance(x, Poly) else Poly.constant(x) if _scalar(x) else None


def _signed_sum(operands: Iterable) -> Poly:
    """The sum of the (positive, p) operands, each p added when positive and
    subtracted otherwise: one dict, seeded with a leading positive operand's
    terms and sorted once, so a difference builds no negated copy and a long
    sum costs time linear in its terms."""
    acc: dict = {}
    for positive, p in operands:
        if positive and not acc:
            acc.update(p._terms)
            continue
        for m, c in p._terms:
            v = acc.get(m)
            if v is None:
                acc[m] = c if positive else -c
            else:  # may cancel to zero, dropped at the end
                acc[m] = v + c if positive else v - c
    terms = [t for t in acc.items() if t[1]]
    terms.sort(reverse=True)
    return Poly._raw(tuple(terms))


def _products(pairs: Iterable, budget: StepBudget | None = None) -> tuple:
    """(d, acc): sum(a * b for a, b in pairs) is sum(acc[m] / d * m), exactly.

    Every coefficient of an a is scaled to an integer numerator over da, the
    lcm of the denominators of all the a's, and likewise every b over db, so
    d = da * db.  The numerator products are summed as plain ints into the
    {monomial: numerator} dict acc, which may keep zeros where terms cancel.
    Only the parser passes a budget: each pair, a product with one included,
    then spends the parse cost rule of MAX_PARSE_COST before its products
    are taken.  A product monomial past the exponent bound is a ValueError.
    """
    pairs = [(a._terms, b._terms) for a, b in pairs if a._terms and b._terms]
    # sets: lcm gets the few distinct denominators, not an argument tuple
    # as long as the polynomials (such tuples linger in the interpreter's
    # free lists and raise peak memory)
    da = lcm(*{c.denominator for a, _ in pairs for _, c in a})
    if budget is None and len(pairs) == 1 and pairs[0][1] is _ONE._terms:  # a Poly alone
        return da, {m: c.numerator * (da // c.denominator) for m, c in pairs[0][0]}
    db = lcm(*{c.denominator for _, b in pairs for _, c in b})
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        if budget is not None:
            wa, wb = (-(-(max([c.numerator.bit_length() for _, c in t]) + den.bit_length()) // 64)
                      for t, den in ((a, da), (b, db)))
            wd = -(-(da * db).bit_length() // 64) if da * db > 1 else 0
            budget.spend(len(a) * len(b) * (1 + wa * wb + (wa + wb) * wd))
        b = [(m, c.numerator * (db // c.denominator)) for m, c in b]
        for ma, c in a:
            ca = c.numerator * (da // c.denominator)
            for mb, cb in b:
                m = ma + mb
                acc[m] = get(m, 0) + ca * cb
    if any(m & _GUARD for m in acc):
        raise ValueError(_BOUND)
    return da * db, acc


def _sum_of_products(pairs: Iterable, budget: StepBudget | None = None) -> Poly:
    """sum(a * b for a, b in pairs), exactly, with one Fraction per output term:
    the products are summed on integer numerators by _products, so only the
    output terms pay for a gcd, not every coefficient product."""
    return _poly_over(*_products(pairs, budget))


def _poly_over(den: int, acc: dict) -> Poly:
    """The Poly sum(acc[m] / den * m) of int numerators, or Fractions where a
    division step made them; zeros are dropped before any Fraction is built."""
    terms = [(m, Fraction(n, den)) for m, n in acc.items() if n]
    terms.sort(reverse=True)
    return Poly._raw(tuple(terms))


def _power(base, e: int, mul):
    """base^e by repeated squaring, every product taken by mul(a, b)."""
    result = None
    while e:
        if e & 1:
            # the first factor needs no product with one
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return _ONE if result is None else result


def _format_mono(m: int) -> str:
    parts = []
    for name, e in zip(VARIABLES, _unpack(m)):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{format_number(e)}")
    return "*".join(parts)


def format_number(n: Scalar) -> str:
    """Decimal text of a coefficient or exponent; all printed numbers pass here.

    Python refuses to convert ints longer than sys.get_int_max_str_digits()
    digits to text; such a number is reported as the output phase running
    out of budget, not as a bad input.
    """
    try:
        return str(n)
    except ValueError:
        raise StepBudgetExceeded(
            f"output phase: a number in the result has more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's limit for "
            "printing an integer") from None


# -- calculus --------------------------------------------------------------


def partial_derivative(p: Poly, var: str) -> Poly:
    """d p / d var, exactly.

    Lowering one exponent by one keeps distinct monomials distinct and
    preserves both monomial orders, so the terms come out in canonical
    order and need no re-sort.
    """
    shift = _W * _VAR_INDEX[var]
    one = 1 << shift
    return Poly._raw(tuple([(m - one, c * e) for m, c in p._terms if (e := m >> shift & _FIELD)]))


def antiderivative(p: Poly, var: str) -> Poly:
    """The antiderivative of p in var with zero constant term.

    Raising one exponent by one preserves canonical order, as in
    partial_derivative; an exponent raised to 2^63 is a ValueError.
    """
    shift = _W * _VAR_INDEX[var]
    one = 1 << shift
    terms = [(m + one, c / ((m >> shift & _FIELD) + 1)) for m, c in p._terms]
    if any(m & _GUARD for m, _ in terms):
        raise ValueError(_BOUND)
    return Poly._raw(tuple(terms))


def apply_derivation(components: Sequence[Poly], p: Poly) -> Poly:
    """Apply the derivation sum_i components[i] * d/dv_i, v = (x, y, z).

    Two components are read as (x, y) with a zero z component.
    """
    return _sum_of_products(_derivation_pairs(components, p))


def _derivation_pairs(components: Sequence[Poly], p: Poly) -> list:
    """The (component, partial derivative) products apply_derivation sums."""
    return [(comp, partial_derivative(p, var))
            for comp, var in zip(components, VARIABLES) if comp._terms]


# -- division ---------------------------------------------------------------


DEFAULT_MAX_STEPS = 1_000_000
_RUN_BUDGET: ContextVar = ContextVar("bracketdec_run_budget", default=None)


class StepBudget:
    """Countdown of steps shared across a computation; spent past zero, it
    raises StepBudgetExceeded with its message.  Inside `with StepBudget(n):`
    it is run_budget(), so n bounds the whole run; blocks nest and re-enter."""

    __slots__ = ("remaining", "message", "_tokens")

    def __init__(self, limit: int, message: str = "reduction step budget exhausted"):
        try:
            self.remaining = index(limit)
        except TypeError:
            raise ValueError(f"step budget must be an integer, not {limit!r}") from None
        self.message = message
        self._tokens = []

    def spend(self, steps: int = 1) -> None:
        self.remaining -= steps
        if self.remaining < 0:
            raise StepBudgetExceeded(self.message)

    def __enter__(self) -> "StepBudget":
        self._tokens.append(_RUN_BUDGET.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _RUN_BUDGET.reset(self._tokens.pop())


def run_budget() -> StepBudget:
    """The innermost `with StepBudget(n):` block's, else StepBudget(DEFAULT_MAX_STEPS)."""
    return _RUN_BUDGET.get() or StepBudget(DEFAULT_MAX_STEPS)


def _division_heads(divisors: Sequence[Poly], order: MonomialOrder) -> list:
    """One (leading monomial, leading coefficient, tail) per nonzero divisor,
    for _divide: integer tail coefficients are ints, the others Fractions, and
    a leading coefficient is the int 1 or a Fraction, so lc / dc is exact."""
    heads = [(_leading(d, order), d._terms) for d in divisors]
    return [(dm, 1 if dc == 1 else dc,
             [(m, c.numerator if c.denominator == 1 else c) for m, c in terms if m != dm])
            for (dm, dc), terms in heads]


def _divide(acc: dict, heads: list, order: MonomialOrder, budget: StepBudget | None,
            quotients: list | None) -> dict:
    """The heap division loop of divide_multivariate; it consumes acc.

    acc is the dividend as {monomial: numerator} over one denominator, as
    are the remainder dict it returns and the quotient dicts, one per
    divisor, that quotients receives unless None.  The numerators are ints
    until a leading coefficient other than 1 or a Fraction in a tail turns
    the values it touches into Fractions.  Zero entries spend no step.
    """
    lex = order is MonomialOrder.LEX
    rem: dict = {}
    budget = budget or run_budget()
    # the budget counts down in a local, written back when the loop ends
    left = budget.remaining
    # negated order keys, so the least pops first; a GRLEX key ends in m
    heap = [-m if lex else -_mono_key(m, order) for m in acc]
    heapify(heap)
    while heap:
        lm = -heappop(heap) & _MONOS
        # a popped monomial is never recreated: later steps only touch
        # monomials below it, so it leaves the dict for good
        lc = acc.pop(lm)
        if not lc:
            continue
        left -= 1
        if left < 0:
            budget.remaining = 0
            budget.spend()  # raises StepBudgetExceeded
        guarded = lm | _GUARD
        for i, (dm, dc, tail) in enumerate(heads):
            if (guarded - dm) & _GUARD == _GUARD:  # dm divides lm
                qm = lm - dm
                qc = lc if dc == 1 else lc / dc
                if quotients is not None:
                    # leading monomials only fall, so qm is new to this quotient
                    quotients[i][qm] = qc
                for t, tc in tail:
                    m = qm + t
                    v = acc.get(m)
                    if v is None:
                        if m & _GUARD:
                            raise ValueError(_BOUND)
                        acc[m] = -(qc * tc)
                        heappush(heap, -m if lex else -_mono_key(m, order))
                    else:
                        # may cancel to zero; the heap entry is skipped when popped
                        acc[m] = v - qc * tc
                break
        else:
            rem[lm] = lc
    budget.remaining = left
    return rem


def _remainder(pairs: Iterable, divisors: Sequence[Poly], order: MonomialOrder,
               budget: StepBudget | None = None) -> Poly:
    """The remainder of divide_multivariate for the dividend
    sum(a * b for a, b in pairs) and nonzero divisors, with the same steps
    and no quotient built: the division starts from the product kernel's
    integer numerators.  A Poly p is the one pair (p, Poly.one())."""
    den, acc = _products(pairs)
    return _poly_over(den, _divide(acc, _division_heads(divisors, order), order, budget, None))


def divide_multivariate(p: Poly, divisors: Sequence[Poly],
                        order: MonomialOrder = MonomialOrder.LEX,
                        budget: StepBudget | None = None):
    """Divide p by an ordered list of nonzero divisors.

    Returns (quotients, remainder) with p equal to
    sum(quotients[i] * divisors[i]) + remainder and no remainder term
    divisible by any divisor's leading monomial.  Each step reduces by the
    earliest-listed divisor whose leading monomial divides the current
    leading term, so the result is deterministic in the divisor order.
    Every leading term processed spends a step of budget or run_budget().

    The dividend is kept as a {monomial: coefficient} dict with a heap of
    its monomials (heap division, Monagan & Pearce 2007), so a step costs
    the divisor's tail, not a re-sort of the whole dividend.  Its values are
    integer numerators over the dividend's common denominator, and become
    Fractions only where a divisor's tail or leading coefficient brings one
    in; each output term becomes one Fraction at the end.
    """
    divisors = list(divisors)
    if not divisors:
        raise ValueError("divisors must be nonempty")
    if any(d.is_zero() for d in divisors):
        raise ValueError("cannot divide by the zero polynomial")
    den, acc = _products(((p, _ONE),))
    quotients: list[dict] = [{} for _ in divisors]
    rem = _divide(acc, _division_heads(divisors, order), order, budget, quotients)
    return [_poly_over(den, q) for q in quotients], _poly_over(den, rem)


# -- division modulo a prime --------------------------------------------------

# The Mersenne prime 2^61 - 1.  Reducing modulo P maps the division of
# univariate p by f over Q onto the division of their images whenever P
# divides no denominator of p or f and not lc(f): the images of the exact
# quotient and remainder are the quotient and remainder modulo P.  So a
# nonzero remainder modulo P proves a nonzero remainder over Q, while a zero
# one proves nothing.
_P = (1 << 61) - 1


def _residues(p: Poly):
    """Coefficients of the nonzero p, univariate in x, modulo P from degree 0 up.

    None when P divides a denominator, or when p is too sparse for a list
    with one entry per degree to cost at most about twice its terms, so
    that x^120000 never becomes a list.
    """
    deg = p._terms[0][0]  # a monomial in x alone is its exponent
    if deg > 2 * len(p._terms) + 8:
        return None
    res = [0] * (deg + 1)
    for e, c in p._terms:
        n, d = c.as_integer_ratio()
        if d != 1:
            if not d % _P:
                return None
            n *= pow(d, -1, _P)
        res[e] = n % _P
    return res


def _divide_mod_p(a: list, b: list) -> tuple:
    """(nonzero quotient coefficients, remainder) of residue lists a by b modulo P.

    b's last entry must be nonzero; the remainder is a residue list with no
    zero last entry.  The inner loop visits only b's nonzero terms, and
    entries of a are reduced only when they are read.
    """
    db = len(b) - 1
    inv = pow(b[db], -1, _P)
    tail = [(e, c) for e, c in enumerate(b[:db]) if c]
    a = list(a)
    nq = 0
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] % _P
        if c:
            nq += 1
            q = c * inv % _P
            for e, t in tail:
                a[k + e] -= q * t
    rem = [c % _P for c in a[:db]]
    while rem and not rem[-1]:
        rem.pop()
    return nq, rem


def gcd_univariate(p: Poly, q: Poly, budget: StepBudget | None = None) -> Poly:
    """Monic gcd of two polynomials in x.

    Nonzero p and q are first checked modulo P.  When P divides no
    denominator of p or q and not lc(p), a constant gcd of their images
    proves them coprime over Q, and Euclid over Q runs only when it does
    not: any common factor of p and q over Q, made primitive in Z[x],
    divides the primitive part of p in Z[x] (Gauss's lemma), so P does not
    divide its leading coefficient, and its image keeps its degree and
    divides both images.  Each division, modulo P or over Q, spends its
    nonzero quotient and remainder terms of budget or run_budget().
    """
    for item in (p, q):
        if not item.uses_only(("x",)):
            raise ValueError("gcd_univariate needs polynomials in x only")
    budget = budget or run_budget()
    if p and q:
        a, b = _residues(p), _residues(q)
        if a is not None and b is not None and a[-1]:
            while b and not b[-1]:
                b.pop()  # P may divide lc(q)
            while b:
                nq, rem = _divide_mod_p(a, b)
                budget.spend(nq + sum(1 for c in rem if c))
                a, b = b, rem
            if len(a) == 1:
                return _ONE
    a, b = p, q
    while b:
        # Euclid over Q on monic remainders; unscaled, the coefficient sizes
        # grow exponentially along the remainder sequence
        b = b * (1 / b.leading_term()[1])
        a, b = b, _remainder(((a, _ONE),), [b], MonomialOrder.LEX, budget)
    return a * (1 / a.leading_term()[1]) if a else a


# -- lowest terms on a localized line -----------------------------------------


def _divide_out(p: Poly, f: Poly, most, budget: StepBudget | None = None) -> tuple:
    """(p / f^j, j) for the largest j <= most such that f^j divides p.

    The lowest-terms reduction of Q[x][1/f], for a nonconstant f in x: one
    trial division of p by f per power divided out, and a failing one that
    ends the loop unless j reaches most or p a constant.  A constant p, zero
    included, is never divided, since the nonconstant f divides no nonzero
    constant.  Every trial charges budget or run_budget() what
    divide_multivariate(p, [f]) spends, one step per nonzero quotient and
    remainder term, even where that division does not run:

    * A one-term f = c x^e divides p exactly min(most, e_min // e) times,
      e_min the least x exponent in p, so those trials are charged first,
      one step per term of p each, and p / f^j is built in one pass.
    * A p of lower degree than f is its own remainder, one step per term.
    * When p is dense enough and P divides no denominator and not lc(f), a
      nonzero remainder modulo P proves that f does not divide p; its steps
      are the nonzero quotient and remainder coefficients of the run modulo
      P, the exact count unless an exact one is a nonzero multiple of P.
    * Any other trial runs the exact division, so every j kept is exact.
    """
    budget = budget or run_budget()
    if len(f._terms) == 1:  # in x alone, a monomial is its exponent
        (e, c), = f._terms
        terms = p._terms
        j = min(most, min((m for m, _ in terms), default=0) // e)
        constant = len(terms) == 1 and terms[0][0] == j * e
        budget.spend(len(terms) * (j + (j < most and not constant)))
        cj = c ** j
        return Poly._raw(tuple([(m - j * e, v / cj) for m, v in terms])), j
    j = 0
    while j < most and not p.is_constant():
        if p._terms[0][0] < f._terms[0][0]:
            budget.spend(len(p._terms))
            break
        a = _residues(p)
        b = None if a is None else _residues(f)
        if b is not None and b[-1]:
            nq, rem = _divide_mod_p(a, b)
            if rem:
                budget.spend(nq + sum(1 for c in rem if c))
                break
        quotients, rem = divide_multivariate(p, [f], budget=budget)
        if rem:
            break
        p = quotients[0]
        j += 1
    return p, j


# -- parsing ----------------------------------------------------------------

# Deepest parenthesis nesting the recursive-descent parser accepts; each
# level costs six Python frames, so deeper text would hit the interpreter's
# recursion limit instead of failing with a ParseError.
MAX_NESTING = 100

# The limit of the parser's own StepBudget.  The user's budget bounds only
# division, so without it a short text such as (x+1)^3000 or 3^200000000
# could run unbounded.  Each of the parser's products a * b, the squaring of
# a power included, spends in the product kernel _products, before its
# products are taken,
# len(a.terms) * len(b.terms) * (1 + w_a * w_b + (w_a + w_b) * w_d)
# with w_a, w_b the width in 64-bit words of the integer numerators the
# kernel multiplies (the longest numerator of the operand plus the length
# of the lcm of its denominators, which the kernel takes anyway) and w_d
# the width of the product's common denominator, 0 when both operands have
# integer coefficients: w_a * w_b pays for the numerator products,
# (w_a + w_b) * w_d for the gcd of each output term's Fraction.  So neither
# many small terms, nor few huge coefficients, nor many distinct or long
# denominators escape the bound, and the charge is exactly what the
# squaring spends; (x+1)^600 costs 1,997,207.
MAX_PARSE_COST = 3_000_000
_PARSE_EXHAUSTED = (f"parse phase: polynomial text costs more than {MAX_PARSE_COST} "
                    "coefficient word products to expand")


# whitespace, then one token; any other character lands in the last group.
# \d matches the decimal digits int() reads, not '²', which str.isdigit() admits
_TOKEN = re.compile(r"\s*(?:(\d+)|([xyz])|([-+*/^()])|(\S))")


def _tokenize(text: str):
    text = text.replace("−", "-").replace("·", "*")
    # every integer literal passes here: past the interpreter's limit (none
    # before 3.10.7, or when 0) int() raises ValueError, so refuse it first
    most = getattr(sys, "get_int_max_str_digits", int)() or inf
    tokens = []
    for num, var, op, bad in _TOKEN.findall(text):
        if bad:
            raise ParseError(f"unexpected character {bad!r} in polynomial text")
        if len(num) > most:
            raise ParseError(f"integer literal longer than {most} digits, the "
                             "interpreter's limit for reading an integer")
        tokens.append(("int", num) if num else ("var", var) if var else (op, op))
    return tokens


class _PolyParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.budget = StepBudget(MAX_PARSE_COST, _PARSE_EXHAUSTED)

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        if self.peek() != kind:
            raise ParseError(f"expected {kind!r} at token {self.pos}")
        return self.take()

    def mul(self, a: Poly, b: Poly) -> Poly:
        return _sum_of_products(((a, b),), self.budget)

    def power(self, base: Poly, e: int) -> Poly:
        """base^e by repeated squaring through mul, which spends each product.

        A one-term base with coefficient +-1 takes no product: each product
        of its squaring would cost 1 + 1 * 1, so it spends 2 per product and
        its power is built directly.
        """
        if not e or len(base._terms) != 1 or abs(base._terms[0][1]) != 1:
            return _power(base, e, self.mul)
        (m, c), = base._terms
        self.budget.spend(2 * (e.bit_count() + e.bit_length() - 2))
        return Poly._raw(((_pack(*[f * e for f in _unpack(m)]), c ** e),))

    def parse(self, quotient: bool = False) -> tuple:
        """(polynomial, None) of the text; with quotient, one top-level '/'
        may follow the polynomial, and the one after it is the denominator."""
        if not self.tokens:
            raise ParseError("empty polynomial text")
        try:
            num, den = self.expr(), None
            if quotient and self.peek() == "/":
                self.take()
                # the denominator is its own polynomial text, with its own budget
                self.budget = StepBudget(MAX_PARSE_COST, _PARSE_EXHAUSTED)
                den = self.expr()
        except ValueError as exc:  # a monomial exponent past the bound
            raise ParseError(str(exc)) from None
        if self.pos != len(self.tokens):
            kind = self.tokens[self.pos][1]
            raise ParseError(f"unexpected {kind!r} after polynomial")
        return num, den

    def expr(self) -> Poly:
        return _signed_sum(self.signed_terms())

    def signed_terms(self):
        """(positive, term) for each term of the sum that starts here; a sign
        before the first term belongs to its first factor."""
        yield True, self.term()
        while self.peek() in ("+", "-"):
            positive = self.take()[0] == "+"
            yield positive, self.term()

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                acc = self.mul(acc, self.factor())
            elif nxt in ("int", "var", "("):
                # juxtaposition multiplies: 2xy, 3(x+1)
                acc = self.mul(acc, self.factor())
            else:
                return acc

    def factor(self) -> Poly:
        """An atom with an optional power, after any number of signs, which
        bind looser than the power (-x^2 is -(x^2)) and are read in one
        loop, not a frame each."""
        negative = False
        while self.peek() in ("+", "-"):
            negative ^= self.take()[0] == "-"
        base = self.atom()
        if self.peek() == "^":
            self.take()
            kind, text = self.take() if self.pos < len(self.tokens) else (None, "")
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            base = self.power(base, int(text))
        return -base if negative else base

    def atom(self) -> Poly:
        if self.peek() is None:
            raise ParseError("unexpected end of polynomial text")
        kind, text = self.take()
        if kind == "int":
            # int '/' int is a rational literal, e.g. 3/2
            if self.peek() == "/" and self.pos + 1 < len(self.tokens) \
                    and self.tokens[self.pos + 1][0] == "int":
                self.take()
                denom = int(self.take()[1])
                if denom == 0:
                    raise ParseError("zero denominator in rational literal")
                return Poly.constant(Fraction(int(text), denom))
            return Poly.constant(int(text))
        if kind == "var":
            return Poly.variable(text)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        raise ParseError(f"unexpected {text!r} in polynomial text")


def parse_poly(text: str) -> Poly:
    """Parse polynomial text over variables x, y, z.

    Accepted syntax: integer and p/q rational coefficients, + - * ^,
    parentheses, and juxtaposition for products (2xy means 2*x*y).
    """
    return _PolyParser(_tokenize(text)).parse()[0]


def _parse_quotient(text: str) -> tuple:
    """(num, den) of the text `num / den`, or (num, None) of a polynomial text.

    Only a '/' outside parentheses that does not join two integers into a
    p/q literal splits the text, and at most one may.
    """
    return _PolyParser(_tokenize(text)).parse(quotient=True)
