"""Exact multivariate polynomials over Q in the variables x, y, z.

Coefficients are `fractions.Fraction` values, so every operation in this
module is exact.  A polynomial is stored as a tuple of (monomial,
coefficient) pairs with no zero coefficients, sorted descending in the
lexicographic order; monomials are plain exponent triples (e_x, e_y, e_z).

Products, and sums of products such as S-polynomials, cofactor rows and
certificate identities, go through one kernel that multiplies integer
numerators over a common denominator and builds one Fraction per output
term, so the gcd that Fraction arithmetic pays on every operation is paid
once per term.  Division by monic divisors with integer coefficients, the
usual curve basis or localization denominator, runs on integer numerators
too; other divisors keep Fraction arithmetic.  Derivatives and
antiderivatives shift one exponent, which keeps the canonical term order,
so they build their terms without re-sorting.

Both monomial orders compare the z exponent first and the x exponent last.
Reduction modulo a curve ideal therefore eliminates z and y before x, and
quotient-ring representatives collect in the x coordinate (the twisted cubic
ideal, for example, rewrites y and z as powers of x).
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import inf, lcm
from typing import Iterable, Sequence, Union

from .errors import ParseError, StepBudgetExceeded

VARIABLES = ("x", "y", "z")
_VAR_INDEX = {"x": 0, "y": 1, "z": 2}

# A monomial is an exponent triple (e_x, e_y, e_z).
Mono = tuple

Scalar = Union[int, Fraction]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a divides b, exponentwise."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b; the caller guarantees divisibility."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))


def mono_coprime(a: Mono, b: Mono) -> bool:
    return min(a[0], b[0]) == 0 and min(a[1], b[1]) == 0 and min(a[2], b[2]) == 0


def mono_degree(a: Mono) -> int:
    return a[0] + a[1] + a[2]


def _lex_key(m: Mono):
    # z first, x last: elimination pushes representatives into x
    return (m[2], m[1], m[0])


class MonomialOrder(Enum):
    """Monomial orders compatible with multiplication.

    LEX compares exponents of z, then y, then x.  GRLEX compares total
    degree first and breaks ties the same way.
    """

    LEX = "lex"
    GRLEX = "grlex"

    def key(self, mono: Mono):
        if self is MonomialOrder.LEX:
            return _lex_key(mono)
        return (mono[0] + mono[1] + mono[2], mono[2], mono[1], mono[0])


class Poly:
    """An exact polynomial in Q[x, y, z].

    `terms` is a tuple of (monomial, coefficient) pairs sorted descending in
    the lexicographic order, with no zero coefficients; the zero polynomial
    has an empty tuple.  Instances are immutable and hashable, and equality
    is structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        acc: dict = {}
        for mono, coeff in terms:
            mono = (int(mono[0]), int(mono[1]), int(mono[2]))
            if mono[0] < 0 or mono[1] < 0 or mono[2] < 0:
                raise ValueError("monomial exponents must be nonnegative")
            c = acc.get(mono, 0) + Fraction(coeff)
            if c:
                acc[mono] = c
            elif mono in acc:
                del acc[mono]
        self.terms = tuple(sorted(acc.items(), key=lambda t: _lex_key(t[0]), reverse=True))

    @classmethod
    def _raw(cls, terms: tuple) -> "Poly":
        """Wrap terms already in canonical form, skipping normalization.

        Callers build the tuple from a list: tuple() of a generator
        over-allocates, and the oversized blocks linger in the interpreter's
        tuple free lists and raise peak memory.
        """
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def _from_dict(cls, acc: dict) -> "Poly":
        items = tuple(sorted(((m, c) for m, c in acc.items() if c),
                             key=lambda t: _lex_key(t[0]), reverse=True))
        return cls._raw(items)

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
        return cls._raw((((0, 0, 0), c),))

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}")
        mono = tuple(1 if i == _VAR_INDEX[name] else 0 for i in range(3))
        return cls._raw(((mono, Fraction(1)),))

    @classmethod
    def monomial(cls, mono: Mono, coeff: Scalar = 1) -> "Poly":
        return cls([(mono, coeff)])

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == (0, 0, 0))

    def as_constant(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return self.terms[0][1]
        raise ValueError(f"{self} is not constant")

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        return max((mono_degree(m) for m, _ in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        """Maximal exponent of var; -1 for the zero polynomial."""
        idx = _VAR_INDEX[var]
        return max((m[idx] for m, _ in self.terms), default=-1)

    def variables(self) -> frozenset:
        used = set()
        for m, _ in self.terms:
            for i, name in enumerate(VARIABLES):
                if m[i]:
                    used.add(name)
        return frozenset(used)

    def uses_only(self, names: Sequence[str]) -> bool:
        allowed = {_VAR_INDEX[n] for n in names}
        banned = [i for i in range(3) if i not in allowed]
        return all(all(m[i] == 0 for i in banned) for m, _ in self.terms)

    def coefficient(self, mono: Mono) -> Fraction:
        for m, c in self.terms:
            if m == mono:
                return c
        return Fraction(0)

    def leading_term(self, order: MonomialOrder = MonomialOrder.LEX):
        """(monomial, coefficient) maximal under order; errors on zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        if order is MonomialOrder.LEX:
            return self.terms[0]
        return max(self.terms, key=lambda t: order.key(t[0]))

    def leading_monomial(self, order: MonomialOrder = MonomialOrder.LEX) -> Mono:
        return self.leading_term(order)[0]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms:
            v = acc.get(m)
            if v is None:
                acc[m] = c
            else:
                v = v + c
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return Poly._from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(tuple([(m, -c) for m, c in self.terms]))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return _ZERO
            return Poly._raw(tuple([(m, c * q) for m, c in self.terms]))
        if not isinstance(other, Poly):
            return NotImplemented
        if other is _ONE:
            return self
        return _sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, exponent, Poly.__mul__)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for i, (mono, coeff) in enumerate(self.terms):
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
_ONE = Poly._raw((((0, 0, 0), Fraction(1)),))


def _sum_of_products(pairs: Iterable) -> Poly:
    """sum(a * b for a, b in pairs), exactly, with one Fraction per output term.

    Every coefficient of an a is scaled to an integer numerator over da, the
    lcm of the denominators of all the a's, and likewise every b over db.
    The numerator products are summed as plain ints, and each nonzero sum
    becomes Fraction(n, da * db) once at the end, so only the output terms
    pay for a gcd, not every coefficient product.
    """
    pairs = [(a.terms, b.terms) for a, b in pairs if a.terms and b.terms]
    # sets: lcm gets the few distinct denominators, not an argument tuple
    # as long as the polynomials (such tuples linger in the interpreter's
    # free lists and raise peak memory)
    da = lcm(*{c.denominator for a, _ in pairs for _, c in a})
    db = lcm(*{c.denominator for _, b in pairs for _, c in b})
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        b = [(m, c.numerator * (db // c.denominator)) for m, c in b]
        for (a0, a1, a2), c in a:
            ca = c.numerator * (da // c.denominator)
            for (b0, b1, b2), cb in b:
                m = (a0 + b0, a1 + b1, a2 + b2)
                acc[m] = get(m, 0) + ca * cb
    d = da * db
    terms = [(m, Fraction(n, d)) for m, n in acc.items() if n]
    terms.sort(key=lambda t: _lex_key(t[0]), reverse=True)
    return Poly._raw(tuple(terms))


def _power(base: Poly, e: int, mul) -> Poly:
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


def _format_mono(mono: Mono) -> str:
    parts = []
    for name, e in zip(VARIABLES, mono):
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
    idx = _VAR_INDEX[var]
    return Poly._raw(tuple([(_shift(m, idx, -1), c * m[idx]) for m, c in p.terms if m[idx]]))


def antiderivative(p: Poly, var: str) -> Poly:
    """The antiderivative of p in var with zero constant term.

    Raising one exponent by one preserves canonical order, as in
    partial_derivative.
    """
    idx = _VAR_INDEX[var]
    return Poly._raw(tuple([(_shift(m, idx, 1), c / (m[idx] + 1)) for m, c in p.terms]))


def _shift(m: Mono, idx: int, by: int) -> Mono:
    """m with exponent idx changed by `by`; one branch per index beats slicing."""
    if idx == 0:
        return (m[0] + by, m[1], m[2])
    if idx == 1:
        return (m[0], m[1] + by, m[2])
    return (m[0], m[1], m[2] + by)


def apply_derivation(components: Sequence[Poly], p: Poly) -> Poly:
    """Apply the derivation sum_i components[i] * d/dv_i, v = (x, y, z).

    Two components are read as (x, y) with a zero z component.
    """
    return _sum_of_products((comp, partial_derivative(p, var))
                            for comp, var in zip(components, VARIABLES) if comp.terms)


# -- division ---------------------------------------------------------------


class StepBudget:
    """Countdown of elementary reduction steps shared across a computation."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = int(limit)

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise StepBudgetExceeded("reduction step budget exhausted")


# Negated order keys: heapq pops its least entry, which is then the largest
# monomial under the order.
def _lex_heap_key(m: Mono):
    return (-m[2], -m[1], -m[0])


def _grlex_heap_key(m: Mono):
    return (-m[0] - m[1] - m[2], -m[2], -m[1], -m[0])


def _monic_integral(heads) -> bool:
    """True when every ((lm, lc), terms) divisor head is monic with integer coefficients."""
    return all(lc == 1 and all(c.denominator == 1 for _, c in terms)
               for (_, lc), terms in heads)


def divide_multivariate(p: Poly, divisors: Sequence[Poly],
                        order: MonomialOrder = MonomialOrder.LEX,
                        budget: StepBudget | None = None):
    """Divide p by an ordered list of nonzero divisors.

    Returns (quotients, remainder) with p equal to
    sum(quotients[i] * divisors[i]) + remainder and no remainder term
    divisible by any divisor's leading monomial.  Each step reduces by the
    earliest-listed divisor whose leading monomial divides the current
    leading term, so the result is deterministic in the divisor order.
    Every leading term processed spends one step of budget.

    The dividend is kept as a {monomial: coefficient} dict with a heap of
    its monomials (heap division, Monagan & Pearce 2007), so a step costs
    the divisor's tail, not a re-sort of the whole dividend.  When every
    divisor is monic with integer coefficients (curve bases, localization
    denominators), the loop runs on integer numerators over the dividend's
    common denominator, since no step then divides, and each output term
    becomes one Fraction at the end; other divisors keep Fraction
    coefficients throughout.  Both give the same steps and results.
    """
    divisors = list(divisors)
    if not divisors:
        raise ValueError("divisors must be nonempty")
    if any(d.is_zero() for d in divisors):
        raise ValueError("cannot divide by the zero polynomial")
    heap_key = _lex_heap_key if order is MonomialOrder.LEX else _grlex_heap_key
    heads = [(d.leading_term(order), d.terms) for d in divisors]
    integral = _monic_integral(heads)
    if integral:
        den = lcm(*{c.denominator for _, c in p.terms})
        acc = {m: c.numerator * (den // c.denominator) for m, c in p.terms}
        heads = [(dm, 1, [(m, c.numerator) for m, c in terms if m != dm])
                 for (dm, _), terms in heads]
    else:
        acc = dict(p.terms)
        heads = [(dm, dc, [t for t in terms if t[0] != dm]) for (dm, dc), terms in heads]
    quotients: list[dict] = [{} for _ in divisors]
    rem: dict = {}
    # the budget counts down in a local, written back when the loop ends
    left = inf if budget is None else budget.remaining
    heap = [(heap_key(m), m) for m in acc]
    heapify(heap)
    while heap:
        lm = heappop(heap)[1]
        # a popped monomial is never recreated: later steps only touch
        # monomials below it, so it leaves the dict for good
        lc = acc.pop(lm)
        if not lc:
            continue
        left -= 1
        if left < 0:
            budget.remaining = 0
            budget.spend()  # raises StepBudgetExceeded
        for i, (dm, dc, tail) in enumerate(heads):
            if mono_divides(dm, lm):
                qm = mono_div(lm, dm)
                # dc is 1 throughout the integer loop, which never divides
                qc = lc if dc == 1 else lc / dc
                # leading monomials only fall, so qm is new to this quotient
                quotients[i][qm] = qc
                q0, q1, q2 = qm
                for (t0, t1, t2), tc in tail:
                    m = (q0 + t0, q1 + t1, q2 + t2)
                    v = acc.get(m)
                    if v is None:
                        acc[m] = -(qc * tc)
                        heappush(heap, (heap_key(m), m))
                    else:
                        # may cancel to zero; the heap entry is skipped when popped
                        acc[m] = v - qc * tc
                break
        else:
            rem[lm] = lc
    if budget is not None:
        budget.remaining = left
    if integral:
        quotients = [{m: Fraction(n, den) for m, n in q.items()} for q in quotients]
        rem = {m: Fraction(n, den) for m, n in rem.items()}
    return [Poly._from_dict(q) for q in quotients], Poly._from_dict(rem)


def gcd_univariate(p: Poly, q: Poly, var: str = "x") -> Poly:
    """Monic gcd of two polynomials in the single variable var."""
    for item in (p, q):
        if not item.uses_only((var,)):
            raise ValueError(f"gcd_univariate needs polynomials in {var} only")
    a, b = p, q
    while not b.is_zero():
        _, r = divide_multivariate(a, [b])
        a, b = b, r
    if a.is_zero():
        return a
    return a * (1 / a.leading_term()[1])


# -- parsing ----------------------------------------------------------------

# Deepest parenthesis nesting the recursive-descent parser accepts; each
# level costs four Python frames, so deeper text would hit the interpreter's
# recursion limit instead of failing with a ParseError.
MAX_NESTING = 100

# Most work one polynomial text may cost to parse.  The step budget bounds
# only division, so without this a short text such as (x+1)^3000 or
# 3^200000000 could run unbounded.  Each product and power step is charged
# before it runs, len(a.terms) * len(b.terms) * (1 + w_a * w_b) with w the
# width in 64-bit words of the integer numerators the product multiplies:
# the longest numerator of the operand plus the length of the lcm of its
# denominators.  So neither many small terms, nor few huge coefficients, nor
# many distinct denominators escape the bound; (x+1)^600 costs about
# 2,000,000.
MAX_PARSE_COST = 3_000_000


def _tokenize(text: str):
    text = text.replace("−", "-").replace("·", "*")
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if ch in "xyz":
            tokens.append(("var", ch))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} in polynomial text")
    return tokens


def _coeff_words(p: Poly) -> int:
    """Widest integer numerator a product multiplies for p, in 64-bit words.

    _sum_of_products scales each coefficient of p to an integer numerator
    over the lcm of all of p's denominators, so the width is at most the
    longest numerator plus the length of that lcm.
    """
    bits = 0
    den = 1
    for _, c in p.terms:
        n, d = c.as_integer_ratio()
        b = n.bit_length()
        if b > bits:
            bits = b
        if den % d:
            den = lcm(den, d)
    return -(-(bits + den.bit_length()) // 64)


class _PolyParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.cost = 0

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
        wa = _coeff_words(a)
        wb = wa if b is a else _coeff_words(b)
        self.cost += len(a.terms) * len(b.terms) * (1 + wa * wb)
        if self.cost > MAX_PARSE_COST:
            raise StepBudgetExceeded(
                f"parse phase: polynomial text costs more than {MAX_PARSE_COST} "
                "coefficient word products to expand")
        return a * b

    def parse(self) -> Poly:
        e = self.expr()
        if self.pos != len(self.tokens):
            kind = self.tokens[self.pos][1]
            raise ParseError(f"unexpected {kind!r} after polynomial")
        return e

    def expr(self) -> Poly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        # the signed terms merge into one dict and the sum is built once, so
        # its work is linear in the terms its charged operands produced
        acc: dict = {}
        while True:
            for m, c in self.term().terms:
                if sign < 0:
                    c = -c
                v = acc.get(m)
                acc[m] = c if v is None else v + c
            if self.peek() not in ("+", "-"):
                return Poly._from_dict(acc)
            sign = 1 if self.take()[0] == "+" else -1

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
        base = self.atom()
        if self.peek() == "^":
            self.take()
            kind, text = self.take() if self.pos < len(self.tokens) else (None, "")
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            base = _power(base, int(text), self.mul)
        return base

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
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    return _PolyParser(tokens).parse()
