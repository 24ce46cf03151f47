"""Buchberger's algorithm with cofactor tracking, and membership certificates.

Every Groebner basis element carries an explicit representation in terms of
the input generators, threaded through each S-polynomial and reduction step.
Each row of a basis is a MembershipCertificate: a checkable identity
``target == sum(cofactors[j] * generators[j])``, verified exactly once,
when Buchberger's final step builds it.  Ideal membership comes back the
same way instead of as a bare yes/no, and the reduced basis of the unit
ideal is exactly (1,), so its one row is the unit certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

from .poly import (
    MonomialOrder,
    Poly,
    StepBudget,
    divide_multivariate,
    mono_coprime,
    mono_divides,
    mono_lcm,
    mono_div,
    _sum_of_products,
)

DEFAULT_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis whose rows are membership certificates.

    ``rows[i]`` certifies the i-th basis element over the generators; each
    row checked its identity when it was built.  The basis is reduced
    (monic elements, no term of one divisible by another's leading
    monomial) and sorted descending by leading monomial, so equal ideals
    computed from the same generators compare equal.
    """

    generators: tuple
    rows: tuple
    order: MonomialOrder

    def __post_init__(self):
        if any(row.generators != self.generators for row in self.rows):
            raise ValueError("every row must be over the basis's generators")

    @property
    def basis(self) -> tuple:
        return tuple(row.target for row in self.rows)


@dataclass(frozen=True)
class MembershipCertificate:
    """Witness that target lies in the ideal of the generators.

    The defining identity ``target == sum(cofactors[j] * generators[j])``
    is checked exactly on construction.
    """

    target: Poly
    generators: tuple
    cofactors: tuple

    def __post_init__(self):
        if len(self.cofactors) != len(self.generators):
            raise ValueError("one cofactor per generator")
        if _sum_of_products(zip(self.cofactors, self.generators)) != self.target:
            raise ValueError("cofactors do not recombine to the target")


def _reduced_row(inv: Fraction, base, quotients, rows) -> tuple:
    """inv * (sum of the base's multiplier * row - sum_k quotients[k] * rows[k]).

    base is a sequence of (multiplier, row) pairs; each component of the
    result is one kernel call.
    """
    terms = [(u * inv, row) for u, row in base]
    terms += [(q * -inv, row) for q, row in zip(quotients, rows) if q]
    return tuple(_sum_of_products((a, row[t]) for a, row in terms)
                 for t in range(len(base[0][1])))


def buchberger(generators: Sequence[Poly],
               order: MonomialOrder = MonomialOrder.LEX,
               max_steps: int = DEFAULT_MAX_STEPS) -> GroebnerBasis:
    """Reduced Groebner basis of the generators' ideal, with cofactors.

    Each element joining the basis, generators included, updates the pair
    set by the Gebauer-Moeller criteria (Gebauer & Moeller 1988), in this
    order: criterion B drops a waiting pair (i, j) whose lcm the new leading
    monomial divides without matching lcm(i, t) or lcm(j, t); among the new
    pairs (k, t), criterion M drops one whose lcm another new lcm properly
    divides, criterion F keeps one pair per lcm (the lowest k), and an
    lcm's pairs all go when one of them is coprime.  The reduced basis is
    the same without the criteria, and on every corpus tested so are the
    cofactor rows: the criteria only save steps.  Pairs are processed
    smallest lcm first (ties by index), every reduction goes through the
    shared division routine, and a cofactor row is built only for a
    nonzero remainder, so the output is deterministic.  Raises
    StepBudgetExceeded once max_steps reduction steps are spent.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("generators must be nonempty")
    budget = StepBudget(max_steps)
    ngen = len(gens)

    polys: list[Poly] = []
    rows: list[tuple] = []
    lts: list = []
    # waiting pairs (order key of the lcm, i, j, lcm): the heap pops them in
    # the same order as a scan for the least (key, i, j) would
    pairs: list = []

    def join(p: Poly, row: tuple) -> None:
        nonlocal pairs
        t = len(polys)
        lt = p.leading_term(order)
        lm = lt[0]
        lcms = [mono_lcm(lk, lm) for lk, _ in lts]
        # criterion B on the waiting pairs
        waiting = [pr for pr in pairs
                   if not (mono_divides(lm, pr[3]) and lcms[pr[1]] != pr[3]
                           and lcms[pr[2]] != pr[3])]
        if len(waiting) != len(pairs):
            pairs = waiting
            heapify(pairs)
        # criteria M and F and the coprime rule on the new pairs
        groups: dict = {}
        for k, lcm in enumerate(lcms):
            if any(other != lcm and mono_divides(other, lcm) for other in lcms):
                continue
            groups.setdefault(lcm, []).append(k)
        for lcm, ks in groups.items():
            if not any(mono_coprime(lts[k][0], lm) for k in ks):
                heappush(pairs, (order.key(lcm), ks[0], t, lcm))
        polys.append(p)
        rows.append(row)
        lts.append(lt)

    for j, g in enumerate(gens):
        if not g.is_zero():
            join(g, tuple(Poly.one() if t == j else Poly.zero() for t in range(ngen)))
    if not polys:
        return GroebnerBasis(gens, (), order)

    while pairs:
        _, i, j, lcm = heappop(pairs)
        lmi, lci = lts[i]
        lmj, lcj = lts[j]
        ui = Poly.monomial(mono_div(lcm, lmi), 1 / lci)
        uj = Poly.monomial(mono_div(lcm, lmj), -1 / lcj)
        s = _sum_of_products(((ui, polys[i]), (uj, polys[j])))
        if s.is_zero():
            continue
        quotients, rem = divide_multivariate(s, polys, order, budget)
        if rem.is_zero():
            continue
        inv = 1 / rem.leading_term(order)[1]
        join(rem * inv, _reduced_row(inv, ((ui, rows[i]), (uj, rows[j])), quotients, rows))

    # minimal basis: drop elements whose leading monomial another divides
    by_lm = sorted(range(len(polys)), key=lambda i: (order.key(lts[i][0]), i))
    kept: list[int] = []
    for i in by_lm:
        lm = lts[i][0]
        if any(mono_divides(lts[k][0], lm) for k in kept):
            continue
        kept.append(i)

    # reduce each survivor against the others; leading monomials are
    # pairwise nondivisible, so each normal form keeps its leading term
    final = []
    for i in kept:
        others = [k for k in kept if k != i]
        if others:
            quotients, rem = divide_multivariate(
                polys[i], [polys[k] for k in others], order, budget)
        else:
            quotients, rem = [], polys[i]
        inv = 1 / rem.leading_term(order)[1]
        row = _reduced_row(inv, ((Poly.one(), rows[i]),), quotients, [rows[k] for k in others])
        final.append(MembershipCertificate(rem * inv, gens, row))

    final.sort(key=lambda c: order.key(c.target.leading_monomial(order)), reverse=True)
    return GroebnerBasis(gens, tuple(final), order)


def normal_form(p: Poly, gb: GroebnerBasis, budget: StepBudget | None = None) -> Poly:
    """Remainder of p modulo the basis; the canonical coset representative."""
    if not gb.rows:
        return p
    _, rem = divide_multivariate(p, list(gb.basis), gb.order, budget)
    return rem


def certificate_from_basis(target: Poly, gb: GroebnerBasis,
                           budget: StepBudget | None = None
                           ) -> Optional[MembershipCertificate]:
    """Membership certificate for target using a precomputed basis.

    Returns None when target is not in the ideal.  Cofactors are expressed
    against the original generators by composing the division quotients with
    the basis rows' cofactors.
    """
    if target.is_zero():
        zeros = tuple(Poly.zero() for _ in gb.generators)
        return MembershipCertificate(target, gb.generators, zeros)
    if not gb.rows:
        return None
    quotients, rem = divide_multivariate(target, list(gb.basis), gb.order, budget)
    if not rem.is_zero():
        return None
    cofs = tuple(_sum_of_products((q, row.cofactors[t]) for q, row in zip(quotients, gb.rows))
                 for t in range(len(gb.generators)))
    return MembershipCertificate(target, gb.generators, cofs)


def unit_certificate(generators: Sequence[Poly], order: MonomialOrder,
                     max_steps: int) -> Optional[MembershipCertificate]:
    """The certificate 1 = sum(c_j * g_j) over the generators, or None.

    None means the generators' ideal is proper.  The reduced basis of the
    unit ideal is exactly (1,), so its one row already is the certificate,
    checked when buchberger built it: no division and no second check.
    """
    gb = buchberger(generators, order, max_steps)
    return gb.rows[0] if gb.basis == (Poly.one(),) else None
