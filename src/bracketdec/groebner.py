"""Buchberger's algorithm with cofactor tracking, and membership certificates.

Every Groebner basis element carries an explicit representation in terms of
the input generators, threaded through each S-polynomial and reduction step.
Each row of a basis is a MembershipCertificate: a checkable identity
``target == sum(cofactors[j] * generators[j])``, verified exactly once,
when Buchberger's final step builds it.  Ideal membership comes back the
same way instead of as a bare yes/no, and the reduced basis of the unit
ideal is exactly (1,), so its one row is the unit certificate.

Normal forms need no quotients, so normal_form calls poly's one remainder
entry, which the curves call themselves on the sums of products of a
bracket or a ring product.  How coefficients are stored stays inside poly:
this module reads only leading terms, packed monomials through poly's helpers.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heapify, heappop, heappush

from .poly import (
    MonomialOrder,
    Poly,
    StepBudget,
    _leading,
    _mono_divides,
    _mono_key,
    _mono_lcm,
    _monomial,
    _Record,
    _remainder,
    _sum_of_products,
    divide_multivariate,
    run_budget,
)


class GroebnerBasis(_Record):
    """A reduced Groebner basis whose rows are membership certificates.

    ``rows[i]`` certifies the i-th basis element over the generators; each
    row checked its identity when it was built.  The basis is reduced
    (monic elements, no term of one divisible by another's leading
    monomial) and sorted descending by leading monomial, so equal ideals
    computed from the same generators compare equal.
    """

    __slots__ = _fields = ("generators", "rows", "order")

    def __init__(self, generators: tuple, rows: tuple, order: MonomialOrder):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "order", order)
        self.__post_init__()

    def __post_init__(self):
        if any(row.generators != self.generators for row in self.rows):
            raise ValueError("every row must be over the basis's generators")

    @property
    def basis(self) -> tuple:
        return tuple(row.target for row in self.rows)


class MembershipCertificate(_Record):
    """Witness that target lies in the ideal of the generators.

    The defining identity ``target == sum(cofactors[j] * generators[j])``
    is checked exactly on construction.
    """

    __slots__ = _fields = ("target", "generators", "cofactors")

    def __init__(self, target: Poly, generators: tuple, cofactors: tuple):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "cofactors", cofactors)
        self.__post_init__()

    def __post_init__(self):
        if len(self.cofactors) != len(self.generators):
            raise ValueError("one cofactor per generator")
        if _sum_of_products(zip(self.cofactors, self.generators)) != self.target:
            raise ValueError("cofactors do not recombine to the target")


def _monic_remainder(p: Poly, base, divisors: list, rows: list, order: MonomialOrder,
                     budget: StepBudget) -> tuple | None:
    """One Buchberger step: (r / lc(r), its row) for the remainder r of
    p = sum(u * target of row for u, row in base) by the divisors, whose rows
    are rows, or None for r = 0; each component of the row is one kernel call.
    """
    quotients, rem = divide_multivariate(p, divisors, order, budget) if divisors else ((), p)
    if rem.is_zero():
        return None
    inv = 1 / _leading(rem, order)[1]
    terms = [(u * inv, row) for u, row in base]
    terms += [(q * -inv, row) for q, row in zip(quotients, rows) if q]
    return rem * inv, tuple(_sum_of_products((a, row[t]) for a, row in terms)
                            for t in range(len(base[0][1])))


def buchberger(generators: Sequence[Poly],
               order: MonomialOrder = MonomialOrder.LEX,
               max_steps: int | None = None) -> GroebnerBasis:
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
    StepBudgetExceeded once max_steps reduction steps, or run_budget(), are spent.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("generators must be nonempty")
    budget = run_budget() if max_steps is None else StepBudget(max_steps)
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
        lt = _leading(p, order)
        lm = lt[0]
        lcms = [_mono_lcm(lk, lm) for lk, _ in lts]
        # criterion B on the waiting pairs
        waiting = [pr for pr in pairs
                   if not (_mono_divides(lm, pr[3]) and lcms[pr[1]] != pr[3]
                           and lcms[pr[2]] != pr[3])]
        if len(waiting) != len(pairs):
            pairs = waiting
            heapify(pairs)
        # criteria M and F and the coprime rule on the new pairs
        groups: dict = {}
        for k, lcm in enumerate(lcms):
            if any(other != lcm and _mono_divides(other, lcm) for other in lcms):
                continue
            groups.setdefault(lcm, []).append(k)
        for lcm, ks in groups.items():
            if not any(lcm == lts[k][0] + lm for k in ks):  # coprime
                heappush(pairs, (_mono_key(lcm, order), ks[0], t, lcm))
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
        ui = _monomial(lcm - lmi, 1 / lci)
        uj = _monomial(lcm - lmj, -1 / lcj)
        s = _sum_of_products(((ui, polys[i]), (uj, polys[j])))
        if s.is_zero():
            continue
        step = _monic_remainder(s, ((ui, rows[i]), (uj, rows[j])), polys, rows, order, budget)
        if step is not None:
            join(*step)

    # minimal basis: drop elements whose leading monomial another divides
    by_lm = sorted(range(len(polys)), key=lambda i: (_mono_key(lts[i][0], order), i))
    kept: list[int] = []
    for i in by_lm:
        lm = lts[i][0]
        if any(_mono_divides(lts[k][0], lm) for k in kept):
            continue
        kept.append(i)

    # reduce each survivor against the others; leading monomials are
    # pairwise nondivisible, so each normal form keeps its leading term
    final = []
    for i in kept:
        others = [k for k in kept if k != i]
        rem, row = _monic_remainder(polys[i], ((Poly.one(), rows[i]),),
                                    [polys[k] for k in others], [rows[k] for k in others],
                                    order, budget)
        final.append(MembershipCertificate(rem, gens, row))

    final.sort(key=lambda c: _mono_key(_leading(c.target, order)[0], order), reverse=True)
    return GroebnerBasis(gens, tuple(final), order)


def normal_form(p: Poly, gb: GroebnerBasis, budget: StepBudget | None = None) -> Poly:
    """Remainder of p modulo the basis; the canonical coset representative.

    The division builds no quotients; the zero ideal's empty basis leaves p.
    """
    return _remainder(((p, Poly.one()),), gb.basis, gb.order, budget) if gb.rows else p


def certificate_from_basis(target: Poly, gb: GroebnerBasis) -> MembershipCertificate | None:
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
    quotients, rem = divide_multivariate(target, list(gb.basis), gb.order)
    if not rem.is_zero():
        return None
    cofs = tuple(_sum_of_products((q, row.cofactors[t]) for q, row in zip(quotients, gb.rows))
                 for t in range(len(gb.generators)))
    return MembershipCertificate(target, gb.generators, cofs)


def unit_certificate(generators: Sequence[Poly],
                     order: MonomialOrder) -> MembershipCertificate | None:
    """The certificate 1 = sum(c_j * g_j) over the generators, or None.

    None means the generators' ideal is proper.  The reduced basis of the
    unit ideal is exactly (1,), so its one row already is the certificate,
    checked when buchberger built it: no division and no second check.
    """
    gb = buchberger(generators, order)
    return gb.rows[0] if gb.basis == (Poly.one(),) else None
