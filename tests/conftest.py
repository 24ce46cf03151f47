import random
from fractions import Fraction

import pytest

from bracketdec.poly import Poly

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}


def _rand_poly(rng: random.Random, variables=("x", "y"), max_degree=3,
               coeff_lo=-9, coeff_hi=9, max_terms=6, nonzero=False,
               max_denominator=1) -> Poly:
    """Random polynomial in the given variables.

    Coefficients are integers unless max_denominator > 1; then each is an
    integer over a random denominator in [1, max_denominator].
    """
    allowed = [_VAR_INDEX[v] for v in variables]
    lo_terms = 1 if nonzero else 0
    while True:
        terms = []
        for _ in range(rng.randint(lo_terms, max_terms)):
            mono = [0, 0, 0]
            for _ in range(rng.randint(0, max_degree)):
                mono[rng.choice(allowed)] += 1
            coeff = rng.randint(coeff_lo, coeff_hi)
            if max_denominator > 1:
                coeff = Fraction(coeff, rng.randint(1, max_denominator))
            terms.append((tuple(mono), coeff))
        p = Poly(terms)
        if not nonzero or not p.is_zero():
            return p


@pytest.fixture
def rand_poly():
    return _rand_poly
