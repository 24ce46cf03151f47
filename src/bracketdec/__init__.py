"""Exact bracket decompositions of vector fields on smooth affine curves.

Vector fields on a curve with trivial tangent sheaf form O(C) * tau for a
trivializing field tau.  This package constructs, with exact rational
arithmetic and verified certificates, presentations of any such field as a
short sum of Lie brackets: one bracket on the line and on localized lines,
at most two on smooth plane curves, at most three on space curves.
"""

from .curve import (
    AffineLine,
    LocalizedElem,
    LocalizedLine,
    PlaneCurve,
    RingElem,
    SpaceCurve,
    make_plane_curve,
    make_space_curve,
    parse_curve,
)
from .decompose import (
    localize_decomp,
    rational_decompose,
    single_bracket_line,
    solve_rgh,
    three_bracket_space,
    two_bracket_plane,
)
from .errors import (
    BadVariables,
    BracketDecError,
    CertificateFailure,
    CurveMismatch,
    DoesNotPreserveIdeal,
    NotSmooth,
    ParseError,
    StepBudgetExceeded,
    UnitCertificateAbsent,
    ValidationError,
    ZeroTau,
)
from .groebner import (
    GroebnerBasis,
    MembershipCertificate,
    buchberger,
    certificate_from_basis,
    normal_form,
)
from .liealg import BracketDecomp, VField, apply_tau, bracket, recombine
from .poly import (
    DEFAULT_MAX_STEPS,
    MonomialOrder,
    Poly,
    StepBudget,
    antiderivative,
    apply_derivation,
    divide_multivariate,
    gcd_univariate,
    parse_poly,
    partial_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "AffineLine", "BadVariables", "BracketDecError", "BracketDecomp",
    "CertificateFailure", "CurveMismatch", "DEFAULT_MAX_STEPS",
    "DoesNotPreserveIdeal", "GroebnerBasis", "LocalizedElem", "LocalizedLine",
    "MembershipCertificate", "MonomialOrder", "NotSmooth", "ParseError",
    "PlaneCurve", "Poly", "RingElem", "SpaceCurve", "StepBudget", "StepBudgetExceeded",
    "UnitCertificateAbsent", "VField", "ValidationError", "ZeroTau",
    "antiderivative", "apply_derivation", "apply_tau", "bracket", "buchberger",
    "certificate_from_basis", "divide_multivariate", "gcd_univariate",
    "localize_decomp", "make_plane_curve", "make_space_curve", "normal_form",
    "parse_curve", "parse_poly", "partial_derivative",
    "rational_decompose", "recombine", "single_bracket_line", "solve_rgh",
    "three_bracket_space", "two_bracket_plane",
]
