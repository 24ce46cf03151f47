"""Exception types shared across the package, each with the JSON error code
and the exit status the CLI reports for it; subclasses inherit the status."""


class BracketDecError(Exception):
    """Base class for all package errors."""

    code = "invalid_input"
    exit_status = 2


class ParseError(BracketDecError):
    """Malformed polynomial, element, curve, or pair-list text."""

    code = "parse_error"
    exit_status = 2


class ValidationError(BracketDecError):
    """An input fails one of the documented preconditions."""

    code = "validation_error"
    exit_status = 3


class NotSmooth(ValidationError):
    """The plane curve has a singular point: no unit certificate for its Jacobian ideal."""

    code = "not_smooth"


class BadVariables(ValidationError):
    """A polynomial uses variables outside the curve's coordinate ring."""

    code = "bad_variables"


class DoesNotPreserveIdeal(ValidationError):
    """The candidate derivation does not map the curve ideal into itself."""

    code = "does_not_preserve_ideal"


class UnitCertificateAbsent(ValidationError):
    """The derivation's components do not generate the unit ideal modulo the curve."""

    code = "unit_certificate_absent"


class ZeroTau(ValidationError):
    """The candidate trivializing field vanishes identically on the curve."""

    code = "zero_tau"


class CurveMismatch(ValidationError):
    """Operands live on different curves."""

    code = "curve_mismatch"


class CertificateFailure(ValidationError):
    """A constructed certificate or decomposition failed its own verification."""

    code = "certificate_failure"


class StepBudgetExceeded(BracketDecError):
    """The configured reduction-step budget was exhausted."""

    code = "step_budget_exceeded"
    exit_status = 4
