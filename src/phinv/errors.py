"""Exception hierarchy.

Errors split into two families that the CLI maps to exit codes:
input/format problems (exit 2) and numerical guards (exit 3).
Verification failures are not exceptions; they surface as a nonzero
report status (exit 1).
"""

from __future__ import annotations


class PhinvError(Exception):
    """Base class for all package errors."""


class InputError(PhinvError):
    """Bad user input: config, file format, CLI arguments."""


class ConfigError(InputError):
    """Scenario config validation failure, names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class FormatError(InputError):
    """Malformed or inconsistent artifact file (CSV, report JSON)."""


class NumericsError(PhinvError):
    """A numerical guard or domain restriction tripped."""


class DimensionError(NumericsError):
    """Operator dimension outside the supported range."""


class ShapeError(NumericsError):
    """Mismatched operand shapes."""


class DomainError(NumericsError):
    """Scalar argument outside the mathematical domain."""


class SingularMetricError(NumericsError):
    """Factorization denominator vanished or the metric left its domain."""


class ConstraintSingularityError(NumericsError):
    """Coefficient constraints divide by 2*Phi^2 - vtheta0 = 0."""


class NonRealPhaseError(NumericsError):
    """|Im W| exceeded tolerance, so phases would not be real."""


class StencilError(NumericsError):
    """Finite-difference stencil does not fit at the requested time."""


class InstabilityError(NumericsError):
    """Propagation overflowed; carries the offending time."""

    def __init__(self, time: float, message: str = ""):
        self.time = time
        detail = message or "state norm overflow"
        super().__init__(f"propagation unstable at t={time:.6g}: {detail}")


class GuardError(NumericsError):
    """A run-policy guard stopped the pipeline; carries guard name and time."""

    def __init__(self, guard: str, time: float, detail: str = ""):
        self.guard = guard
        self.time = time
        msg = f"guard '{guard}' tripped at t={time:.6g}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class TruncationWarning(UserWarning):
    """State has noticeable support on the top Fock levels."""
