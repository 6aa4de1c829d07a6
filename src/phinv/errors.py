"""Exception hierarchy.

Errors split into two families that the CLI maps to exit codes:
input/format problems (exit 2) and numerical guards (exit 3).
Verification failures are not exceptions; they surface as a nonzero
report status (exit 1).
"""

from __future__ import annotations


class InputError(Exception):
    """Bad user input: config, file format, CLI arguments."""


class ConfigError(InputError):
    """Scenario config validation failure, names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class FormatError(InputError):
    """Malformed or inconsistent artifact file (CSV, report JSON)."""


class NumericsError(Exception):
    """A numerical guard or domain restriction tripped."""


class DomainError(NumericsError):
    """An argument or a computed quantity left its mathematical domain: a
    dimension, shape or index out of range, a singular metric or constraint
    denominator, a non-real phase, a stencil that does not fit. The message
    names which."""


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
