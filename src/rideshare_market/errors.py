"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """Raised when input data violates a structural invariant.

    ``errors`` carries one message per violated rule so callers can report
    everything at once instead of failing on the first problem.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class IncompatiblePairError(ValidationError):
    """A traveler-vehicle pair was used where compatibility is required."""


class OracleScaleError(RuntimeError):
    """Exhaustive enumeration was requested beyond the desk-scale guard."""


class StabilityPreconditionError(RuntimeError):
    """Stability was checked against an allocation that is not feasible.

    Carries the feasibility report so the caller can see why.
    """

    def __init__(self, report):
        self.report = report
        super().__init__("allocation is not feasible; stability is undefined")


class CertificateError(RuntimeError):
    """An exact proof failed its own check: a dual certificate, a Farkas
    certificate, or an invariant the simplex relies on.  Signals a defect
    in the package, never bad input."""
