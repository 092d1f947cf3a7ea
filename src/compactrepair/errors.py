"""Exception types shared across the package."""


class CompactRepairError(Exception):
    """Base class for all library-specific errors."""


class NonPrimeError(CompactRepairError, ValueError):
    """The characteristic passed to a field constructor is not prime."""


class FieldTooLargeError(CompactRepairError, ValueError):
    """Requested field order exceeds the 2**20 desk-scale cap."""


class ReducibleModulusError(CompactRepairError, ValueError):
    """Supplied modulus polynomial is not irreducible over F_p."""


class InvalidSubfieldError(CompactRepairError, ValueError):
    """Requested subfield order p^m needs m to divide s*ell."""


class SeedWithoutZeroError(CompactRepairError, ValueError):
    """Coset-family seeds must contain the zero element."""


class EmptyFamilyError(CompactRepairError, ValueError):
    """Hitting-set routines need at least one set."""


class BudgetExceededError(CompactRepairError, RuntimeError):
    """An exhaustive enumeration would exceed its pattern budget."""


class DimensionTooSmallError(CompactRepairError, ValueError):
    """A repair scheme over S* needs |S| = q^delta > k."""


class ZeroDilationError(CompactRepairError, ValueError):
    """Dilation factor b must be nonzero."""


class NotAHelperError(CompactRepairError, ValueError):
    """Payload requested for a point outside the scheme's helper set."""


class MissingPayloadError(CompactRepairError, ValueError):
    """Symbol recovery needs exactly one payload per helper."""


class RankDeficientError(CompactRepairError, ValueError):
    """Check evaluations at the repaired point do not have full rank."""


class InvalidDivisorError(CompactRepairError, ValueError):
    """Base-field counts are defined only for divisors of gcd(ell, delta)."""


class NonIntegerResultError(CompactRepairError, ArithmeticError):
    """Burnside sum failed to divide exactly; signals an implementation bug."""


class InvariantError(CompactRepairError, RuntimeError):
    """A mathematical invariant of a computed result failed; signals a bug."""
