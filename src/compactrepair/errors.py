"""Exception types shared across the package.

The rule: bad input raises a plain ValueError whose message names what
is wrong, whatever layer finds it.  A class of its own is kept only for
an error that means something else: InvariantError, a bug, and
BudgetExceededError, a valid request over an enumeration budget.  Both
derive from CompactRepairError, which the CLI reports like a ValueError.
"""


class CompactRepairError(Exception):
    """Base class for all library-specific errors."""


class BudgetExceededError(CompactRepairError, RuntimeError):
    """An exhaustive enumeration would exceed its pattern budget."""


class InvariantError(CompactRepairError, RuntimeError):
    """A mathematical invariant of a computed result failed; signals a bug."""
