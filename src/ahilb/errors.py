"""Exception hierarchy shared by all modules."""


class AhilbError(Exception):
    """Base class for all errors raised by this package."""


class GroupSpecError(AhilbError):
    """Invalid group specification: syntax error, determinant condition
    failure, or a group exceeding the configured order cap.  Maps to CLI
    exit code 1."""


class InvariantError(AhilbError):
    """An internal consistency check failed (differential-test mismatch,
    broken structural invariant).  Maps to CLI exit code 2."""


class OutputError(AhilbError):
    """An output file cannot be written.  Maps to CLI exit code 1."""
