"""Exception types shared across the package."""


class EquicutError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(EquicutError, ValueError):
    """Rejected input: malformed value, out-of-range parameter, or a broken precondition."""


class DisconnectedGraphError(InvalidInputError):
    """The graph is not connected; every analysis here assumes connected graphs."""


class EnumerationCapError(EquicutError):
    """Instance is above the exhaustive limit (solver.MAX_EXHAUSTIVE_N); use branch and bound instead."""
