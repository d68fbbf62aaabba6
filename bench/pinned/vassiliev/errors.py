"""Exception types shared across the package."""


class DiagramError(ValueError):
    """Structurally malformed diagram data (bad word, bad incidence, ...)."""


class ResourceGuardError(ValueError):
    """Requested computation exceeds the built-in enumeration guards."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""
