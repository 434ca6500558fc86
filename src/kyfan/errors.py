"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates an operation's preconditions."""


class UnsupportedError(ValueError):
    """The request is outside the supported parameter range (e.g. subdifferentials at
    p < 2 with k >= 2; every norm that is sigma_1 resolves to (2, 1) and is supported)."""


class ParseError(ValueError):
    """A matrix / subspace / norm-spec file or string could not be parsed."""


class IoError(OSError):
    """File I/O failed; the message carries the offending path."""
