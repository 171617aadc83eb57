"""Exception types shared across the package."""


class DegenerateCell(ValueError):
    """Basis vectors are (numerically) linearly dependent, cell
    parameters do not define a positive-definite metric, or the cell is so
    large or small that its metrics leave the floating-point range."""


class InvalidScale(ValueError):
    """Scale factor must be strictly positive."""


class ParseError(ValueError):
    """Malformed input file.

    ``line`` carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingCell(ParseError):
    """CIF lacks one of the six cell-parameter tags."""


class MissingSites(ParseError):
    """CIF lacks an atom-site loop with fractional coordinates."""


class SymOpError(ParseError):
    """Symmetry-operation string could not be parsed."""


class OracleInconclusive(RuntimeError):
    """The brute-force patch was too small to certify a connectivity
    threshold below the cell upper bound."""


class EmptyInput(ValueError):
    """An operation requiring at least one point received none."""
