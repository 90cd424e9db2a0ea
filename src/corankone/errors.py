"""Exception taxonomy shared across the toolkit."""

# validation errors quote at most this many characters of the offending text
QUOTE_LIMIT = 80


def quote(text: str) -> str:
    """repr of text, cut to QUOTE_LIMIT characters and marked with '...'."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return repr(text[:QUOTE_LIMIT]) + "..."


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ToolkitWarning(UserWarning):
    """Non-fatal diagnostics (e.g. proceeding formally past a soft precondition)."""


class ExprError(ToolkitError):
    """Arithmetic-level failure (zero denominator, bad power, ...)."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExprSyntaxError):
    def __init__(self, name: str, position: int):
        ExprError.__init__(self, f"unknown identifier {quote(name)} (at position {position})")
        self.position = position
        self.name = name


class EvaluationSingularity(ExprError):
    """Numeric evaluation hit a pole or a domain error."""


class ChartError(ToolkitError):
    pass


class ChartMismatchError(ToolkitError):
    pass


class DegreeError(ToolkitError):
    pass


class DivisionObstructedError(ToolkitError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BadTransversalError(ToolkitError):
    pass


class NotIntegrableError(ToolkitError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotTransversalError(ToolkitError):
    pass


class NotCorankOneError(ToolkitError):
    pass


class DegenerateError(ToolkitError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateVolumeError(ToolkitError):
    pass


class InvariantsNotVanishingError(ToolkitError):
    pass


class NotPoissonFieldError(ToolkitError):
    pass


class PivotUndecidableError(ToolkitError):
    """A linear-solve pivot had an UNKNOWN zero verdict; refusing to guess."""


class LinearSolveError(ToolkitError):
    pass


class InternalCheckError(ToolkitError):
    """A verified postcondition failed; indicates a bug or bad input."""


class ProblemFileError(ToolkitError):
    def __init__(self, message: str, path: str = "", line: int = 0):
        loc = f"{path}:{line}: " if path else ""
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line
