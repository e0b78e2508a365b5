"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """A requested computation exceeds a configured resource cap.

    Raised instead of attempting work whose time or memory would blow up
    (full enumerations, disorder averages, oversized graphs).  The message
    states the offending size and the cap so callers can decide whether to
    raise the cap explicitly.
    """


class DomainError(ValueError):
    """A caller-supplied argument lies outside the domain the library covers.

    Raised by the checks on model, chain, seed and test-function parameters
    and on the arguments of the chain, enumeration, oracle, series and
    prediction entry points; the CLI maps it to exit 2.  A plain ValueError
    instead reports a failed internal invariant or a numerical impossibility.
    """


class GraphFormatError(ValueError):
    """A graph file could not be parsed.

    ``line`` is the 1-based line number of the offending input line (the
    header counts as line 1), or None when the problem is not tied to a
    single line (e.g. truncated file).
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
