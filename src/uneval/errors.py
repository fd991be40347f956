"""Exception hierarchy shared across the package."""


class UnevalError(Exception):
    """Base class for all errors raised by this package."""


class JsonParseError(UnevalError):
    """Instance text is not valid JSON."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class DuplicateKeyError(JsonParseError):
    """A JSON object defines the same member name twice."""


class SchemaParseError(UnevalError):
    """Schema text does not conform to the supported grammar.

    ``path`` is the JSON pointer of the offending value.  The parser
    prepends its segments while the error unwinds, so the message is
    composed when it is read.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.message = message
        self.path = path

    def __str__(self):
        return f"{self.path or '<root>'}: {self.message}"


class RefResolutionError(UnevalError):
    """A reference does not resolve inside the current document."""


class GuardednessError(UnevalError):
    """A reference cycle crosses only boolean keywords and references."""

    def __init__(self, cycle: list[str]):
        super().__init__("unguarded recursion through " + " -> ".join(cycle))
        self.cycle = cycle


class EliminationError(UnevalError):
    """Internal invariant of the rewriting pipeline was violated."""


class NestingDepthError(UnevalError):
    """A schema or instance nests deeper than the interpreter's recursion
    limit lets parsing, validation or rewriting follow."""
