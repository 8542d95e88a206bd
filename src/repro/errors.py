"""Exception hierarchy for the ``repro`` library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing parse errors from storage or rewriting failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XMLParseError(ReproError):
    """Raised when an XML document cannot be parsed.

    Attributes
    ----------
    position:
        Byte offset in the input at which the error was detected, or
        ``None`` when not applicable.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class XPathSyntaxError(ReproError):
    """Raised when an XPath expression is not in ``XP{/, //, *, []}``."""

    def __init__(self, message: str, expression: str | None = None):
        if expression is not None:
            message = f"{message} in expression {expression!r}"
        super().__init__(message)
        self.expression = expression


class PatternError(ReproError):
    """Raised for malformed tree patterns (e.g. missing answer node)."""


class EncodingError(ReproError):
    """Raised when an extended Dewey code cannot be derived or decoded."""


class SchemaError(ReproError):
    """Raised when a label is missing from the document schema."""


class StorageError(ReproError):
    """Raised by the key-value store and fragment store."""


class StorageCorruptionError(StorageError):
    """Raised when a stored record fails its integrity check."""


class ViewNotAnswerableError(ReproError):
    """Raised when a query cannot be answered from the registered views.

    Carries the set of query leaves that no view covers, which is the
    actionable piece of information for a view-advisor workflow.
    """

    def __init__(
        self, message: str, uncovered: frozenset[object] | None = None
    ):
        super().__init__(message)
        self.uncovered: frozenset[object] = (
            uncovered if uncovered is not None else frozenset()
        )


class DuplicateViewError(ReproError, ValueError):
    """Raised when registering a view id that is already registered.

    Also a :class:`ValueError`, which is what registration raised before
    the error was typed, so existing ``except ValueError`` callers keep
    working.
    """


class RewritingError(ReproError):
    """Raised when rewriting fails despite a positive answerability check.

    This error indicates a library bug (answerability is supposed to be
    sound); it exists so such bugs surface loudly instead of returning
    wrong answers.
    """
