"""Exception types shared across the package."""


class TriageError(Exception):
    """Base class for all domain errors raised by this package."""


class UnrecognizedFormat(TriageError):
    """Input text matches neither a tasklist-style nor a ps-style header."""


class EmptyListing(TriageError):
    """A listing contained a header but no countable process rows."""


class _LineError(TriageError):
    """An error that names the input line it was found on."""

    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}" if detail else f"line {line_no}")


class MalformedRow(_LineError):
    """A data row could not be parsed (non-numeric pid cell)."""


class MalformedDatasetFile(_LineError):
    """A dataset CSV row failed validation."""


class DatasetTooSmall(TriageError):
    """A split would leave the train or test side empty."""


class EmptyNode(TriageError):
    """Impurity requested for a node with zero samples."""


class LengthMismatch(TriageError):
    """Paired prediction/label sequences have different lengths."""


class ModelFormatError(TriageError):
    """A model file does not match any known model schema."""
