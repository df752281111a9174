"""Exception types shared across the package."""


class GraphParseError(ValueError):
    """Raised when a graph text file is malformed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapacityError(RuntimeError):
    """An exhaustive enumeration was asked to exceed its stage's cap.

    Failing loudly is deliberate; silently truncating an enumeration would
    corrupt every downstream count.
    """

    def __init__(self, what, size, cap):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"{what}: size {size} exceeds cap {cap}")
