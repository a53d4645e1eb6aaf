"""Exception types shared across the library."""


class ToleranceError(ArithmeticError):
    """A requested tolerance cannot be met within the configured limits.

    ``achievable`` carries the best bound that could be certified, when known.
    """

    def __init__(self, message, achievable=None):
        super().__init__(message)
        self.achievable = achievable


class ReconstructionUnsoundError(ArithmeticError):
    """Sample certificate too weak to close the reconstruction tail.

    Raised when samples carry only a boundedness certificate at the critical
    sampling rate: a bounded, non-decaying sample sequence admits no truncation
    bound for the cardinal series, and the series may converge to the wrong
    function (all-zero samples of a nonzero bounded signal, for instance).
    """
