"""Error taxonomy shared by the library and the command line tool."""


class KscolorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(KscolorError, ValueError):
    """Input violates a documented precondition (maps to exit code 2)."""


class DegenerateInputError(KscolorError, ValueError):
    """Input is structurally valid but degenerate, e.g. linearly dependent
    vectors or a POVM with no usable margin (maps to exit code 3)."""


class NotApplicableError(KscolorError, ValueError):
    """A verification was requested for an object outside the domain of the
    verified identity, e.g. a truth sum over an unsuitable frame (exit code 2)."""


class ResourceLimitError(KscolorError, RuntimeError):
    """A construction missed its proven bound, or an iterative one exhausted
    its budget (exit code 4).

    Carries the exactly computed distance reached, when one exists, so
    callers can report how close the construction got.
    """

    def __init__(self, message, achieved_dist2=None):
        super().__init__(message)
        self.achieved_dist2 = achieved_dist2
