"""Exception types shared by the formalpi modules.

Every error carries a stable ``code`` string so the command line tool can
map failures onto exit codes without parsing messages.
"""


class FormalpiError(Exception):
    """Base class for all formalpi errors."""

    code = "ERROR"


class CompositionNonzeroError(FormalpiError):
    """Two maps that should compose to zero do not."""

    code = "COMPOSITION_NONZERO"


class InvalidInputError(FormalpiError):
    """An algebra presentation failed validation."""

    code = "INVALID_INPUT"


class SimplicialIdentityError(FormalpiError):
    """A cosimplicial identity fails; the message names the identity."""

    code = "SIMPLICIAL_IDENTITY_VIOLATION"


class NotACdgaError(FormalpiError):
    """The differential and product do not satisfy the Leibniz rule."""

    code = "NOT_A_CDGA"


class CutoffTooSmallError(FormalpiError):
    """A requested enumeration bound is vacuous."""

    code = "CUTOFF_TOO_SMALL"


class OutOfRangeError(FormalpiError):
    """A degree/weight slot lies beyond the computed cutoffs."""

    code = "OUT_OF_RANGE"


class DSquaredNonzeroError(FormalpiError):
    """The constructed differential fails to square to zero.

    Carries a witness basis word in ``witness``.
    """

    code = "DSQUARED_NONZERO"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NegativeDimensionError(FormalpiError):
    """A series inverted by PBW is not the size of any enveloping algebra.

    The message names the slot that would get a negative dimension.
    """

    code = "NEGATIVE_DIMENSION"


class CutoffExceededError(FormalpiError):
    """A complete answer was requested but needs weights beyond the cutoff."""

    code = "CUTOFF_EXCEEDED"


class NotCompleteError(FormalpiError):
    """The operation needs a complete (untruncated) homotopy computation."""

    code = "NOT_COMPLETE"


class NotSimplyConnectedError(FormalpiError):
    """The operation requires an input with no classes in degree one."""

    code = "NOT_SIMPLY_CONNECTED"


class DegreeCutoffError(FormalpiError):
    """An intermediate computation needs basis elements beyond the bound."""

    code = "DEGREE_CUTOFF"

