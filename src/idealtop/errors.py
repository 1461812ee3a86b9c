"""Exception hierarchy shared by all idealtop modules."""


class IdealTopError(Exception):
    """Base class for all errors raised by this package."""


class BadMask(IdealTopError):
    """A subset mask has bits outside the ground set 0..n-1."""


class BadPoint(IdealTopError):
    """A point index is outside the ground set."""


class NotATopology(IdealTopError):
    """A set family is not a topology (missing empty/full set, or not
    closed under union/intersection), or a minimal-neighborhood table is
    not reflexive/transitive."""


class DimensionMismatch(IdealTopError):
    """Point counts of combined objects disagree."""


class CapExceeded(IdealTopError):
    """A point count or search bound is above the supported cap."""


class UnknownTheorem(IdealTopError):
    """Theorem identifier not in the checker registry."""


class BadSearchOption(IdealTopError):
    """A search mode or sample size is outside its accepted values."""


class UnknownHypothesisName(IdealTopError):
    """A dropped-hypothesis name does not occur in the theorem."""


class InputFileError(IdealTopError):
    """A JSON input document failed to parse into a valid object.  The
    message carries the position (path) of the offending element."""
