"""Exception hierarchy shared across the package.

Two broad failure classes matter for callers (and for CLI exit codes):
``PreconditionError`` for inputs that violate a documented contract, and
``CertificationError`` for computations that ran but whose numerical
guarantee failed (-d^2 + q + kappa^2 not certified positive on either route
of g and alpha, a tripped blow-up guard, a search whose every start aborted).
"""


class KdvLabError(Exception):
    """Base class for all package errors."""


class PreconditionError(KdvLabError):
    """An operation was called outside its documented domain."""


class GridMismatchError(PreconditionError):
    """Two fields that must share a grid do not."""


class MeanZeroError(PreconditionError):
    """A mean-zero field was required but the zero mode is not negligible."""


class SupportError(PreconditionError):
    """Compact-support geometry does not fit the requested box or period."""


class UnderResolvedError(PreconditionError):
    """The sample grid is too coarse for the requested construction."""


class NoAdmissibleWindowError(PreconditionError):
    """Window selection found no admissible cut location."""


class CertificationError(KdvLabError):
    """A numerical certificate could not be established."""


class BlowUpError(CertificationError):
    """The blow-up guard tripped during time integration."""

    def __init__(self, message, time=None, norm_before=None, norm_after=None):
        super().__init__(message)
        self.time = time
        self.norm_before = norm_before
        self.norm_after = norm_after


class SearchFailureError(CertificationError):
    """Every candidate evolution in a search aborted."""
