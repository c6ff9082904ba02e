"""Exception taxonomy shared by all modules.

Input problems raise subclasses of :class:`InputError`; violations of
identities that are supposed to hold unconditionally raise
:class:`InternalIdentityError` (these always indicate a bug, never bad data).
"""


class PPChowError(Exception):
    pass


class InputError(PPChowError):
    """Malformed or inconsistent user input."""


class InternalIdentityError(PPChowError):
    """A structural identity failed; this is a bug, not an input problem."""


# geometry
class NonSCR(InputError):
    pass


class NotAComplex(InputError):
    pass


class IncompleteInput(InputError):
    pass


class NotAVertex(InputError):
    pass


class UnboundedEdge(InputError):
    pass


class NotARecessionCone(InputError):
    pass


class PointOutsideSupport(InputError):
    pass


class RecessionMismatch(InputError):
    pass


class NotARefinement(InputError):
    pass


# polynomials and piecewise data
class DegreeMismatch(InputError):
    pass


class NotPolynomial(InputError):
    """A rational-function sum failed exact division; carries the remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NotRegular(InputError):
    pass


class NotARay(InputError):
    pass


class NotACone(InputError):
    pass


class NotProper(InputError):
    pass


class FaceMismatch(InputError):
    """Piecewise data disagrees on a shared face; carries the witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FacetMismatch(FaceMismatch):
    pass


class NotInKernel(InputError):
    pass


# limits and towers
class CompatibilityViolation(InputError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotStabilized(PPChowError):
    """Inconclusive at the current truncation depth; reported, not asserted."""


class NotALifting(InputError):
    pass


class DecompositionFailed(InternalIdentityError):
    pass


# arithmetic cycles
class WeightNotOrthogonal(InputError):
    pass


class NoCertificate(InputError):
    pass


class NotCycleSupported(InputError):
    pass
