"""Exception hierarchy shared by every module.

Three branches map onto the CLI exit codes: ValidationError -> 2,
NumericalError -> 3, InfeasibleData -> 4.  NotHerglotz sits under
NumericalError; the interior command remaps it to 4 because there it
always means the supplied data cannot come from any measure.
"""


class PeakonError(Exception):
    pass


class ValidationError(PeakonError):
    pass


class DuplicatePoint(ValidationError):
    pass


class NegativeVee(ValidationError):
    pass


class NullPoint(ValidationError):
    pass


class NumericalError(PeakonError):
    pass


class NonConverged(NumericalError):
    pass


class NotHerglotz(NumericalError):
    pass


class BadResidueAtZero(NumericalError):
    pass


class NonPositiveLength(NumericalError):
    pass


class LengthBudgetExceeded(NumericalError):
    pass


class DegreeMismatch(NumericalError):
    pass


class PoleHit(NumericalError):
    pass


class NearCollision(NumericalError):
    pass


class ConsistencyFail(NumericalError):
    pass


class TraceMismatch(NumericalError):
    pass


class Infeasible(NumericalError):
    # inverse-module failure: the reconstruction at the anchor fails or misses the data
    pass


class InfeasibleData(PeakonError):
    pass


class UnresolvedPole(InfeasibleData):
    pass
