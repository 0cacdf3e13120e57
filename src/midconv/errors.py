"""Exception hierarchy shared by all midconv modules."""


class MidconvError(Exception):
    """Base class for all errors raised by this package."""


class ModeMismatch(MidconvError):
    """Elements (or divisors) of different group modes were combined."""


class MissingGenerator(MidconvError):
    """A numeric assignment does not cover every symbolic generator."""


class SizeMismatch(MidconvError):
    """Two objects that must share the number of points n do not."""


class ConventionViolation(MidconvError):
    """A required eigenvalue convention fails.

    Carries the name of the convention, the point index (or None for the
    global diagonal check) and the offending eigenvalue, so callers can
    render exactly what obstructed the transformation.
    """

    def __init__(self, convention, point=None, eigenvalue=None, message=None):
        self.convention = convention
        self.point = point
        self.eigenvalue = eigenvalue
        detail = message or f"convention {convention!r} fails"
        if point is not None:
            detail += f" at point {point}"
        if eigenvalue is not None:
            detail += f" for eigenvalue {eigenvalue}"
        super().__init__(detail)


class MaxStepsExceeded(MidconvError):
    """The rank-reduction loop ran longer than allowed (defensive)."""


class DefectPrecondition(MidconvError):
    """An operation requiring defect >= 0 was called with defect < 0."""


class PreconditionDim2(MidconvError):
    """defect = 0 and superdefect = 0: the moduli space has dimension 2
    and the cyclotomic construction does not apply."""


class DegreeNotIntegral(MidconvError):
    """Total weight of the input vector is not an integer, so no
    degree-zero bundle can exist."""


class CyclicClosureViolation(MidconvError):
    """sum(z) != defect, so the degree sequence cannot close up cyclically."""


class BoundaryNotSurjective(MidconvError):
    """The chain boundary map failed to be numerically surjective."""


class ConventionViolationNumeric(MidconvError):
    """A numeric instance violates an eigenvalue convention beyond tol."""


class QuotientRankMismatch(MidconvError):
    """The middling span is numerically degenerate; tolerances failed."""


class DigitLimitExceeded(MidconvError):
    """An output rational has an integer past ``sys.get_int_max_str_digits()``."""


class DocumentError(MidconvError):
    """A JSON problem document is malformed."""

    def __init__(self, message, path=""):
        self.message, self.path = message, path
        super().__init__(f"{path}: {message}" if path else message)


def shown(value) -> str:
    """``repr(value)``, cut like ``path_key``."""
    return path_key(repr(value))


def path_key(name: str) -> str:
    """A document key as a step of a JSON path: cut to 40 characters plus
    "..." when longer."""
    return name if len(name) <= 40 else name[:40] + "..."
