"""Exception hierarchy for the calibration library."""


class DQCalibError(Exception):
    """Base class for all library errors."""


class NotUnit(DQCalibError):
    """A dual quaternion violates the unit constraints beyond tolerance.

    Row-wise checks set ``row`` to the index of the first rejected row.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class NonUnitAxis(DQCalibError):
    """Rotation axis is not normalized."""


class InvalidWeight(DQCalibError):
    """Negative or non-finite residual or confidence weight."""


class DegenerateInit(DQCalibError):
    """Initial point cannot be projected onto the constraint manifold."""


class NonUniqueSolution(DQCalibError):
    """The feasible set inside the recovered null space is not a single point.

    Carries the null-space basis so callers can inspect the unobservable
    directions.  ``estimate`` is set by a solver that computed a point
    anyway (a degenerate ``CalibSolution``), else None.
    """

    def __init__(self, message, basis=None, null_dim=None):
        super().__init__(message)
        self.basis = basis
        self.null_dim = null_dim
        self.estimate = None


class EmptyData(DQCalibError):
    """Operation requires at least one accumulated motion pair."""


class InfeasiblePoint(DQCalibError):
    """Candidate solution violates the constraints beyond tolerance."""


class NonMonotonicTime(DQCalibError):
    """Timestamps must be strictly increasing."""


class NoOverlap(DQCalibError):
    """Two streams share no common time range."""


class ParseError(DQCalibError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NonOrthogonalRotation(DQCalibError):
    """Rotation block of a pose deviates too far from SO(3)."""


class DegenerateInput(DQCalibError):
    """Input data does not span the required subspace (e.g. collinear points)."""


class DegeneratePath(DQCalibError):
    """Consecutive path waypoints coincide."""
