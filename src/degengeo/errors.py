"""Exception types shared across the package."""


class DegenError(Exception):
    """Base class for all degengeo-specific errors."""


class DegenerateBoundary(DegenError):
    """The k-th and (k+1)-th eigenvalues coincide within tolerance, so the
    lowest-k eigenprojector (and everything built on it) is not unique."""


class SubspacesTooFar(DegenError):
    """The two eigenprojectors satisfy ||P - P0||_2 >= 1; no direct rotation
    with eigenvalues near 1 exists between the subspaces."""


class BasePointNotCanonical(DegenError):
    """The supplied base point is not diagonal with ascending diagonal and an
    exactly degenerate window strictly separated from the rest."""


class NotInSigmaK(DegenError):
    """An index-set projection produced eigenvalues that violate the ordering
    required for membership in the degeneracy manifold."""


class InconclusiveFit(DegenError):
    """A log-log slope fit did not land close enough to an integer (or had
    too few usable samples) to report an order of vanishing."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class NewtonDiverged(DegenError):
    """A Newton refinement of a degeneracy-point seed failed to converge."""


class StepTooSmall(DegenError):
    """A finite-difference step is too small to produce a meaningful
    derivative estimate."""
