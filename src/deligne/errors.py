"""Exception types shared across the package."""


class DeligneError(ValueError):
    """Base class for all data and precondition failures raised here."""


class ComplexError(DeligneError):
    """Invalid simplicial complex data or an unsatisfied manifold flag."""


class CoverError(DeligneError):
    """Invalid cover data, admissibility violation or bad index map."""


class CochainError(DeligneError):
    """Invalid cochain data, entry conflict or integrality failure."""


class HolonomyError(DeligneError):
    """Holonomy precondition failure (dimension, boundary, cocycle flag)."""


class TransgressionError(DeligneError):
    """Transgression precondition or internal consistency failure."""


class ToleranceError(DeligneError):
    """A computed residual exceeds the tolerance (two routes, a sum and its
    integer, or a value and its chart choice disagree); the input itself
    was acceptable.  The CLI exits 2 on it and 1 on every other error."""


class TransitionToleranceError(ToleranceError, TransgressionError):
    """A transgression route or integrality residual exceeds the tolerance."""


class ChartSpreadError(ToleranceError, HolonomyError):
    """A top's curvature depends on its evaluating chart beyond the tolerance."""


class AnalyticError(DeligneError):
    """Bad fixture request, unsupported cup operands or geometry mismatch."""
