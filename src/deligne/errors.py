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


class ToleranceError(TransgressionError):
    """Two routes of one transgression, or a sum and its integer, disagree
    by more than the tolerance; the input itself was acceptable."""


class AnalyticError(DeligneError):
    """Bad fixture request, unsupported cup operands or geometry mismatch."""
