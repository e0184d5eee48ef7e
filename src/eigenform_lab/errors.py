"""Exception types shared across the package."""


class EigenformLabError(Exception):
    """Base class for package-specific failures."""


class SingularInteriorError(EigenformLabError):
    """The interior block of a conductance network cannot be solved.

    Raised when some unconstrained vertex has no conductance path to a
    constrained one; ``vertex`` names one offending vertex id.
    """

    def __init__(self, vertex, message=None):
        self.vertex = vertex
        super().__init__(
            message
            or f"interior vertex {vertex} has no conductance path to the boundary"
        )


class InternalConsistencyError(EigenformLabError):
    """Combinatorial and numerical code paths disagree.

    This signals a bug or structurally invalid input data, never a mere
    round-off problem.
    """
