"""Exception types shared across the package."""


class AbconvexError(Exception):
    """Base class for all library errors."""


class UndefinedSum(AbconvexError, ArithmeticError):
    """Raised when an arithmetic step would evaluate (+inf) + (-inf)."""


class EmptyDomain(AbconvexError):
    """A domain with no points was supplied."""


class NonMetric(AbconvexError):
    """A distance matrix violates the metric axioms."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class ImproperInput(AbconvexError):
    """A grid function violates the properness requirement of an operation."""


class BadParams(AbconvexError):
    """Elementary-function parameters are invalid for the given family."""


class NoWitness(AbconvexError):
    """No elementary witness satisfying the requested inequalities exists on the grid."""


class NotConvexCombinable(AbconvexError):
    """The family does not support convex combinations of its parameters."""


class ImproperProblem(AbconvexError):
    """A perturbation problem violates its properness invariants."""


class LevelAbovePrimal(AbconvexError):
    """A certificate level at or above the primal value was requested."""


class NotSeparable(AbconvexError):
    """No separating elementary function was found on the search ladder."""

    def __init__(self, message: str, best_margin: float):
        self.best_margin = best_margin
        super().__init__(f"{message} (best margin {best_margin!r})")


class ImproperObjective(AbconvexError):
    """A constrained instance was built from an improper objective."""


class Unbalanced(AbconvexError):
    """Transport marginals do not carry equal total mass."""


class ScenarioError(AbconvexError):
    """A CLI scenario file is malformed or violates an invariant."""


class SolverLimit(AbconvexError):
    """An iterative solver used up its iteration budget without converging."""
