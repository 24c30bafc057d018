"""Exception types shared across the package.

The CLI maps these onto process exit codes: ValidationError -> 2,
NumericalError (and subclasses) -> 3, ResourceLimitError -> 4.
"""

__all__ = ["NumericalError", "RecourseError", "ResourceLimitError", "ValidationError"]


class ValidationError(ValueError):
    """Input data or arguments violate a documented contract."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class RecourseError(NumericalError):
    """The recourse LP did not solve to optimality.

    Carries enough context to locate the offending scenario.
    """

    def __init__(self, message, *, lp_status=None, scenario_index=None):
        super().__init__(message)
        self.lp_status = lp_status
        self.scenario_index = scenario_index


class ResourceLimitError(RuntimeError):
    """An explicit work budget (e.g. branch-and-bound node count) was hit.

    A search stopped early carries what it has: its best plan so far
    (None before the first one) and that plan's value, a lower bound on
    the optimum, and the nodes it visited. A run over several budgets
    (`twostage.solve_budgets`) also carries the ones it finished (`reports`).
    """

    def __init__(self, message, *, plan=None, value=None, bound=None, nodes=None):
        super().__init__(message)
        self.plan = plan
        self.value = value
        self.bound = bound
        self.nodes = nodes
        self.reports = ()
