"""Exception types shared across the toolkit.  The CLI exits 2 on a
ConfigError, 3 on a NumericalError (NonConvergence and Infeasible too), 4 on
CapExceeded and 1 on anything else, ShapeError included: no scenario that
validates raises one."""


class RisIsacError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(RisIsacError):
    """Inconsistent array dimensions."""


class ConfigError(RisIsacError):
    """Invalid scenario configuration; message names the offending field."""


class NumericalError(RisIsacError):
    """A numerical routine failed (factorization breakdown, broken invariant)."""


class NonConvergence(NumericalError):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, iterations: int, primal_residual: float, dual_residual: float):
        self.iterations = iterations
        self.primal_residual = primal_residual
        self.dual_residual = dual_residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(primal {primal_residual:.3e}, dual {dual_residual:.3e})"
        )


class Infeasible(NumericalError):
    """The constraint set appears empty (slack pinned at zero, residuals stuck)."""


class CapExceeded(RisIsacError):
    """An operation was requested above its configured size cap."""


class IllPosedWarning(UserWarning):
    """More constraints than unknowns; the solve proceeds via SVD."""
