"""Exception types shared across the package."""


class OutOfDomainError(ValueError):
    """A query point lies outside the partitioned domain (or a cell)."""


class SolverError(RuntimeError):
    """The LP backend failed, or a program expected to be feasible was not.

    ``stats`` holds the statistics of the solver call that failed, when
    one did (``lpcore.linprog``): its method, the program's n_vars, n_rows
    and nnz, the iterations of each algorithm and their sum, the start
    kind and solve_s. It is None for a failure found outside such a call.
    ``rejected`` is the solution HiGHS called optimal that failed a check,
    a row or bound residual above ``lpcore.FEASIBILITY_TOL``, with its
    basis; a later solve may start there. It is None otherwise.
    """

    def __init__(self, message, stats=None, rejected=None):
        super().__init__(message)
        self.stats = stats
        self.rejected = rejected

    def report(self) -> str:
        """The message, followed by the failed call's statistics if it has them."""
        if self.stats is None:
            return str(self)
        parts = (f"{key} {value:.3g}" if isinstance(value, float) else f"{key} {value}"
                 for key, value in self.stats.items())
        return f"{self} [{', '.join(parts)}]"


class ConfigError(ValueError):
    """A run configuration is missing fields or carries invalid values."""
