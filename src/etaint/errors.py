"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """An argument sits exactly on a pole of the requested function."""


class ToleranceError(RuntimeError):
    """A series term budget was exhausted before reaching the tolerance."""


class NonConvergenceError(RuntimeError):
    """The adaptive quadrature evaluation budget was exhausted.

    ``evals`` is the number of integrand evaluations spent before giving up.
    """

    def __init__(self, message: str, evals: int = 0):
        super().__init__(message)
        self.evals = evals
