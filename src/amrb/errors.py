"""Exception types shared across the solver and reduction pipeline."""

from __future__ import annotations


class AmrbError(Exception):
    """Base class for library failures.

    Keyword arguments are kept in ``info`` so callers can attach context
    (residuals, step indices, singular values) without changing the
    exception signature.
    """

    def __init__(self, message: str, **info):
        super().__init__(message)
        self.info = info


class AssemblyError(AmrbError):
    """Operator assembly produced a matrix that is not usable (e.g. not SPD)."""


class SolverDivergenceError(AmrbError):
    """Active-set iteration did not settle within the iteration budget."""


class NumericalBreakdownError(AmrbError):
    """A solve broke down: a singular linear subsystem, a state that went
    non-finite, or a trajectory outside the truth contract."""


class DegenerateInputError(AmrbError):
    """Input vectors vanish in the relevant norm; the operation is undefined."""


class InfSupFailureError(AmrbError):
    """Reduced primal-dual coupling lost full column rank."""


class ModelCorruptionError(AmrbError):
    """A reduced model violates its structural invariants."""


class ModelLoadError(AmrbError):
    """A model file is missing fields, malformed, or inconsistent."""


class ModelVersionError(ModelLoadError):
    """A model file carries an unsupported schema version."""
