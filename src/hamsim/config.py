"""Shared configuration: numeric tolerances, dense-size cap, error types."""

from __future__ import annotations

import os
from dataclasses import dataclass

DENSE_CAP_ENV = "HAMSIM_DENSE_CAP"
DEFAULT_DENSE_CAP = 4096


def dense_cap() -> int:
    """Maximum dimension allowed for dense matrix work.

    Overridable through the HAMSIM_DENSE_CAP environment variable; read on
    every call so tests and long-running sessions can adjust it.
    """
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise HamsimError(f"{DENSE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise HamsimError(f"{DENSE_CAP_ENV} must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class Tolerances:
    """Central numeric tolerances used by validation checks."""

    hermiticity: float = 1e-12      # entrywise |A - A^dagger|
    unitarity: float = 1e-11        # ||U^dagger U - I|| after exact evolution
    state_norm: float = 1e-10       # | ||psi|| - 1 |
    density_trace: float = 1e-10    # |tr(rho) - 1|
    density_eig_floor: float = -1e-10
    plan_fraction_sum: float = 1e-12


TOL = Tolerances()


class HamsimError(Exception):
    """Base class for domain failures (CLI maps these to exit code 1)."""


class NumericsError(HamsimError):
    """A dense-numerics validation failed (hermiticity, unitarity, density)."""


class OracleError(HamsimError):
    """Oracle structure is inconsistent or an entry list is malformed."""


class ColoringError(HamsimError):
    """Edge-coloring decomposition failed verification."""


class PlanError(HamsimError):
    """Product-formula plan construction or validation failed."""


class ValidityWindowWarning(UserWarning):
    """A bound or step-count formula was evaluated outside its stated window."""
