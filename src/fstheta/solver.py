"""Conjugate-gradient solver for the SPD systems produced by P1 assembly.

All systems in this package are either a mass matrix or a shifted
mass-stiffness combination M/c + aK, both symmetric positive definite on
the Dirichlet space, so plain PCG with a diagonal preconditioner is enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_PRECONDITIONERS = ("none", "diagonal")


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule for :func:`solve_spd`.

    ``max_iterations=None`` means ten times the system size.
    """

    rel_tolerance: float = 1e-12
    max_iterations: int | None = None
    preconditioner: str = "diagonal"

    def __post_init__(self):
        if not 0.0 < self.rel_tolerance <= 1e-6:
            raise ConfigurationError(
                f"rel_tolerance must lie in (0, 1e-6], got {self.rel_tolerance!r}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if self.preconditioner not in _PRECONDITIONERS:
            raise ConfigurationError(
                f"preconditioner must be one of {_PRECONDITIONERS}, "
                f"got {self.preconditioner!r}")


class SolverError(RuntimeError):
    """Conjugate gradients failed; carries the final relative residual."""

    def __init__(self, message, residual=float("nan"), iterations=0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def solve_spd(matrix, rhs, config: SolverConfig | None = None) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by preconditioned conjugate gradients.

    Returns x with ||matrix @ x - rhs||_2 <= rel_tolerance * ||rhs||_2,
    re-checked against the true residual after convergence.  The iteration
    is deterministic (fixed summation order), a zero right-hand side returns
    an exact zero vector without iterating, and a non-finite one raises
    without iterating.
    """
    config = config or SolverConfig()
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"rhs must be a vector, got shape {b.shape}")
    n = b.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match rhs of length {n}")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)
    if not math.isfinite(b_norm):
        raise SolverError("right-hand side is not finite", iterations=0)
    tol = config.rel_tolerance * b_norm
    max_it = config.max_iterations if config.max_iterations is not None else 10 * n

    inv_diag = None
    if config.preconditioner == "diagonal":
        diag = np.asarray(matrix.diagonal(), dtype=float)
        if np.any(diag <= 0.0):
            raise SolverError("nonpositive diagonal entry; matrix is not SPD")
        inv_diag = 1.0 / diag

    x = np.zeros(n)
    r = b.copy()
    z = r * inv_diag if inv_diag is not None else r
    p = z.copy()
    rz = float(r @ z)
    res = b_norm
    for it in range(1, max_it + 1):
        Ap = matrix @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError(
                "search direction with nonpositive curvature; matrix is not SPD",
                residual=res / b_norm, iterations=it)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r))
        if res <= tol:
            true_res = float(np.linalg.norm(matrix @ x - b))
            if not true_res <= 10.0 * tol + 1e-300:
                raise SolverError(
                    f"recurrence residual {res:.3e} disagrees with true "
                    f"residual {true_res:.3e}",
                    residual=true_res / b_norm, iterations=it)
            return x
        z = r * inv_diag if inv_diag is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"no convergence within {max_it} iterations "
        f"(relative residual {res / b_norm:.3e})",
        residual=res / b_norm, iterations=max_it)
