"""Fractional-step theta time discretization of the heat equation.

Each time step t^{n-1} -> t^n runs three implicit substeps spanning the
fractions theta, 1 - 2*theta and theta of the step.  With
theta = 1 - sqrt(2)/2 the integrator is second-order accurate and strongly
A-stable for alpha1 > 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .fem import FeFunction, P1Space, ScalarField
from .solver import SolverError, solve_spd

THETA_DEFAULT = 1.0 - math.sqrt(2.0) / 2.0

# step sizes closer than this many units in the last place of the step's end
# time share one substep-matrix pair: they differ by the rounding of the grid
# nodes, not by the grid
_STEP_MATCH_ULPS = 4


def glowinski_alpha(theta: float) -> float:
    """Splitting weight that makes all three substep matrices proportional."""
    return (1.0 - 2.0 * theta) / (1.0 - theta)


def make_uniform_grid(n_steps: int, final_time: float) -> np.ndarray:
    """Time grid t^n = n * T / N."""
    if n_steps < 1:
        raise ConfigurationError(f"need at least one step, got {n_steps}")
    if final_time <= 0.0:
        raise ConfigurationError(f"final time must be positive, got {final_time}")
    return np.arange(n_steps + 1) * (final_time / n_steps)


def correction_coeffs(theta: float, alpha: float) -> tuple[float, float, float, float]:
    """Weights (c0, c1, ca, cm) of the substep-defect corrections: the
    correction equals c0*v(t^{n-1}) + c1*v(t^n) - ca*v(t^{n-1+theta})
    - cm*v(t^{n-theta})."""
    beta = 1.0 - alpha
    tt = 1.0 - theta
    return (tt * (alpha * (1.0 - theta) + beta * theta),
            tt * (alpha * theta + beta * (1.0 - theta)),
            tt * alpha,
            tt * beta)


def substep_defect(theta: float, alpha: float, v_prev, v_theta, v_onemtheta,
                   v_new):
    """How far the interior substep values sit from the endpoint values,
    weighted by ``correction_coeffs(theta, alpha)``.  The values may be
    arrays or FE functions; the combination is linear in them."""
    c0, c1, ca, cm = correction_coeffs(theta, alpha)
    return c0 * v_prev + c1 * v_new - ca * v_theta - cm * v_onemtheta


@dataclass
class SchemeParams:
    """Splitting weights and time grid of the three-substep integrator.

    ``alpha1``/``alpha2`` default to the proportional-matrices choice
    (1 - 2 theta) / (1 - theta); beta weights are the complements.
    """

    time_grid: np.ndarray
    theta: float = THETA_DEFAULT
    alpha1: float | None = None
    alpha2: float | None = None

    def __post_init__(self):
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        if self.time_grid.ndim != 1 or self.time_grid.size < 2:
            raise ConfigurationError("time grid needs at least two nodes")
        if not np.all(np.diff(self.time_grid) > 0.0):
            raise ConfigurationError("time grid must be strictly increasing")
        if not 0.0 < self.theta < 1.0 / 3.0:
            raise ConfigurationError(
                f"theta must lie in (0, 1/3), got {self.theta!r}")
        if self.alpha1 is None:
            self.alpha1 = glowinski_alpha(self.theta)
        if self.alpha2 is None:
            self.alpha2 = glowinski_alpha(self.theta)
        if not 0.5 < self.alpha1 <= 1.0:
            raise ConfigurationError(
                f"alpha1 must lie in (1/2, 1], got {self.alpha1!r}")
        if not 0.0 < self.alpha2 < 1.0:
            raise ConfigurationError(
                f"alpha2 must lie in (0, 1), got {self.alpha2!r}")

    @property
    def theta_tilde(self) -> float:
        return 1.0 - 2.0 * self.theta

    @property
    def beta1(self) -> float:
        return 1.0 - self.alpha1

    @property
    def beta2(self) -> float:
        return 1.0 - self.alpha2

    @property
    def n_steps(self) -> int:
        return self.time_grid.size - 1

    @property
    def final_time(self) -> float:
        return float(self.time_grid[-1])

    def time(self, n: int) -> float:
        return float(self.time_grid[n])

    def step_size(self, n: int) -> float:
        if not 1 <= n <= self.n_steps:
            raise ValueError(f"step index {n} outside 1..{self.n_steps}")
        return float(self.time_grid[n] - self.time_grid[n - 1])

    def intermediate_times(self, n: int) -> tuple[float, float]:
        """The two interior substep times of step n."""
        t0 = self.time(n - 1)
        k = self.step_size(n)
        return t0 + self.theta * k, t0 + (self.theta + self.theta_tilde) * k


@dataclass
class StepRecord:
    """Everything one time step produces: the substep states, the discrete
    Laplacians and projected forcing values at the step's two ends, the two
    substep-defect corrections, and cached forcing samples at the quadrature
    points (reused by the estimators).

    ``xi_theta`` is the substep-defect correction of the discrete Laplacians
    (weights alpha1/beta1) and ``proj_xi_phi`` the L2 projection of the
    forcing's correction (weights alpha2/beta2)."""

    n: int
    t_prev: float
    t_new: float
    U_prev: FeFunction
    U_theta: FeFunction
    U_onemtheta: FeFunction
    U_new: FeFunction
    lap_prev: FeFunction
    lap_new: FeFunction
    proj_f_prev: FeFunction
    proj_f_new: FeFunction
    xi_theta: FeFunction
    proj_xi_phi: FeFunction
    fq_prev: np.ndarray = field(repr=False, default=None)
    fq_theta: np.ndarray = field(repr=False, default=None)
    fq_onemtheta: np.ndarray = field(repr=False, default=None)
    fq_new: np.ndarray = field(repr=False, default=None)

    @property
    def k(self) -> float:
        return self.t_new - self.t_prev


class ThetaScheme:
    """Advance the discrete solution through the three substeps per step.

    The scheme keeps the substep-matrix pair of the current step size only:
    it is reused while consecutive steps share k and rebuilt when k changes,
    so a grid whose every step has its own k holds one pair, not one per
    step.  Step sizes that differ only by the rounding of the grid nodes, as
    those of ``make_uniform_grid`` do when N is not a power of two, count as
    one k.  The time loop itself is sequential, but distinct runs sharing the
    same space are independent.
    """

    def __init__(self, space: P1Space, params: SchemeParams, forcing: ScalarField):
        self.space = space
        self.params = params
        self.forcing = forcing
        self._matrices: tuple | None = None     # (k, a_theta, a_tilde)

    def _substep_matrices(self, k: float, t_new: float):
        cached = self._matrices
        if cached is None or \
                abs(k - cached[0]) > _STEP_MATCH_ULPS * np.spacing(abs(t_new)):
            p = self.params
            M, K = self.space.mass, self.space.stiffness
            # P1 couples the same vertex pairs in M and K, so both bands have
            # the same offsets and the pair is formed diagonal by diagonal
            a_theta = sp.dia_matrix(
                (M.data * (1.0 / (p.theta * k)) + K.data * p.alpha1, M.offsets),
                shape=M.shape)
            a_tilde = sp.dia_matrix(
                (M.data * (1.0 / (p.theta_tilde * k)) + K.data * p.beta1, M.offsets),
                shape=M.shape)
            self._matrices = (k, a_theta, a_tilde)
        return self._matrices[1:]

    def initial_state(self, u0: ScalarField | None = None) -> FeFunction:
        """L2 projection of the initial datum (zero field when omitted)."""
        if u0 is None:
            return self.space.function()
        sp_ = self.space
        load = sp_.load_vector(u0, self.params.time(0))
        return sp_.function(self._solve(sp_.mass, load, 0, "initial projection"))

    def _solve(self, matrix, rhs, n: int, tag: str) -> np.ndarray:
        """solve_spd, with failures tagged by step and quantity."""
        try:
            return solve_spd(matrix, rhs)
        except SolverError as err:
            raise SolverError(f"step {n}, {tag}: {err}", residual=err.residual,
                              iterations=err.iterations) from err

    def iter_steps(self, U0: FeFunction):
        """Yield the N step records in order.  Each step starts from the
        previous step's end-of-step forcing samples, load vector, discrete
        Laplacian and forcing projection; step 1 computes them from U0 once."""
        state, carry = U0, self._initial_carry(U0)
        for n in range(1, self.params.n_steps + 1):
            rec, carry = self._step(state, n, carry)
            yield rec
            state = rec.U_new

    def _initial_carry(self, U0: FeFunction):
        sp_ = self.space
        fq0 = sp_.eval_field_q4(self.forcing, self.params.time(0))
        b0 = sp_.load_from_quad_values(fq0)
        lap0 = sp_.function(self._solve(sp_.mass, sp_.stiffness @ U0.coeffs, 1,
                                        "laplacian at t^{n-1}"))
        pf0 = sp_.function(self._solve(sp_.mass, b0, 1,
                                       "forcing projection at t^{n-1}"))
        return fq0, b0, lap0, pf0

    def _step(self, prev: FeFunction, n: int, carry):
        """Solve the three substeps taking U^{n-1} to U^n; ``carry`` holds the
        forcing samples, load, Laplacian and forcing projection at t^{n-1}.
        Returns the step record and the same four quantities at t^n."""
        sp_, p = self.space, self.params
        t0, t1 = p.time(n - 1), p.time(n)
        t_a, t_m = p.intermediate_times(n)
        k = t1 - t0
        a_theta, a_tilde = self._substep_matrices(k, t1)
        M, K = sp_.mass, sp_.stiffness

        def _solve(matrix, rhs, tag):
            return self._solve(matrix, rhs, n, tag)

        fq0, b0, lap0, pf0 = carry
        fqa = sp_.eval_field_q4(self.forcing, t_a)
        fqm = sp_.eval_field_q4(self.forcing, t_m)
        fq1 = sp_.eval_field_q4(self.forcing, t1)
        ba = sp_.load_from_quad_values(fqa)
        bm = sp_.load_from_quad_values(fqm)
        b1 = sp_.load_from_quad_values(fq1)

        al1, be1, al2, be2 = p.alpha1, p.beta1, p.alpha2, p.beta2
        rhs = (M @ prev.coeffs) / (p.theta * k) - be1 * (K @ prev.coeffs) \
            + al2 * ba + be2 * b0
        u_a = _solve(a_theta, rhs, "first substep")

        rhs = (M @ u_a) / (p.theta_tilde * k) - al1 * (K @ u_a) \
            + be2 * bm + al2 * ba
        u_m = _solve(a_tilde, rhs, "second substep")

        rhs = (M @ u_m) / (p.theta * k) - be1 * (K @ u_m) \
            + al2 * b1 + be2 * bm
        u_1 = _solve(a_theta, rhs, "third substep")

        # the discrete Laplacian and the projection are linear, so each
        # substep-defect correction takes one mass solve of the same
        # combination of stiffness products or loads
        lap_1 = sp_.function(_solve(M, K @ u_1, "laplacian at t^n"))
        pf1 = sp_.function(_solve(M, b1, "forcing projection at t^n"))
        defect = substep_defect(p.theta, al1, prev.coeffs, u_a, u_m, u_1)
        xi_theta = sp_.function(_solve(M, K @ defect,
                                       "laplacian substep defect"))
        xi_phi_load = substep_defect(p.theta, al2, b0, ba, bm, b1)
        proj_xi_phi = sp_.function(_solve(M, xi_phi_load,
                                          "forcing projection substep defect"))

        return StepRecord(
            n=n, t_prev=t0, t_new=t1,
            U_prev=prev, U_theta=sp_.function(u_a),
            U_onemtheta=sp_.function(u_m), U_new=sp_.function(u_1),
            lap_prev=lap0, lap_new=lap_1, proj_f_prev=pf0, proj_f_new=pf1,
            xi_theta=xi_theta, proj_xi_phi=proj_xi_phi,
            fq_prev=fq0, fq_theta=fqa, fq_onemtheta=fqm, fq_new=fq1,
        ), (fq1, b1, lap_1, pf1)
