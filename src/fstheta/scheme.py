"""Fractional-step theta time discretization of the heat equation.

Each time step t^{n-1} -> t^n runs three implicit substeps spanning the
fractions theta, 1 - 2*theta and theta of the step.  With
theta = 1 - sqrt(2)/2 the integrator is second-order accurate and strongly
A-stable for alpha1 > 1/2.
"""

from __future__ import annotations

import contextlib
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .fem import BandMatrix, FeFunction, P1Space, ScalarField
from .solver import tagged_solve

THETA_DEFAULT = 1.0 - math.sqrt(2.0) / 2.0


def glowinski_alpha(theta: float) -> float:
    """Splitting weight that makes all three substep matrices proportional."""
    return (1.0 - 2.0 * theta) / (1.0 - theta)


def make_uniform_grid(n_steps: int, final_time: float) -> np.ndarray:
    """Time grid t^n = n * T / N."""
    if not isinstance(n_steps, (int, np.integer)) or isinstance(n_steps, bool):
        raise ConfigurationError(f"step count must be an integer, got {n_steps!r}")
    if n_steps < 1:
        raise ConfigurationError(f"need at least one step, got {n_steps}")
    if not 0.0 < final_time < math.inf:
        raise ConfigurationError(
            f"final time must be finite and positive, got {final_time}")
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
                   v_new) -> np.ndarray:
    """How far the interior substep values sit from the endpoint values,
    weighted by ``correction_coeffs(theta, alpha)``: c0 v_prev + c1 v_new
    - ca v_theta - cm v_onemtheta for float arrays of one shape, linear in
    them.  It is formed left to right in two buffers, with the bits of that
    expression and without its five other temporaries (at level 7 each
    array of degree-4 quadrature values is 1.5 MB)."""
    c0, c1, ca, cm = correction_coeffs(theta, alpha)
    out = np.multiply(v_prev, c0)
    term = np.multiply(v_new, c1)
    out += term
    out -= np.multiply(v_theta, ca, out=term)
    out -= np.multiply(v_onemtheta, cm, out=term)
    return out


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
        if not np.all(np.isfinite(self.time_grid)):
            raise ConfigurationError("time grid must be finite")
        if not np.all(np.diff(self.time_grid) > 0.0):
            raise ConfigurationError("time grid must be strictly increasing")
        if not 0.0 < self.theta < 1.0 / 3.0:
            raise ConfigurationError(
                f"theta must lie in (0, 1/3), got {self.theta!r}")
        # the substep matrices scale M by these weights; for a step so small
        # that one overflows (or theta k underflows to 0) the matrices would
        # hold inf and NaN
        steps = np.diff(self.time_grid)
        with np.errstate(divide="ignore", over="ignore"):
            weights = 1.0 / (np.array([[self.theta], [self.theta_tilde]]) * steps)
        finite = np.isfinite(weights).all(axis=0)
        if not finite.all():
            n = int(np.argmin(finite)) + 1
            raise ConfigurationError(
                f"step {n} of size k = {float(steps[n - 1])!r} is too small: "
                "the substep weights 1/(theta k) and 1/((1 - 2 theta) k) "
                "must be finite")
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
    """What the estimators read of one time step: the states, discrete
    Laplacians, projected forcing values and forcing samples at the step's
    two ends, and the three substep-defect corrections.

    ``xi_theta`` is the correction of the discrete Laplacians (weights
    alpha1/beta1), ``xi_phi_q4`` the correction of the forcing at the
    degree-4 quadrature points and ``proj_xi_phi`` its L2 projection
    (weights alpha2/beta2).  A step's start is the previous step's end, so
    ``rec.lap_prev is prev.lap_new`` and ``rec.proj_f_prev is
    prev.proj_f_new``."""

    n: int
    t_prev: float
    t_new: float
    U_prev: FeFunction
    U_new: FeFunction
    lap_prev: FeFunction = field(repr=False)
    proj_f_prev: FeFunction = field(repr=False)
    lap_new: FeFunction = field(repr=False)
    proj_f_new: FeFunction = field(repr=False)
    xi_theta: FeFunction = field(repr=False)
    proj_xi_phi: FeFunction = field(repr=False)
    xi_phi_q4: np.ndarray = field(repr=False)
    fq_prev: np.ndarray = field(repr=False)
    fq_new: np.ndarray = field(repr=False)

    @property
    def k(self) -> float:
        return self.t_new - self.t_prev


# From this many dofs on, ``iter_steps`` solves the substeps one step ahead on
# a worker thread.  Below it the overlap does not pay: case-1 ``run_single``
# ran no faster overlapped than inline at levels 4 to 6, because the
# thread's handoffs cost about what the small solves it hides save.  Above
# it the overlap pays: with the worker deleted, the benchmark's study-c1
# (case 1, levels 3..7) read a median run_ref_s of 17.1 s against 10.95 s
# with it (README, Notes).
OVERLAP_MIN_DOFS = 2000


class _Later:
    """A future below ``OVERLAP_MIN_DOFS``: ``result()`` makes the call."""

    def __init__(self, fn, *args):
        self.result = functools.partial(fn, *args)


class _SubstepPair:
    """The substep matrices a_theta = M / (theta k) + alpha1 K and
    a_tilde = M / (theta~ k) + beta1 K of one step loop.  ``at(k)`` writes
    their bands in place for the step size k, each band the IEEE value of
    ``M.data * (1 / (shift k)) + K.data * weight``, and returns the pair.
    P1 couples the same vertex pairs in M and K, so both have the same
    offsets and the pair is formed diagonal by diagonal.  Each matrix starts
    as a view of M, which skips scipy's validation of (data, offsets), and
    takes bands of its own.  A ``BandMatrix`` sees an in-place change to its
    bands, so the matrices and their bound kernels are built once per
    loop."""

    def __init__(self, space: P1Space, params: SchemeParams):
        self._mass, self._stiffness = space.mass.data, space.stiffness.data
        self._terms = ((params.theta, params.alpha1),
                       (params.theta_tilde, params.beta1))
        self.matrices = (BandMatrix(space.mass), BandMatrix(space.mass))
        for a in self.matrices:
            a.data = np.empty_like(self._mass)

    def at(self, k: float) -> tuple[BandMatrix, BandMatrix]:
        for a, (shift, weight) in zip(self.matrices, self._terms):
            np.add(np.multiply(self._mass, 1.0 / (shift * k), out=a.data),
                   self._stiffness * weight, out=a.data)
        return self.matrices


class ThetaScheme:
    """Advance the discrete solution through the three substeps per step.

    A step has two stages: ``_substeps`` samples the forcing, solves the
    three substeps and multiplies U^n by K, and ``iter_steps`` passes one
    list of (tag, right-hand side) to ``_mass_solves``: the discrete
    Laplacian and the forcing projection at the step's end, which the next
    step reuses as its start, and the two substep-defect corrections.
    K U^n serves both the Laplacian at t^n and the next step's first
    right-hand side, so each state is multiplied by K once.  ``iter_steps``
    submits the first stage of step n+1 before it runs the second stage of
    step n, so a worker thread can run the one while the caller runs the
    other.  Each ``iter_steps`` loop holds one pair of substep matrices,
    whose bands each step writes in place from those of M and K with its
    own k, so any increasing time grid runs the same code.  Distinct runs
    sharing the same space, and loops of one scheme, are independent.
    """

    def __init__(self, space: P1Space, params: SchemeParams, forcing: ScalarField):
        self.space = space
        self.params = params
        self.forcing = forcing

    def initial_state(self, u0: ScalarField | None = None) -> FeFunction:
        """L2 projection of the initial datum (zero field when omitted)."""
        if u0 is None:
            return self.space.function()
        sp_ = self.space
        load = sp_.load_vector(u0, self.params.time(0))
        return sp_.function(tagged_solve(sp_.mass, load, 0, "initial projection"))

    def _mass_solves(self, n: int, *solves) -> list[FeFunction]:
        """One mass solve of step n per (tag, right-hand side), in order."""
        sp_ = self.space
        return [sp_.function(tagged_solve(sp_.mass, rhs, n, tag))
                for tag, rhs in solves]

    def iter_steps(self, U0: FeFunction):
        """Yield the N step records in order, every field computed.  Each
        step starts from the previous step's state, K U^{n-1}, end-of-step
        forcing samples, load, Laplacian and projection; the caller's thread
        makes them at t^0 from U0 first.

        Before step n's four end-of-step mass solves the loop submits step
        n+1's ``_substeps``, from record n's own ``U_new``: from
        ``OVERLAP_MIN_DOFS`` dofs on (read at call time) to one worker
        thread, below the cutoff to ``_Later``, so no thread starts.  The
        worker writes only the bands of the loop's own substep pair, which
        nothing else reads and which the next submission rewrites only
        after this one returned; otherwise it reads the arrays it is handed
        and returns new ones.  Either way the records are the same bit for
        bit, at most one step is ahead, a failure raises at the ``next()``
        that would yield its step, and closing the generator joins the
        worker."""
        sp_, p = self.space, self.params
        fq0 = sp_.eval_field_q4(self.forcing, p.time(0))
        b0 = sp_.load_from_quad_values(fq0)
        stiff0 = sp_.stiffness @ U0.coeffs
        lap_prev, proj_f_prev = self._mass_solves(
            1, ("laplacian at t^{n-1}", stiff0),
            ("forcing projection at t^{n-1}", b0))
        prev = U0
        overlap = sp_.n_dofs >= OVERLAP_MIN_DOFS
        with (ThreadPoolExecutor(max_workers=1) if overlap
              else contextlib.nullcontext()) as pool:
            submit = pool.submit if overlap else _Later
            pair = _SubstepPair(sp_, p)
            ahead = submit(self._substeps, prev, 1, fq0, b0, stiff0, pair)
            for n in range(1, p.n_steps + 1):
                states, fqs, loads, stiff_new = ahead.result()
                U_new = sp_.function(states[-1])
                if n < p.n_steps:
                    ahead = submit(self._substeps, U_new, n + 1, fqs[-1],
                                   loads[-1], stiff_new, pair)
                # the discrete Laplacian and the projection are linear, so
                # each substep-defect correction takes one mass solve of the
                # same combination of states or loads
                lap_new, proj_f_new, xi_theta, proj_xi_phi = self._mass_solves(
                    n, ("laplacian at t^n", stiff_new),
                    ("forcing projection at t^n", loads[-1]),
                    ("laplacian substep defect", sp_.stiffness @ substep_defect(
                        p.theta, p.alpha1, prev.coeffs, *states)),
                    ("forcing projection substep defect",
                     substep_defect(p.theta, p.alpha2, b0, *loads)))
                yield StepRecord(
                    n=n, t_prev=p.time(n - 1), t_new=p.time(n),
                    U_prev=prev, U_new=U_new,
                    lap_prev=lap_prev, proj_f_prev=proj_f_prev,
                    lap_new=lap_new, proj_f_new=proj_f_new,
                    xi_theta=xi_theta, proj_xi_phi=proj_xi_phi,
                    xi_phi_q4=substep_defect(p.theta, p.alpha2, fq0, *fqs),
                    fq_prev=fq0, fq_new=fqs[-1])
                prev, fq0, b0 = U_new, fqs[-1], loads[-1]
                lap_prev, proj_f_prev = lap_new, proj_f_new

    def _substeps(self, prev: FeFunction, n: int, fq0: np.ndarray,
                  b0: np.ndarray, stiff_prev: np.ndarray, pair: _SubstepPair):
        """Sample the forcing at t_theta, t_{1-theta} and t^n and solve the
        three substeps from U^{n-1}, given the forcing samples ``fq0`` and
        load ``b0`` at t^{n-1} and ``stiff_prev`` = K U^{n-1}, on the
        matrices ``pair`` holds, whose bands it writes for this step.
        Returns the three states, the three sample arrays and the three
        loads, each in time order, and K U^n."""
        sp_, p = self.space, self.params
        t_a, t_m = p.intermediate_times(n)
        k = p.step_size(n)
        a_theta, a_tilde = pair.at(k)
        M, K = sp_.mass, sp_.stiffness

        fqs = tuple(sp_.eval_field_q4(self.forcing, t)
                    for t in (t_a, t_m, p.time(n)))
        ba, bm, b1 = loads = tuple(sp_.load_from_quad_values(fq) for fq in fqs)

        al1, be1, al2, be2 = p.alpha1, p.beta1, p.alpha2, p.beta2
        rhs = (M @ prev.coeffs) / (p.theta * k) - be1 * stiff_prev \
            + al2 * ba + be2 * b0
        u_a = tagged_solve(a_theta, rhs, n, "first substep")

        rhs = (M @ u_a) / (p.theta_tilde * k) - al1 * (K @ u_a) \
            + be2 * bm + al2 * ba
        u_m = tagged_solve(a_tilde, rhs, n, "second substep")

        rhs = (M @ u_m) / (p.theta * k) - be1 * (K @ u_m) \
            + al2 * b1 + be2 * bm
        u_1 = tagged_solve(a_theta, rhs, n, "third substep")
        return (u_a, u_m, u_1), fqs, loads, K @ u_1
