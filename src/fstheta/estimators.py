"""A posteriori error indicators for the fractional-step theta solver.

Per-step indicators (elliptic residual, time-reconstruction coefficients,
substep-defect corrections, data oscillation) feed an accumulator that
maintains the running estimator totals and the composite error bounds in
both reconstruction variants: "two-level" quantities use a single time
interval, "three-level" quantities a second difference over two adjacent
intervals (which only exists from the second step on; step one contributes
its two-level values instead).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fem import FeFunction, P1Space, ScalarField
from .scheme import SchemeParams, StepRecord
from .solver import SolverError, StackedSolves, tagged_solve

_SQRT30 = math.sqrt(30.0)
_GAUSS3_OFFSETS = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GAUSS3_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


@dataclass(frozen=True)
class ConstantsConfig:
    """Interpolation and regularity constants entering the indicators.

    Defaults are unit; sharper values only rescale magnitudes, never the
    convergence orders.
    """

    c1: float = 1.0     # H1 stability of the quasi-interpolant
    c11: float = 1.0    # first-order interpolation constant
    C11: float = 1.0    # companion constant in the time weight
    C12: float = 1.0    # regularity times second-order volume constant
    C22: float = 1.0    # regularity times second-order facet constant

    def __post_init__(self):
        for name in ("c1", "c11", "C11", "C12", "C22"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(
                    f"constant {name} must be finite and positive, got {value!r}")


# ---------------------------------------------------------------------------
# per-step fields


def recon_coeff_two_level(rec: StepRecord) -> FeFunction:
    """Quadratic coefficient of the single-interval time reconstruction:
    slope of the discrete Laplacian minus slope of the projected forcing."""
    return FeFunction(rec.U_new.mesh, (
        (rec.lap_new.coeffs - rec.lap_prev.coeffs)
        - (rec.proj_f_new.coeffs - rec.proj_f_prev.coeffs)) / rec.k)


def recon_coeff_three_level(rec: StepRecord, prev_rec: StepRecord):
    """Quadratic coefficient of the two-interval reconstruction plus its
    companion second differences.

    Returns (coeff, lap_second_diff, forcing_second_diff): the backward
    second difference of the states, and the matching second differences of
    the discrete Laplacians and projected forcing values.
    """
    if prev_rec is None or rec.n < 2:
        raise ValueError("two-interval reconstruction needs step n >= 2")
    if prev_rec.n != rec.n - 1:
        raise ValueError(
            f"records out of order: got steps {prev_rec.n} and {rec.n}")
    k, k_prev = rec.k, prev_rec.k
    coeff = (-2.0 / (k + k_prev)) * (
        (rec.U_new.coeffs - rec.U_prev.coeffs) / k
        - (prev_rec.U_new.coeffs - prev_rec.U_prev.coeffs) / k_prev)
    r = k_prev / k

    def second_difference(new, prev, before):
        return 0.5 * (r * new.coeffs - (1.0 + r) * prev.coeffs + before.coeffs)

    mesh = rec.U_new.mesh
    return (FeFunction(mesh, coeff),
            FeFunction(mesh, second_difference(rec.lap_new, rec.lap_prev,
                                               prev_rec.lap_prev)),
            FeFunction(mesh, second_difference(rec.proj_f_new, rec.proj_f_prev,
                                               prev_rec.proj_f_prev)))


# ---------------------------------------------------------------------------
# per-step scalar indicators


def _elliptic(consts: ConstantsConfig, h2_lap: float, jump: float) -> float:
    """C12 ||h^2 lap(v)|| + C22 ||h^{3/2} J[grad v]|| from the two norms."""
    return consts.C12 * h2_lap + consts.C22 * jump


def _time_weight(k: float, consts: ConstantsConfig, h1: float,
                 h_lap: float) -> float:
    """(k^2/sqrt(30)) (c1 |w|_1 + C11 ||h lap(w)||) from the two norms."""
    return (k * k / _SQRT30) * (consts.c1 * h1 + consts.C11 * h_lap)


def elliptic_estimator(space: P1Space, v: FeFunction, consts: ConstantsConfig,
                       lap: FeFunction | None = None) -> float:
    """Residual bound for the distance between v and its elliptic lift:
    C12 ||h^2 lap(v)|| + C22 ||h^{3/2} J[grad v]||.  Without ``lap`` the
    discrete Laplacian of v is solved for, tagged "laplacian of v"."""
    jump = space.jump_norm(v, 1.5)    # rejects a v of another mesh first
    if lap is None:
        lap = space.function(tagged_solve(
            space.mass, space.stiffness @ v.coeffs, None, "laplacian of v"))
    return _elliptic(consts, space.weighted_element_norm(lap, 2.0), jump)


def coarsening_estimator(space: P1Space, rec: StepRecord, transfer=None) -> float:
    """Norm of (T - I) applied to -lap^{n-1} + U^{n-1}/k for a transfer
    operator T between consecutive spaces; exactly zero for the identity
    transfer used on a fixed mesh."""
    if transfer is None:
        return 0.0
    g = rec.U_prev / rec.k - rec.lap_prev
    return space.l2_norm(transfer(g) - g)


# ---------------------------------------------------------------------------
# per-step bundle


@dataclass
class StepEstimates:
    """All scalar indicators of one step; *_two/_three distinguish the
    reconstruction variants (identical at n = 1)."""

    n: int
    k: float
    k_prev: float
    eta_U: float
    gamma_two: float
    gamma_three: float
    eta_w_two: float
    eta_w_three: float
    norm_w_two: float
    norm_w_three: float
    norm_xi_theta: float
    delta: float
    beta_coarsen: float
    zeta1: float
    zeta2: float
    norm_xi_phi: float
    norm_proj_xi_phi: float
    z_norm: float
    y_norm: float
    compact_residual: float


class EstimatorEngine:
    """Evaluates every per-step indicator for one run.

    A step needs only its own record and the previous one, so steps of a
    fixed trajectory may be processed in any order.  The engine keeps no
    state but the buffers of its ``StackedSolves``, so it serves one
    thread at a time.
    """

    def __init__(self, space: P1Space, params: SchemeParams, forcing: ScalarField,
                 consts: ConstantsConfig | None = None):
        self.space = space
        self.params = params
        self.forcing = forcing
        self.consts = consts or ConstantsConfig()
        self._mass = StackedSolves(space.mass)

    # -- forcing data errors -------------------------------------------------

    def _data_errors(self, rec: StepRecord) -> tuple[float, float, float]:
        """(zeta1, zeta2, ||xi_phi||) of the step.

        zeta1 is the mean interpolation error of the forcing over the step,
        (1/k) int ||f(s) - interp(s)|| ds by three-point Gauss in time;
        zeta2 is c11 max over the endpoint forcings of ||h (I - P0)(f + xi)||,
        with xi at the quadrature points in ``rec.xi_phi_q4`` and P0 xi in
        ``rec.proj_xi_phi``.  The three norms of each kind take one pass
        over their fields, the rows of one buffer that the call holds: they
        are formed in place, squared in one call and weighted and summed row
        by row in one more each (``P1Space._weighted_norms``), every norm
        with the bits of ``quad_norm`` on the allocating expression.  The
        buffers belong to the call, so the engine keeps no state."""
        sp_, k = self.space, rec.k
        for vals in (rec.fq_prev, rec.fq_new, rec.xi_phi_q4):
            sp_._check_quad(vals)
        fields = np.empty((3, *rec.xi_phi_q4.shape))

        # (f + xi) - P0(f + xi) at both ends, and xi itself
        for row, fq, proj_f in ((fields[0], rec.fq_prev, rec.proj_f_prev),
                                (fields[1], rec.fq_new, rec.proj_f_new)):
            np.add(fq, rec.xi_phi_q4, out=row)
            np.subtract(row, sp_.eval_q4(proj_f + rec.proj_xi_phi), out=row)
        np.square(fields[:2], out=fields[:2])
        np.square(rec.xi_phi_q4, out=fields[2])
        defect_prev, defect_new, norm_xi_phi = sp_._weighted_norms(fields)
        h = sp_._h
        zeta2 = self.consts.c11 * max(h * defect_prev, h * defect_new)

        # f(s) - interp(s) at the three Gauss times
        t_mid = 0.5 * (rec.t_prev + rec.t_new)
        half = 0.5 * k
        # the interpolant's second product is added a block of cell rows at
        # a time, so its buffer is one block, not a fourth field (which
        # raised the peak memory of a level-7 run)
        blocks = list(sp_._row_blocks())
        part = np.empty(rec.fq_new[blocks[0]].shape)
        for row, off in zip(fields, _GAUSS3_OFFSETS):
            s = t_mid + half * off
            l1 = (s - rec.t_prev) / k
            np.multiply(1.0 - l1, rec.fq_prev, out=row)
            for block in blocks:
                np.add(row[block], np.multiply(l1, rec.fq_new[block], out=part),
                       out=row[block])
            np.subtract(sp_.eval_field_q4(self.forcing, s), row, out=row)
        np.square(fields, out=fields)
        acc = 0.0
        for wq, norm in zip(_GAUSS3_WEIGHTS, sp_._weighted_norms(fields)):
            acc += wq * norm
        return 0.5 * acc, zeta2, norm_xi_phi

    # -- the full per-step bundle ----------------------------------------------

    def step_estimates(self, rec: StepRecord,
                       prev_rec: StepRecord | None = None) -> StepEstimates:
        """Every indicator of the step: ``iter_estimates`` of the one
        record."""
        return next(self.iter_estimates([rec], prev_rec))

    def iter_estimates(self, records, prev_rec: StepRecord | None = None):
        """Yield the ``StepEstimates`` of each of the consecutive
        ``records`` in order, each record's previous record the one before
        it in the list (``prev_rec`` for the first).  The records'
        reconstruction Laplacians are solved first, as one list of the
        engine's ``StackedSolves``; a failed one raises at its record,
        after the estimates of the records before it."""
        sp_ = self.space
        ws = [recon_coeff_two_level(rec).coeffs for rec in records]
        laps = self._mass.solve([
            (sp_.stiffness @ w, rec.n, "laplacian of the reconstruction")
            for rec, w in zip(records, ws)])
        for rec, w, lap in zip(records, ws, laps):
            if isinstance(lap, SolverError):
                raise lap
            estimates = self._step_estimates(rec, prev_rec, w, lap)
            # a suspended generator keeps its locals: holding the record
            # before this one would keep its quadrature fields alive
            prev_rec = rec
            yield estimates

    def _step_estimates(self, rec: StepRecord, prev_rec: StepRecord | None,
                        w: np.ndarray, lap_w: np.ndarray) -> StepEstimates:
        """Every indicator of the step, each formed once here from the
        step's norms, given the two-level reconstruction coefficient w and
        its discrete Laplacian.  The step's M-norms, K-seminorms and jump
        norms are taken in one stacked call per kind, and the norm of each
        reconstruction Laplacian once for both of its weighted terms."""
        sp_, cs, h = self.space, self.consts, self.space._h
        k = rec.k

        # the reconstruction coefficients and their discrete Laplacians: the
        # two-level one, and from step 2 on the three-level one, whose
        # Laplacian is a multiple of the Laplacian second difference (the
        # discrete Laplacian is linear)
        coeffs, laps = [w], [lap_w]
        second_diffs = []
        k_prev = 0.0
        if prev_rec is not None:
            k_prev = prev_rec.k
            wt, lap_dd, f_dd = recon_coeff_three_level(rec, prev_rec)
            coeffs.append(wt.coeffs)
            laps.append((-4.0 / (k_prev * (k + k_prev))) * lap_dd.coeffs)
            second_diffs = [lap_dd.coeffs, f_dd.coeffs]

        norms = iter(sp_.l2_norms([
            rec.xi_theta.coeffs, rec.proj_xi_phi.coeffs, rec.lap_new.coeffs,
            (rec.lap_new.coeffs - rec.lap_prev.coeffs) / k,
            *_compact_rows(rec), *coeffs, *laps, *second_diffs]))
        norm_xi_t, norm_proj_xi, lap_new, lap_step = islice(norms, 4)
        compact = _compact_residual(*islice(norms, 4))
        coeff_norms = list(islice(norms, len(coeffs)))
        lap_norms = list(islice(norms, len(laps)))
        z_norm, y_norm = list(norms) or (0.0, 0.0)
        seminorms = sp_.h1_seminorms(coeffs)
        jump_u, jump_step, *coeff_jumps = sp_.jump_norms(
            [rec.U_new.coeffs, rec.U_new.coeffs - rec.U_prev.coeffs, *coeffs], 1.5)
        zeta1, zeta2, norm_xi_phi = self._data_errors(rec)

        # (time weight, elliptic indicator, L2 norm) of each coefficient; at
        # step 1 the two-level values stand in for the three-level ones
        indicators = [(_time_weight(k, cs, seminorm, h ** 1.0 * lap),
                       _elliptic(cs, h ** 2.0 * lap, jump), norm)
                      for seminorm, lap, jump, norm
                      in zip(seminorms, lap_norms, coeff_jumps, coeff_norms)]
        gamma2, eta_w2, norm_w2 = indicators[0]
        gamma3, eta_w3, norm_w3 = indicators[-1]

        return StepEstimates(
            n=rec.n, k=k, k_prev=k_prev,
            eta_U=_elliptic(cs, h ** 2.0 * lap_new, jump_u),
            gamma_two=gamma2, gamma_three=gamma3,
            eta_w_two=eta_w2, eta_w_three=eta_w3,
            norm_w_two=norm_w2, norm_w_three=norm_w3,
            norm_xi_theta=norm_xi_t,
            # the step difference's jump term deliberately carries no 1/k
            delta=_elliptic(cs, h ** 2.0 * lap_step, jump_step),
            beta_coarsen=coarsening_estimator(sp_, rec, None),  # fixed mesh
            zeta1=zeta1, zeta2=zeta2, norm_xi_phi=norm_xi_phi,
            norm_proj_xi_phi=norm_proj_xi,
            z_norm=z_norm, y_norm=y_norm,
            compact_residual=compact,
        )


def _compact_rows(rec: StepRecord) -> tuple[np.ndarray, ...]:
    """Coefficients of the slope, the corrected-midpoint Laplacian, the
    projected corrected forcing and the residual of the compact form."""
    slope = (rec.U_new.coeffs - rec.U_prev.coeffs) / rec.k
    theta_hat = (0.5 * (rec.lap_prev.coeffs + rec.lap_new.coeffs)
                 - rec.xi_theta.coeffs)
    phi_hat = (0.5 * (rec.proj_f_prev.coeffs + rec.proj_f_new.coeffs)
               - rec.proj_xi_phi.coeffs)
    return slope, theta_hat, phi_hat, slope + theta_hat - phi_hat


def _compact_residual(slope: float, theta_hat: float, phi_hat: float,
                      resid: float) -> float:
    """Relative residual of the single-equation form of the step: the
    residual's L2 norm over the largest of its three terms' (0 when all
    three vanish), from the four norms.  It vanishes to solver tolerance
    when the substep algebra and the corrections are consistent."""
    scale = max(slope, theta_hat, phi_hat)
    return 0.0 if scale == 0.0 else resid / scale


# ---------------------------------------------------------------------------
# accumulation

REPORT_COLUMNS = (
    "m", "t_m",
    "E_T1_two", "E_T1_three", "E_T2", "E_T3",
    "E_S1_two", "E_S1_three", "E_S2", "E_C", "E_D1", "E_D2",
    "E_ell", "E_rec_two", "E_rec_three", "E_m1",
    "total_two", "total_three", "bound_two", "bound_three",
)


@dataclass
class EstimatorReport:
    """Running estimator values, one row per completed step."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def final(self, name: str) -> float:
        if not self.rows:
            raise ValueError("report is empty")
        return self.rows[-1][self.columns.index(name)]

    def write_csv(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([f"{v:.10e}" if isinstance(v, float) else v
                                 for v in row])


class EstimatorAccumulator:
    """Folds per-step estimates into the running totals and bounds.

    ``initial_elliptic`` seeds the elliptic maximum with the indicator of
    the initial state; ``rho0`` is a bound on the initial reconstruction
    error entering the composite bounds with factor sqrt(2).  Steps must
    arrive in order: the E_m1 term pairs each step's correction norms with
    the previous step's, which the accumulator keeps.

    Both variants take one formula each: total = E_T1 + E_T2 + E_T3 + E_S1
    + E_S2 + E_ell + E_rec and bound = sqrt(2) rho0 + E_T1 + hypot(E_T2 +
    E_T3 + E_S1 + E_S2 + E_C + E_D1 + E_m1, E_D2) + E_rec + E_ell, with the
    variant's E_T1, E_S1 and E_rec, and E_T3 = E_m1 = 0 in the two-level
    variant (its sums keep their bits: x + 0.0 is x for x >= 0).
    """

    def __init__(self, params: SchemeParams, initial_elliptic: float = 0.0,
                 rho0: float = 0.0):
        self.params = params
        self.rho0 = rho0
        self._n = 0
        # (two-level, three-level) running sum k gamma^2, E_S1 and E_rec
        self._sum_kg2, self._e_s1, self._e_rec = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
        self._e_t2 = self._e_t3 = self._e_s2 = self._e_c = 0.0
        self._e_d1 = self._e_d2 = self._e_m1 = 0.0
        self._e_ell = initial_elliptic
        self._prev_xi_theta = self._prev_proj_xi_phi = 0.0
        self.rows: list[tuple] = []

    def add(self, se: StepEstimates) -> None:
        if se.n != self._n + 1:
            raise ValueError(
                f"steps must be accumulated in order: expected {self._n + 1}, "
                f"got {se.n}")
        self._n = se.n
        k = se.k

        self._e_t2 += 2.0 * k * se.norm_xi_theta
        self._e_s2 += 2.0 * k * se.delta
        self._e_c += 2.0 * k * se.beta_coarsen
        self._e_d1 += 2.0 * k * (se.zeta1 + se.norm_xi_phi)
        self._e_d2 += math.sqrt(k) * se.zeta2
        self._e_ell = max(self._e_ell, se.eta_U)
        if se.n >= 2:
            self._e_t3 += k * k / (2.0 * (k + se.k_prev)) * se.z_norm
            self._e_m1 += k * (
                k / (2.0 * (k + se.k_prev)) * se.y_norm
                + 0.25 * k * (se.norm_xi_theta + self._prev_xi_theta)
                + 0.25 * k * (se.norm_proj_xi_phi + self._prev_proj_xi_phi))
        self._prev_xi_theta = se.norm_xi_theta
        self._prev_proj_xi_phi = se.norm_proj_xi_phi

        e_t1, totals, bounds = [], [], []
        for i, (gamma, eta_w, norm_w, e_t3, e_m1) in enumerate((
                (se.gamma_two, se.eta_w_two, se.norm_w_two, 0.0, 0.0),
                (se.gamma_three, se.eta_w_three, se.norm_w_three,
                 self._e_t3, self._e_m1))):
            self._sum_kg2[i] += k * gamma ** 2
            e_t1.append(math.sqrt(self._sum_kg2[i]))
            self._e_s1[i] += 0.5 * k * k * eta_w
            self._e_rec[i] = max(self._e_rec[i], k * k / 8.0 * (eta_w + norm_w))
            totals.append(e_t1[i] + self._e_t2 + e_t3 + self._e_s1[i]
                          + self._e_s2 + self._e_ell + self._e_rec[i])
            bounds.append(math.sqrt(2.0) * self.rho0 + e_t1[i]
                          + math.hypot(self._e_t2 + e_t3 + self._e_s1[i]
                                       + self._e_s2 + self._e_c + self._e_d1
                                       + e_m1, self._e_d2)
                          + self._e_rec[i] + self._e_ell)

        self.rows.append((
            se.n, self.params.time(se.n),
            *e_t1, self._e_t2, self._e_t3, *self._e_s1, self._e_s2, self._e_c,
            self._e_d1, self._e_d2, self._e_ell, *self._e_rec, self._e_m1,
            *totals, *bounds,
        ))

    def report(self) -> EstimatorReport:
        return EstimatorReport(REPORT_COLUMNS, list(self.rows))
