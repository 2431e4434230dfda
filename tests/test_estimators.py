import math
from itertools import islice

import numpy as np
import pytest
import scipy.linalg

from fstheta import (ConstantsConfig, EstimatorAccumulator,
                     EstimatorEngine, P1Space, ScalarField, SchemeParams,
                     SolverError, ThetaScheme, build_uniform_mesh,
                     coarsening_estimator, elliptic_estimator, eoc, make_case,
                     make_uniform_grid, recon_coeff_three_level,
                     recon_coeff_two_level, verify_forcing)
from fstheta.estimators import REPORT_COLUMNS, StepEstimates
from fstheta.scheme import THETA_DEFAULT, correction_coeffs, substep_defect
from fstheta.solver import StackedSolves

from helpers import (composed_step_estimates, corrected_forcing_interpolant,
                     data_projection_error, data_time_error, direct_xi_theta,
                     discrete_laplacian,
                     fe_as_field, flat_quad_norm, forcing_interpolant,
                     forcing_substep_defect, four_laplacian_xi_theta,
                     lap_time_interpolant, nodal_interpolant,
                     project_quad_values, quadrature_exactness_check,
                     random_grid, record_solves, scipy_dia,
                     synthetic_record as _synthetic_record,
                     varstep_case, zero_field)

PI = np.pi


@pytest.fixture(scope="module")
def space2():
    return P1Space(build_uniform_mesh(2))


@pytest.fixture(scope="module")
def space3():
    return P1Space(build_uniform_mesh(3))


def _params(n_steps=4, final_time=1.0, **kw):
    return SchemeParams(make_uniform_grid(n_steps, final_time), **kw)


def _random_fe(space, seed):
    rng = np.random.default_rng(seed)
    return space.function(rng.standard_normal(space.n_dofs))


# -- nodal time quadrature ------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.5857864376269049, 0.9])
def test_quadrature_exact_at_default_theta(alpha):
    assert quadrature_exactness_check(alpha) <= 1e-14


def test_quadrature_exact_for_alpha_half_any_theta():
    assert quadrature_exactness_check(0.5, theta=0.25) <= 1e-14


def test_quadrature_defect_positive_otherwise():
    # direct evaluation oracle at theta = 0.25, alpha = 0.6
    theta, alpha = 0.25, 0.6
    beta = 1.0 - alpha
    nodes = [0.0, theta, 1.0 - theta, 1.0]
    weights = [beta * theta, alpha * (1 - theta), beta * (1 - theta),
               alpha * theta]
    defect = abs(sum(w * s for w, s in zip(weights, nodes)) - 0.5)
    assert defect > 1e-3
    assert abs(quadrature_exactness_check(alpha, theta=theta) - defect) <= 1e-15


# -- interpolants and corrections ------------------------------------------------

def test_lap_interpolant_endpoints(space2):
    a, b = _random_fe(space2, 1), _random_fe(space2, 2)
    rec = _synthetic_record(space2, 1, 0.0, 0.25,
                            (space2.function(), space2.function()), laps=(a, b))
    assert np.array_equal(lap_time_interpolant(rec, 0.0).coeffs, a.coeffs)
    assert np.array_equal(lap_time_interpolant(rec, 0.25).coeffs, b.coeffs)
    mid = lap_time_interpolant(rec, 0.125)
    assert np.allclose(mid.coeffs, 0.5 * (a.coeffs + b.coeffs))


def test_corrections_vanish_on_zero_trajectory(space2):
    p = _params()
    scheme = ThetaScheme(space2, p, zero_field())
    for rec in scheme.iter_steps(scheme.initial_state()):
        assert (rec.xi_theta.coeffs == 0.0).all()
        assert (rec.proj_xi_phi.coeffs == 0.0).all()


def test_correction_coeffs_sum():
    # the four weights reproduce a zero correction on any time-constant field
    c0, c1, ca, cm = correction_coeffs(THETA_DEFAULT, 0.7)
    assert abs((c0 + c1) - (ca + cm)) <= 1e-15


def test_forcing_defect_zero_for_constant_and_linear_in_time():
    p = _params()
    for name, f in (("const", lambda x, y, t: 2.0 + x * y),
                    ("linear", lambda x, y, t: (1.0 + 3.0 * t) * (x + y))):
        field = ScalarField(name, f)
        xi = forcing_substep_defect(p, 2, field)
        phi = forcing_interpolant(p, 2, field)
        hat = corrected_forcing_interpolant(p, 2, field)
        rng = np.random.default_rng(5)
        for x, y in rng.uniform(0, 1, size=(10, 2)):
            t = p.time(1) + 0.3 * p.step_size(2)
            assert abs(xi(x, y, t)) <= 1e-13
            assert abs(phi(x, y, t) - f(x, y, t)) <= 1e-13
            assert abs(hat(x, y, t) - phi(x, y, t) + xi(x, y, t)) <= 1e-15


def test_forcing_defect_second_order_in_k(space2):
    # worst step of each run, so the oscillation phase cannot bias the sweep
    g = ScalarField("fast", lambda x, y, t: np.sin(15 * PI * t)
                    * np.sin(PI * x) * np.sin(PI * y))
    maxima, ks = [], []
    for n_steps in (32, 64, 128, 256):
        p = SchemeParams(make_uniform_grid(n_steps, 1.0))
        worst = 0.0
        for n in range(1, n_steps + 1):
            xi = forcing_substep_defect(p, n, g)
            worst = max(worst, space2.quad_norm(
                space2.eval_field_q4(xi, p.time(n))))
        maxima.append(worst)
        ks.append(1.0 / n_steps)
    orders = eoc(maxima, ks)
    assert all(1.8 <= o <= 2.2 for o in orders)


# -- reconstruction coefficients ---------------------------------------------------

def test_two_level_coeff_zero_for_stationary(space2):
    u = _random_fe(space2, 3)
    lap = _random_fe(space2, 4)
    pf = _random_fe(space2, 5)
    rec = _synthetic_record(space2, 1, 0.0, 0.25, (u, u), laps=(lap, lap),
                            projs=(pf, pf))
    assert (recon_coeff_two_level(rec).coeffs == 0.0).all()


def test_two_level_coeff_matches_eigen_oracle():
    space = P1Space(build_uniform_mesh(3))
    lams, vecs = scipy.linalg.eigh(scipy_dia(space.stiffness).toarray(),
                                   scipy_dia(space.mass).toarray())
    p = _params(n_steps=8)
    scheme = ThetaScheme(space, p, zero_field())
    v = space.function(vecs[:, 0])
    rec = next(scheme.iter_steps(v))
    w = recon_coeff_two_level(rec)
    # with zero forcing, w = lam (U^1 - U^0) / k along the eigenmode
    want = lams[0] * (rec.U_new.coeffs - rec.U_prev.coeffs) / rec.k
    scale = np.abs(want).max()
    assert np.abs(w.coeffs - want).max() <= 1e-7 * scale


def test_three_level_coeff_vanishes_on_linear_trajectory(space2):
    # dyadic data so the second difference cancels exactly in floats
    v = space2.function(np.arange(space2.n_dofs, dtype=float) + 1.0)
    k = 0.25
    states = [space2.function(j * k * v.coeffs) for j in range(3)]
    rec1 = _synthetic_record(space2, 1, 0.0, k, (states[0], states[1]))
    rec2 = _synthetic_record(space2, 2, k, 2 * k, (states[1], states[2]))
    wt, z, y = recon_coeff_three_level(rec2, rec1)
    assert (wt.coeffs == 0.0).all()
    assert (z.coeffs == 0.0).all() and (y.coeffs == 0.0).all()


@pytest.mark.parametrize("ratio", [1.0, 0.5, 2.0])
def test_three_level_second_differences_match_extrapolation_oracle(space2, ratio):
    # oracle: z equals the previous-interval midpoint value of the piecewise
    # linear laplacian interpolant minus its extrapolation from the current
    # interval (and the same for the forcing projections)
    laps = [_random_fe(space2, 11 + i) for i in range(3)]
    projs = [_random_fe(space2, 17 + i) for i in range(3)]
    states = [_random_fe(space2, 23 + i) for i in range(3)]
    k = 0.2
    k_prev = ratio * k
    rec1 = _synthetic_record(space2, 1, 0.0, k_prev, (states[0], states[1]),
                             laps=(laps[0], laps[1]), projs=(projs[0], projs[1]))
    rec2 = _synthetic_record(space2, 2, k_prev, k_prev + k,
                             (states[1], states[2]),
                             laps=(laps[1], laps[2]), projs=(projs[1], projs[2]))
    _, z, y = recon_coeff_three_level(rec2, rec1)
    r = k_prev / k
    mid_prev = 0.5 * (laps[0].coeffs + laps[1].coeffs)
    extrap = (1.0 + 0.5 * r) * laps[1].coeffs - 0.5 * r * laps[2].coeffs
    assert np.abs(z.coeffs - (mid_prev - extrap)).max() <= 1e-13
    mid_prev_f = 0.5 * (projs[0].coeffs + projs[1].coeffs)
    extrap_f = (1.0 + 0.5 * r) * projs[1].coeffs - 0.5 * r * projs[2].coeffs
    assert np.abs(y.coeffs - (mid_prev_f - extrap_f)).max() <= 1e-13


def test_three_level_uniform_k_is_half_second_difference(space2):
    laps = [_random_fe(space2, 31 + i) for i in range(3)]
    states = [_random_fe(space2, 37 + i) for i in range(3)]
    rec1 = _synthetic_record(space2, 1, 0.0, 0.25, (states[0], states[1]),
                             laps=(laps[0], laps[1]))
    rec2 = _synthetic_record(space2, 2, 0.25, 0.5, (states[1], states[2]),
                             laps=(laps[1], laps[2]))
    _, z, _ = recon_coeff_three_level(rec2, rec1)
    want = 0.5 * (laps[2].coeffs - 2.0 * laps[1].coeffs + laps[0].coeffs)
    assert np.abs(z.coeffs - want).max() <= 1e-13


def test_three_level_precondition_errors(space2):
    z = space2.function()
    rec1 = _synthetic_record(space2, 1, 0.0, 0.25, (z, z))
    with pytest.raises(ValueError):
        recon_coeff_three_level(rec1, None)
    rec3 = _synthetic_record(space2, 3, 0.5, 0.75, (z, z))
    with pytest.raises(ValueError):
        recon_coeff_three_level(rec3, rec1)


# -- scalar indicators ---------------------------------------------------------

def test_elliptic_estimator_zero_and_homogeneity(space3):
    consts = ConstantsConfig()
    assert elliptic_estimator(space3, space3.function(), consts) == 0.0
    v = _random_fe(space3, 41)
    base = elliptic_estimator(space3, v, consts)
    for c in (-3.0, 0.5):
        got = elliptic_estimator(space3, c * v, consts)
        assert abs(got - abs(c) * base) <= 1e-12 * base


def test_elliptic_estimator_solves_its_laplacian_through_the_tagged_solve(
        space3):
    v = _random_fe(space3, 41)
    bad = space3.function(np.where(np.arange(space3.n_dofs) == 5, np.inf, 0.0))
    consts = ConstantsConfig()
    assert elliptic_estimator(space3, v, consts) == elliptic_estimator(
        space3, v, consts, lap=discrete_laplacian(space3, v))
    with pytest.raises(SolverError) as err:
        elliptic_estimator(space3, bad, consts)
    assert str(err.value) == "laplacian of v: right-hand side is not finite"


def test_elliptic_estimator_second_order_on_interpolants():
    g = ScalarField("s", lambda x, y, t: np.sin(PI * x) * np.sin(PI * y))
    consts = ConstantsConfig()
    vals, hs = [], []
    for level in (3, 4, 5, 6):
        space = P1Space(build_uniform_mesh(level))
        vals.append(elliptic_estimator(space, nodal_interpolant(space, g, 0.0),
                                       consts))
        hs.append(2.0 ** (-level))
    orders = eoc(vals, hs)
    assert all(abs(o - 2.0) <= 0.2 for o in orders)


def test_step_difference_zero_for_stationary(space3):
    u = _random_fe(space3, 47)
    lap = _random_fe(space3, 48)
    rec = _synthetic_record(space3, 1, 0.0, 0.25, (u, u), laps=(lap, lap))
    engine = EstimatorEngine(space3, _params(), zero_field())
    assert engine.step_estimates(rec).delta == 0.0


def test_step_difference_homogeneous_in_increment(space3):
    u0 = _random_fe(space3, 49)
    du = _random_fe(space3, 50)
    lap0 = _random_fe(space3, 51)
    dlap = _random_fe(space3, 52)
    engine = EstimatorEngine(space3, _params(), zero_field())

    def delta_for(scale):
        return engine.step_estimates(_synthetic_record(
            space3, 1, 0.0, 0.25, (u0, u0 + scale * du),
            laps=(lap0, lap0 + scale * dlap))).delta

    base = delta_for(1.0)
    got = delta_for(3.0)
    assert abs(got - 3.0 * base) <= 1e-12 * base


def test_coarsening_estimator_identity_and_oracle(space3):
    u = _random_fe(space3, 53)
    lap = _random_fe(space3, 54)
    rec = _synthetic_record(space3, 1, 0.0, 0.25, (u, u), laps=(lap, lap))
    assert coarsening_estimator(space3, rec, None) == 0.0
    z = space3.function()
    zrec = _synthetic_record(space3, 1, 0.0, 0.25, (z, z))

    def drop_first_dof(fe):
        coeffs = fe.coeffs.copy()
        coeffs[0] = 0.0
        return space3.function(coeffs)

    assert coarsening_estimator(space3, zrec, drop_first_dof) == 0.0
    got = coarsening_estimator(space3, rec, drop_first_dof)
    g = u / rec.k - lap
    want = space3.l2_norm(drop_first_dof(g) - g)
    assert abs(got - want) <= 1e-14


# -- data oscillation ------------------------------------------------------------

def _engine_record(space, f, n_steps=4, n=1, **kw):
    p = _params(n_steps=n_steps, **kw)
    scheme = ThetaScheme(space, p, f)
    engine = EstimatorEngine(space, p, f)
    state = scheme.initial_state()
    rec = prev = None
    for r in scheme.iter_steps(state):
        prev, rec = rec, r
        if r.n == n:
            break
    return engine, rec, prev


def test_data_errors_vanish_for_time_linear_fe_forcing(space2):
    base = _random_fe(space2, 57)
    field = fe_as_field(base)
    f = ScalarField("lin", lambda x, y, t: (1.0 + 2.0 * t) * field(x, y, t))
    engine, rec, prev = _engine_record(space2, f)
    assert np.abs(rec.xi_phi_q4).max() <= 1e-12
    se = engine.step_estimates(rec, prev)
    assert se.zeta1 <= 1e-12
    assert se.zeta2 <= 1e-9


def test_data_projection_error_positive_for_rough_forcing(space2):
    f = ScalarField("rough", lambda x, y, t: (1.0 + 2.0 * t)
                    * np.sin(3 * PI * x) * np.sin(2 * PI * y))
    engine, rec, prev = _engine_record(space2, f)
    se = engine.step_estimates(rec, prev)
    assert se.zeta1 <= 1e-12
    assert se.zeta2 > 1e-3


def test_data_time_error_second_order_in_k(space2):
    # run-accumulated sum k_n * zeta1(n), averaging out the phase of the
    # fast-in-time forcing
    f = make_case(2).forcing_f
    vals, ks = [], []
    for n_steps in (32, 64, 128, 256):
        p = _params(n_steps=n_steps)
        scheme = ThetaScheme(space2, p, f)
        engine = EstimatorEngine(space2, p, f)
        total = 0.0
        for rec in scheme.iter_steps(scheme.initial_state()):
            total += rec.k * engine.step_estimates(rec).zeta1
        vals.append(total)
        ks.append(1.0 / n_steps)
    orders = eoc(vals, ks)
    assert all(1.8 <= o <= 2.2 for o in orders)


# -- engine bundle and accumulator -----------------------------------------------

def test_compact_residual_zero_for_zero_trajectory(space2):
    z = space2.function()
    rec = _synthetic_record(space2, 1, 0.0, 0.25, (z, z))
    engine = EstimatorEngine(space2, _params(), zero_field())
    assert engine.step_estimates(rec).compact_residual == 0.0


def test_step_estimates_all_zero_on_zero_run(space2):
    p = _params()
    scheme = ThetaScheme(space2, p, zero_field())
    engine = EstimatorEngine(space2, p, zero_field())
    acc = EstimatorAccumulator(p)
    prev = None
    for rec in scheme.iter_steps(scheme.initial_state()):
        se = engine.step_estimates(rec, prev)
        acc.add(se)
        prev = rec
    report = acc.report()
    for col in REPORT_COLUMNS[2:]:
        assert report.final(col) == 0.0


def test_accumulator_single_hand_step():
    p = _params(n_steps=1, final_time=1.0)
    acc = EstimatorAccumulator(p)
    se = StepEstimates(
        n=1, k=1.0, k_prev=0.0, eta_U=0.0, gamma_two=2.0, gamma_three=2.0,
        eta_w_two=0.0, eta_w_three=0.0, norm_w_two=0.0, norm_w_three=0.0,
        norm_xi_theta=0.0, delta=0.0,
        beta_coarsen=0.0, zeta1=0.0, zeta2=0.0, norm_xi_phi=0.0,
        norm_proj_xi_phi=0.0, z_norm=0.0,
        y_norm=0.0, compact_residual=0.0)
    acc.add(se)
    report = acc.report()
    assert report.final("E_T1_two") == 2.0
    assert report.final("total_two") == 2.0
    assert report.final("bound_two") == 2.0


def test_accumulator_rejects_out_of_order():
    acc = EstimatorAccumulator(_params())
    se = StepEstimates(
        n=2, k=0.25, k_prev=0.25, eta_U=0.0, gamma_two=0.0, gamma_three=0.0,
        eta_w_two=0.0, eta_w_three=0.0, norm_w_two=0.0, norm_w_three=0.0,
        norm_xi_theta=0.0, delta=0.0,
        beta_coarsen=0.0, zeta1=0.0, zeta2=0.0, norm_xi_phi=0.0,
        norm_proj_xi_phi=0.0, z_norm=0.0,
        y_norm=0.0, compact_residual=0.0)
    with pytest.raises(ValueError):
        acc.add(se)


def test_accumulator_formulas_one_step_each_term():
    # hand-check every running formula on a single synthetic step
    p = _params(n_steps=2, final_time=0.5)
    acc = EstimatorAccumulator(p, initial_elliptic=0.3, rho0=0.1)
    k = 0.25
    se = StepEstimates(
        n=1, k=k, k_prev=0.0, eta_U=0.2, gamma_two=1.0, gamma_three=1.0,
        eta_w_two=2.0, eta_w_three=2.0, norm_w_two=3.0, norm_w_three=3.0,
        norm_xi_theta=4.0, delta=5.0,
        beta_coarsen=6.0, zeta1=7.0, zeta2=8.0, norm_xi_phi=9.0,
        norm_proj_xi_phi=1.0, z_norm=0.0,
        y_norm=0.0, compact_residual=0.0)
    acc.add(se)
    rep = acc.report()
    assert abs(rep.final("E_T1_two") - math.sqrt(k * 1.0)) <= 1e-15
    assert abs(rep.final("E_T2") - 2 * k * 4.0) <= 1e-15
    assert abs(rep.final("E_S1_two") - 0.5 * k * k * 2.0) <= 1e-15
    assert abs(rep.final("E_S2") - 2 * k * 5.0) <= 1e-15
    assert abs(rep.final("E_C") - 2 * k * 6.0) <= 1e-15
    assert abs(rep.final("E_D1") - 2 * k * (7.0 + 9.0)) <= 1e-15
    assert abs(rep.final("E_D2") - math.sqrt(k) * 8.0) <= 1e-15
    assert rep.final("E_ell") == 0.3            # seeded initial maximum
    assert abs(rep.final("E_rec_two") - k * k / 8.0 * (2.0 + 3.0)) <= 1e-15
    assert rep.final("E_T3") == 0.0             # three-level terms start at n=2
    assert rep.final("E_m1") == 0.0
    total = (rep.final("E_T1_two") + rep.final("E_T2") + rep.final("E_S1_two")
             + rep.final("E_S2") + rep.final("E_ell") + rep.final("E_rec_two"))
    assert abs(rep.final("total_two") - total) <= 1e-15
    group = (rep.final("E_T2") + rep.final("E_S1_two") + rep.final("E_S2")
             + rep.final("E_C") + rep.final("E_D1"))
    bound = (math.sqrt(2.0) * 0.1 + rep.final("E_T1_two")
             + math.hypot(group, rep.final("E_D2"))
             + rep.final("E_rec_two") + rep.final("E_ell"))
    assert abs(rep.final("bound_two") - bound) <= 1e-15


def test_accumulator_three_level_formulas_over_two_steps():
    # hand-check the three-level columns on two synthetic steps of unequal
    # size: step 1 takes equal two/three inputs (as step_estimates gives
    # them), step 2 distinct ones and the E_T3 and E_m1 inputs
    k1, k2 = 0.2, 0.3
    acc = EstimatorAccumulator(SchemeParams(np.array([0.0, k1, k1 + k2])),
                               initial_elliptic=0.05, rho0=0.1)
    shared = dict(delta=0.6, beta_coarsen=0.7, zeta1=0.8, zeta2=0.9,
                  norm_xi_phi=1.1, compact_residual=0.0)
    acc.add(StepEstimates(
        n=1, k=k1, k_prev=0.0, eta_U=0.2, gamma_two=1.5, gamma_three=1.5,
        eta_w_two=2.5, eta_w_three=2.5, norm_w_two=3.5, norm_w_three=3.5,
        norm_xi_theta=0.4, norm_proj_xi_phi=0.3, z_norm=0.0, y_norm=0.0,
        **shared))
    row1 = dict(zip(REPORT_COLUMNS, acc.rows[-1]))
    for col in ("E_T1", "E_S1", "E_rec", "total", "bound"):
        assert row1[f"{col}_two"] == row1[f"{col}_three"], col
    assert row1["E_T3"] == row1["E_m1"] == 0.0

    acc.add(StepEstimates(
        n=2, k=k2, k_prev=k1, eta_U=0.1, gamma_two=1.0, gamma_three=0.25,
        eta_w_two=0.5, eta_w_three=40.0, norm_w_two=0.5, norm_w_three=5.0,
        norm_xi_theta=0.5, norm_proj_xi_phi=0.7, z_norm=6.0, y_norm=7.0,
        **shared))
    row = dict(zip(REPORT_COLUMNS, acc.rows[-1]))
    assert row["m"] == 2 and row["t_m"] == k1 + k2

    def close(name, want):
        assert math.isclose(row[name], want, rel_tol=1e-14, abs_tol=0.0), name

    e_t1 = math.sqrt(k1 * 1.5 ** 2 + k2 * 0.25 ** 2)
    e_t2 = 2 * k1 * 0.4 + 2 * k2 * 0.5
    e_t3 = k2 * k2 / (2 * (k2 + k1)) * 6.0
    e_s1 = 0.5 * k1 * k1 * 2.5 + 0.5 * k2 * k2 * 40.0
    e_s2 = 2 * (k1 + k2) * 0.6
    e_c = 2 * (k1 + k2) * 0.7
    e_d1 = 2 * (k1 + k2) * (0.8 + 1.1)
    e_d2 = (math.sqrt(k1) + math.sqrt(k2)) * 0.9
    e_ell = 0.2                 # the larger of the seed and both indicators
    # step 2's reconstruction indicator is the larger in the three-level
    # variant, step 1's in the two-level one
    e_rec = max(k1 * k1 / 8 * (2.5 + 3.5), k2 * k2 / 8 * (40.0 + 5.0))
    assert e_rec == k2 * k2 / 8 * (40.0 + 5.0)
    e_m1 = k2 * (k2 / (2 * (k2 + k1)) * 7.0 + 0.25 * k2 * (0.5 + 0.4)
                 + 0.25 * k2 * (0.7 + 0.3))
    for name, want in (("E_T1_three", e_t1), ("E_T2", e_t2), ("E_T3", e_t3),
                       ("E_S1_three", e_s1), ("E_S2", e_s2), ("E_C", e_c),
                       ("E_D1", e_d1), ("E_D2", e_d2), ("E_ell", e_ell),
                       ("E_rec_three", e_rec), ("E_m1", e_m1)):
        close(name, want)
    close("total_three", e_t1 + e_t2 + e_t3 + e_s1 + e_s2 + e_ell + e_rec)
    close("bound_three", math.sqrt(2.0) * 0.1 + e_t1
          + math.hypot(e_t2 + e_t3 + e_s1 + e_s2 + e_c + e_d1 + e_m1, e_d2)
          + e_rec + e_ell)
    # the two-level columns leave E_T3 and E_m1 out
    assert row["E_rec_two"] == row1["E_rec_two"] == k1 * k1 / 8 * (2.5 + 3.5)
    close("total_two", row["E_T1_two"] + e_t2 + row["E_S1_two"] + e_s2 + e_ell
          + row["E_rec_two"])
    close("bound_two", math.sqrt(2.0) * 0.1 + row["E_T1_two"]
          + math.hypot(e_t2 + row["E_S1_two"] + e_s2 + e_c + e_d1, e_d2)
          + row["E_rec_two"] + e_ell)


def test_report_csv_roundtrip(tmp_path, space2):
    p = _params()
    f = make_case(1).forcing_f
    scheme = ThetaScheme(space2, p, f)
    engine = EstimatorEngine(space2, p, f)
    acc = EstimatorAccumulator(p)
    prev = None
    for rec in scheme.iter_steps(scheme.initial_state()):
        acc.add(engine.step_estimates(rec, prev))
        prev = rec
    report = acc.report()
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == list(REPORT_COLUMNS)
    assert len(lines) == 1 + len(report.rows)
    last = lines[-1].split(",")
    assert int(last[0]) == p.n_steps
    total = report.final("total_two")
    # rows are serialized with ten significant digits
    assert abs(float(last[REPORT_COLUMNS.index("total_two")]) - total) \
        <= 1e-9 * max(total, 1.0)


def test_report_columns_nondecreasing_and_estimates_nonnegative(space2):
    # running sums and maxima never decrease; every per-step entry is a
    # finite nonnegative number
    from dataclasses import asdict

    p = _params(n_steps=6)
    f = make_case(1).forcing_f
    scheme = ThetaScheme(space2, p, f)
    engine = EstimatorEngine(space2, p, f)
    acc = EstimatorAccumulator(p)
    prev = None
    for rec in scheme.iter_steps(scheme.initial_state()):
        se = engine.step_estimates(rec, prev)
        for name, value in asdict(se).items():
            if name in ("n",):
                continue
            assert np.isfinite(value), name
            assert value >= 0.0, name
        acc.add(se)
        prev = rec
    report = acc.report()
    for i, col in enumerate(REPORT_COLUMNS[2:], start=2):
        series = np.array([row[i] for row in report.rows])
        assert (np.diff(series) >= -1e-15).all(), col


def test_accumulator_carries_previous_step_norms():
    # E_m1 pairs each step's correction norms with the previous step's,
    # which the accumulator keeps itself
    p = _params(n_steps=2, final_time=0.5)
    acc = EstimatorAccumulator(p)
    k = 0.25
    zeros = dict(eta_U=0.0, gamma_two=0.0, gamma_three=0.0, eta_w_two=0.0,
                 eta_w_three=0.0, norm_w_two=0.0, norm_w_three=0.0, delta=0.0,
                 beta_coarsen=0.0, zeta1=0.0, zeta2=0.0, norm_xi_phi=0.0,
                 z_norm=0.0, y_norm=0.0, compact_residual=0.0)
    acc.add(StepEstimates(n=1, k=k, k_prev=0.0, norm_xi_theta=2.0,
                          norm_proj_xi_phi=3.0, **zeros))
    assert acc.report().final("E_m1") == 0.0
    acc.add(StepEstimates(n=2, k=k, k_prev=k, norm_xi_theta=5.0,
                          norm_proj_xi_phi=7.0, **zeros))
    want = k * (0.25 * k * (5.0 + 2.0) + 0.25 * k * (7.0 + 3.0))
    assert abs(acc.report().final("E_m1") - want) <= 1e-15


def test_engine_is_stateless(space2):
    # a fresh engine gives the same step-2 estimates as one that saw step 1
    p = _params()
    f = make_case(1).forcing_f
    scheme = ThetaScheme(space2, p, f)
    records = list(scheme.iter_steps(scheme.initial_state()))
    seq = EstimatorEngine(space2, p, f)
    seq.step_estimates(records[0], None)
    fresh = EstimatorEngine(space2, p, f)
    assert seq.step_estimates(records[1], records[0]) == \
        fresh.step_estimates(records[1], records[0])


# (case, theta, alpha1, time grid, level) of the runs whose steps the data
# errors and the composed indicators check: the built-in cases at the
# default and a non-default theta and alpha1, on a uniform and a seeded
# +-50 % grid; the first six steps of each run are checked
_DATA_RUNS = {
    f"case{case}-theta{theta or 'default'}-alpha{alpha1 or 'default'}"
    f"-{grid}-level{level}": (case, theta, alpha1, grid, level)
    for case in (1, 2, 3) for theta in (None, 0.25) for alpha1 in (0.6, None)
    for grid in ("uniform", "random") for level in (3, 5)}
_CHECKED_STEPS = 6


def _data_run(case_id, theta, alpha1, grid, level):
    """Space, engine and the first ``_CHECKED_STEPS`` records of a run."""
    case = make_case(case_id)
    n_steps = 2 ** level
    space = P1Space(build_uniform_mesh(level))
    params = SchemeParams(make_uniform_grid(n_steps, 1.0) if grid == "uniform"
                          else random_grid(level, n_steps),
                          **({} if theta is None else {"theta": theta}),
                          alpha1=alpha1)
    scheme = ThetaScheme(space, params, case.forcing_f)
    engine = EstimatorEngine(space, params, case.forcing_f)
    steps = scheme.iter_steps(scheme.initial_state(case.u0))
    return space, engine, list(islice(steps, _CHECKED_STEPS))


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("run", _DATA_RUNS.values(), ids=_DATA_RUNS.keys())
def test_data_errors_equal_the_one_norm_at_a_time_oracles_bit_for_bit(run):
    # step_estimates forms zeta1, zeta2 and ||xi_phi|| three fields at a time
    # in one buffer and sums each field's row in one reduction; each must be
    # the bytes of the one-field-at-a-time forms that sum a fresh buffer of
    # weighted squares flat
    space, engine, records = _data_run(*run)
    prev = None
    for rec in records:
        se = engine.step_estimates(rec, prev)
        assert _bits(se.zeta1) == _bits(data_time_error(engine, rec))
        assert _bits(se.zeta2) == _bits(data_projection_error(engine, rec))
        assert _bits(se.norm_xi_phi) == _bits(flat_quad_norm(space, rec.xi_phi_q4))
        for vals in (rec.fq_prev, rec.fq_new, rec.xi_phi_q4):
            assert _bits(space.quad_norm(vals)) == _bits(flat_quad_norm(space, vals))
        prev = rec


@pytest.mark.parametrize("run", ["case1-level4", "varstep-level3", *_DATA_RUNS])
def test_step_estimates_equal_the_composed_indicators(run, monkeypatch):
    # step_estimates takes the norm of each reconstruction Laplacian once for
    # both weighted terms, in its one stacked M-norm call, and forms the data
    # errors in one buffer per step; every field must equal the composition
    # of the public indicators, whose l2_norm is the stacked call on one row
    if run in _DATA_RUNS:
        space, engine, records = _data_run(*_DATA_RUNS[run])
    else:
        if run == "case1-level4":
            case, level, grid = make_case(1), 4, make_uniform_grid(16, 1.0)
        else:
            case, level, grid = varstep_case(), 3, random_grid(3, 8)
        space = P1Space(build_uniform_mesh(level))
        params = SchemeParams(grid)
        scheme = ThetaScheme(space, params, case.forcing_f)
        engine = EstimatorEngine(space, params, case.forcing_f)
        records = list(scheme.iter_steps(scheme.initial_state(case.u0)))
    normed = []
    l2_norms = space.l2_norms
    monkeypatch.setattr(space, "l2_norms", lambda rows: normed.extend(
        np.asarray(row, dtype=float).tobytes() for row in rows) or l2_norms(rows))
    prev = None
    for rec in records:
        laps = [discrete_laplacian(space, recon_coeff_two_level(rec))]
        if prev is not None:
            _, lap_dd, _ = recon_coeff_three_level(rec, prev)
            laps.append((-4.0 / (prev.k * (rec.k + prev.k))) * lap_dd)
        normed.clear()
        want = composed_step_estimates(engine, rec, prev)
        assert [normed.count(lap.coeffs.tobytes()) for lap in laps] == [2] * len(laps)
        normed.clear()
        got = engine.step_estimates(rec, prev)
        assert [normed.count(lap.coeffs.tobytes()) for lap in laps] == [1] * len(laps)
        assert got == want
        prev = rec


# -- linear identities in place of solves -----------------------------------------

@pytest.fixture(scope="module")
def varstep_run(space3):
    case = varstep_case()
    p = SchemeParams(random_grid(4, 8))
    scheme = ThetaScheme(space3, p, case.forcing_f)
    records = list(scheme.iter_steps(scheme.initial_state(case.u0)))
    return scheme, EstimatorEngine(space3, p, case.forcing_f), records


def _rel_diff(space, got, want):
    return space.l2_norm(got - want) / space.l2_norm(want)


def test_varstep_case_forcing_matches_solution():
    assert verify_forcing(varstep_case()) <= 1e-5


def test_forcing_defect_at_quadrature_points_from_four_samples(varstep_run):
    scheme, _, records = varstep_run
    sp_, p, f = scheme.space, scheme.params, scheme.forcing
    for rec in records:
        t_a, t_m = p.intermediate_times(rec.n)
        samples = [sp_.eval_field_q4(f, t)
                   for t in (rec.t_prev, t_a, t_m, rec.t_new)]
        assert np.array_equal(rec.xi_phi_q4,
                              substep_defect(p.theta, p.alpha2, *samples))


def test_projected_forcing_defect_identity(varstep_run):
    _, engine, records = varstep_run
    sp_ = engine.space
    for rec in records:
        want = project_quad_values(sp_, rec.xi_phi_q4)
        assert _rel_diff(sp_, rec.proj_xi_phi, want) <= 1e-10


def test_laplacian_defect_identity_against_four_laplacians(varstep_run):
    # xi_theta is one mass solve of K times the state defect; the four
    # discrete Laplacians of the substep states combine to the same field
    scheme, _, records = varstep_run
    for rec in records:
        want = four_laplacian_xi_theta(scheme, rec)
        assert _rel_diff(scheme.space, rec.xi_theta, want) <= 1e-9


def test_laplacian_defect_identity_against_direct_solve():
    space = P1Space(build_uniform_mesh(5))
    case = make_case(1)
    p = _params(n_steps=32)
    scheme = ThetaScheme(space, p, case.forcing_f)
    for rec in scheme.iter_steps(scheme.initial_state(case.u0)):
        want = direct_xi_theta(scheme, rec)
        assert _rel_diff(space, rec.xi_theta, want) <= 1e-10


def test_three_level_laplacian_identity(varstep_run):
    _, engine, records = varstep_run
    sp_ = engine.space
    assert len({round(rec.k, 12) for rec in records}) == len(records)
    for prev, rec in zip(records, records[1:]):
        wt, lap_dd, _ = recon_coeff_three_level(rec, prev)
        got = (-4.0 / (prev.k * (rec.k + prev.k))) * lap_dd
        assert _rel_diff(sp_, got, discrete_laplacian(sp_, wt)) <= 1e-10


def test_eight_solves_per_step_from_step_two(monkeypatch, space3):
    # the stepper runs 3 substep solves, 2 end-of-step mass solves and one
    # mass solve per substep-defect correction, the engine one more for the
    # Laplacian of w; step 1 adds the two initial ones.  A step's solves are
    # counted by their step tag, since a batch of steps solves its mass
    # systems together
    case = varstep_case()
    p = SchemeParams(random_grid(4, 8))
    scheme = ThetaScheme(space3, p, case.forcing_f)
    engine = EstimatorEngine(space3, p, case.forcing_f)
    U0 = scheme.initial_state(case.u0)
    solves, prev = record_solves(monkeypatch), None
    for rec in scheme.iter_steps(U0):
        engine.step_estimates(rec, prev)
        prev = rec
    per_step = [sum(1 for s in solves if s.n == n) for n in range(1, p.n_steps + 1)]
    assert len(solves) == sum(per_step)
    assert per_step == [10] + [8] * (p.n_steps - 1)


def test_a_batch_of_records_gives_each_records_own_estimates(monkeypatch, space3):
    # iter_estimates over the records of a ±50 % grid equals step_estimates
    # record by record; a failed reconstruction Laplacian raises at its
    # record, after the estimates of the records before it
    case = varstep_case()
    p = SchemeParams(random_grid(6, 8))
    scheme = ThetaScheme(space3, p, case.forcing_f)
    engine = EstimatorEngine(space3, p, case.forcing_f)
    records = list(scheme.iter_steps(scheme.initial_state(case.u0)))
    want = [engine.step_estimates(rec, prev)
            for rec, prev in zip(records, [None] + records[:-1])]
    assert list(engine.iter_estimates(records)) == want
    assert list(engine.iter_estimates(records[3:], records[2])) == want[3:]
    solves = StackedSolves.solve

    def failing(self, rows):
        return solves(self, [(np.full_like(rhs, np.nan) if n == 3 else rhs,
                              n, tag) for rhs, n, tag in rows])

    monkeypatch.setattr(StackedSolves, "solve", failing)
    estimates = engine.iter_estimates(records)
    assert [next(estimates), next(estimates)] == want[:2]
    with pytest.raises(SolverError) as err:
        next(estimates)
    assert str(err.value) == ("step 3, laplacian of the reconstruction: "
                              "right-hand side is not finite")
