import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from fstheta import (ConfigurationError, EstimatorEngine, P1Space, ScalarField,
                     SchemeParams, SolverError, ThetaScheme,
                     build_uniform_mesh, glowinski_alpha, make_case,
                     make_uniform_grid, solve_spd, zero_field)
from fstheta.scheme import THETA_DEFAULT

from helpers import scalar_substep_factor


@pytest.fixture(scope="module")
def space3():
    return P1Space(build_uniform_mesh(3))


def _params(n_steps=4, final_time=1.0, **kw):
    return SchemeParams(make_uniform_grid(n_steps, final_time), **kw)


# -- grid and parameters ------------------------------------------------------

def test_uniform_grid_quarters():
    grid = make_uniform_grid(4, 1.0)
    assert np.allclose(np.diff(grid), 0.25)
    assert grid[0] == 0.0 and grid[-1] == 1.0


def test_uniform_grid_single_step():
    assert np.array_equal(make_uniform_grid(1, 2.5), [0.0, 2.5])


def test_uniform_grid_steps_sum_to_final_time():
    grid = make_uniform_grid(7, 1.0)
    assert abs(np.diff(grid).sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("bad", [(0, 1.0), (-3, 1.0), (4, 0.0), (4, -1.0)])
def test_uniform_grid_validation(bad):
    with pytest.raises(ConfigurationError):
        make_uniform_grid(*bad)


def test_params_defaults():
    p = _params()
    assert p.theta == THETA_DEFAULT == 1.0 - np.sqrt(2.0) / 2.0
    assert p.alpha1 == p.alpha2 == glowinski_alpha(p.theta)
    assert 0.5 < p.alpha1 <= 1.0
    assert abs(p.theta_tilde - (1.0 - 2.0 * p.theta)) <= 1e-15
    assert abs(p.beta1 - (1.0 - p.alpha1)) <= 1e-15


def test_intermediate_times_inside_interval():
    p = _params(n_steps=5)
    for n in range(1, 6):
        t_a, t_m = p.intermediate_times(n)
        assert p.time(n - 1) < t_a < t_m < p.time(n)


@pytest.mark.parametrize("kw", [
    {"theta": 0.0}, {"theta": 0.4}, {"alpha1": 0.5}, {"alpha1": 1.1},
    {"alpha2": 0.0}, {"alpha2": 1.0},
])
def test_params_validation(kw):
    with pytest.raises(ConfigurationError):
        _params(**kw)


def test_params_reject_bad_grid():
    with pytest.raises(ConfigurationError):
        SchemeParams(np.array([0.0, 0.5, 0.25]))
    with pytest.raises(ConfigurationError):
        SchemeParams(np.array([0.0]))


# -- trajectories --------------------------------------------------------------

def test_zero_data_gives_zero_trajectory(space3):
    scheme = ThetaScheme(space3, _params(), zero_field())
    records = list(scheme.iter_steps(scheme.initial_state()))
    assert len(records) == 4
    for rec in records:
        for fe in (rec.U_theta, rec.U_onemtheta, rec.U_new, rec.lap_new,
                   rec.proj_f_new, rec.xi_theta, rec.proj_xi_phi):
            assert (fe.coeffs == 0.0).all()


def test_iter_steps_chains_states_and_end_of_step_fields(space3):
    case = make_case(1)
    scheme = ThetaScheme(space3, _params(n_steps=3), case.forcing_f)
    U0 = scheme.initial_state(case.u0)
    records = list(scheme.iter_steps(U0))
    assert len(records) == 3
    assert records[0].U_prev is U0
    for prev, rec in zip(records, records[1:]):
        assert rec.U_prev is prev.U_new
        assert rec.lap_prev is prev.lap_new
        assert rec.proj_f_prev is prev.proj_f_new
    # the step-1 fields at t^0 are computed from U0 and the forcing
    assert np.array_equal(records[0].lap_prev.coeffs,
                          space3.discrete_laplacian(U0).coeffs)
    assert np.array_equal(records[0].proj_f_prev.coeffs,
                          space3.l2_project(case.forcing_f, 0.0).coeffs)
    # a second pass repeats the first bit for bit
    again = list(scheme.iter_steps(U0))
    assert np.array_equal(again[-1].U_new.coeffs, records[-1].U_new.coeffs)


def test_eigenmode_decay_matches_scalar_oracle(space3):
    lams, vecs = scipy.linalg.eigh(space3.stiffness.toarray(),
                                   space3.mass.toarray())
    p = _params(n_steps=8, final_time=1.0)
    scheme = ThetaScheme(space3, p, zero_field())
    k = p.step_size(1)
    v = space3.function(vecs[:, 0])
    rec = next(scheme.iter_steps(v))
    got = space3.l2_norm(rec.U_new) / space3.l2_norm(v)
    want = abs(scalar_substep_factor(lams[0], k, p))
    assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("alpha1", [None, 0.75, 0.95])
@pytest.mark.parametrize("n_steps,final_time", [(5, 2.5), (6, 0.12)])
def test_unconditional_decay_without_forcing(alpha1, n_steps, final_time):
    space = P1Space(build_uniform_mesh(2))
    p = _params(n_steps=n_steps, final_time=final_time, alpha1=alpha1)
    scheme = ThetaScheme(space, p, zero_field())
    rng = np.random.default_rng(1)
    state = space.function(rng.standard_normal(space.n_dofs))
    norms = [space.l2_norm(state)]
    for rec in scheme.iter_steps(state):
        norms.append(space.l2_norm(rec.U_new))
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_nonuniform_grid_supported(space3):
    # the harness only uses uniform steps, but the stepper must handle any
    # increasing grid (the substep-matrix pair is rebuilt whenever k changes)
    p = SchemeParams(np.array([0.0, 0.3, 0.5, 1.0]))
    scheme = ThetaScheme(space3, p, zero_field())
    rng = np.random.default_rng(2)
    state = space3.function(rng.standard_normal(space3.n_dofs))
    norms = [space3.l2_norm(state)]
    for rec in scheme.iter_steps(state):
        assert rec.k == pytest.approx(p.step_size(rec.n))
        norms.append(space3.l2_norm(rec.U_new))
    assert len(norms) == 4
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_alternating_step_sizes_match_fresh_single_steps(space3):
    # k alternates exactly between 1/8 and 1/4, so the one cached pair is
    # rebuilt on every step; each step must equal a fresh scheme's only step
    case = make_case(1)
    grid = np.concatenate([[0.0], np.cumsum([0.125, 0.25] * 4)])
    assert np.diff(grid).tolist() == [0.125, 0.25] * 4
    scheme = ThetaScheme(space3, SchemeParams(grid), case.forcing_f)
    for rec in scheme.iter_steps(scheme.initial_state(case.u0)):
        assert scheme._matrices[0] == rec.k
        fresh = ThetaScheme(space3, SchemeParams(np.array([rec.t_prev, rec.t_new])),
                            case.forcing_f)
        once = next(fresh.iter_steps(rec.U_prev))
        assert np.array_equal(rec.U_new.coeffs, once.U_new.coeffs)


def test_uniform_grid_with_rounded_steps_builds_one_pair(space3):
    # arange(101) * 0.01 has 8 distinct step sizes that differ only in the
    # last bits of the nodes; they must share one substep-matrix pair
    p = _params(n_steps=100)
    assert np.unique(np.diff(p.time_grid)).size == 8
    scheme = ThetaScheme(space3, p, make_case(1).forcing_f)
    pairs = []
    for _ in scheme.iter_steps(space3.function()):
        if not pairs or scheme._matrices is not pairs[-1]:
            pairs.append(scheme._matrices)
    assert len(pairs) == 1


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
def test_banded_operators_match_their_csr_form_bit_for_bit(level):
    # mass, stiffness and both substep matrices are 7-diagonal DIA operators
    # with ascending offsets; their products, and so every PCG iterate, equal
    # those of the canonical CSR form bit for bit.  At theta = 0.25 with
    # alpha1 = 0.6 the substep pair is not proportional to one matrix.
    space = P1Space(build_uniform_mesh(level))
    M, K = space.mass, space.stiffness
    m = 2 ** level - 1
    offsets = [-(m + 1), -m, -1, 0, 1, m, m + 1]
    matrices = [M, K]
    for kw in ({}, {"theta": 0.25, "alpha1": 0.6}):
        p = _params(**kw)
        k = p.time(1) - p.time(0)
        scheme = ThetaScheme(space, p, zero_field())
        a_theta, a_tilde = scheme._substep_matrices(k, p.time(1))
        for a, shift, weight in ((a_theta, p.theta, p.alpha1),
                                 (a_tilde, p.theta_tilde, p.beta1)):
            summed = M.tocsr() * (1.0 / (shift * k)) + K.tocsr() * weight
            assert (a.tocsr() != summed).nnz == 0
            matrices.append(a)
    rng = np.random.default_rng(level)
    for a in matrices:
        assert isinstance(a, sp.dia_matrix)
        assert list(a.offsets) == offsets
        csr = a.tocsr()
        for _ in range(3):
            v = rng.standard_normal(space.n_dofs)
            assert np.array_equal(a @ v, csr @ v)
        b = rng.standard_normal(space.n_dofs)
        assert np.array_equal(solve_spd(a, b), solve_spd(csr, b))


def test_three_loads_per_step_from_step_two(monkeypatch, space3):
    # the end-of-step load is carried into the next step, which assembles
    # only the loads at its three new time levels
    calls = []
    load = P1Space.load_from_quad_values

    def counting(self, vals):
        calls.append(1)
        return load(self, vals)

    monkeypatch.setattr(P1Space, "load_from_quad_values", counting)
    case = make_case(1)
    scheme = ThetaScheme(space3, _params(n_steps=4), case.forcing_f)
    per_step, steps = [], scheme.iter_steps(space3.function())
    while True:
        before = len(calls)
        if next(steps, None) is None:
            break
        per_step.append(len(calls) - before)
    assert per_step == [4, 3, 3, 3]


def test_compact_form_residual_small_on_case1(space3):
    case = make_case(1)
    p = _params(n_steps=8)
    scheme = ThetaScheme(space3, p, case.forcing_f)
    engine = EstimatorEngine(space3, p, case.forcing_f)
    for rec in scheme.iter_steps(scheme.initial_state(case.u0)):
        assert engine.compact_form_residual(rec) <= 1e-9


def test_second_order_against_independent_ode_reference():
    # oracle: the semidiscrete system M u' = -K u + b(t) integrated by an
    # unrelated high-order method (DOP853 + direct mass factorization);
    # the stepper must converge to it at second order in k on a fixed mesh
    from scipy.integrate import solve_ivp
    from scipy.sparse.linalg import splu

    space = P1Space(build_uniform_mesh(2))
    case = make_case(1)
    lu = splu(space.mass.tocsc())
    stiff = space.stiffness

    def rhs(t, u):
        return lu.solve(space.load_vector(case.forcing_f, t) - stiff @ u)

    ref = solve_ivp(rhs, (0.0, 1.0), np.zeros(space.n_dofs), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    u_ref = ref.y[:, -1]

    errs, ks = [], []
    for n_steps in (8, 16, 32, 64):
        p = _params(n_steps=n_steps)
        scheme = ThetaScheme(space, p, case.forcing_f)
        state = space.function()
        for rec in scheme.iter_steps(state):
            state = rec.U_new
        errs.append(space.l2_norm(space.function(state.coeffs - u_ref)))
        ks.append(1.0 / n_steps)
    from fstheta import eoc
    orders = eoc(errs, ks)
    assert all(1.9 <= o <= 2.2 for o in orders)
    assert errs[-1] <= 2.5e-6


@pytest.mark.parametrize("alpha1,alpha2", [(0.6, 0.3), (0.95, 0.7)])
def test_compact_form_holds_for_any_splitting_weights(space3, alpha1, alpha2):
    # the single-equation rewriting is exact for every weight pair at the
    # default theta (the binding of the corrections does not depend on them)
    case = make_case(1)
    p = _params(n_steps=8, alpha1=alpha1, alpha2=alpha2)
    scheme = ThetaScheme(space3, p, case.forcing_f)
    engine = EstimatorEngine(space3, p, case.forcing_f)
    for rec in scheme.iter_steps(scheme.initial_state(case.u0)):
        assert engine.compact_form_residual(rec) <= 1e-9


def test_compact_form_specific_to_default_theta(space3):
    # at other theta values the rewriting is only approximate, so the
    # residual check genuinely discriminates
    case = make_case(1)
    p = _params(n_steps=8, theta=0.25)
    scheme = ThetaScheme(space3, p, case.forcing_f)
    engine = EstimatorEngine(space3, p, case.forcing_f)
    worst = max(engine.compact_form_residual(rec)
                for rec in scheme.iter_steps(scheme.initial_state(case.u0)))
    assert worst > 1e-6


def test_nodal_quadrature_weights_integrate_linears():
    # the step-summed forcing weights at (0, theta, 1-theta, 1) reproduce
    # int_0^1 phi for phi in {1, s}, for any alpha2
    p = _params()
    th, tt = p.theta, p.theta_tilde
    for alpha in (0.3, p.alpha2, 0.9):
        beta = 1.0 - alpha
        w = np.array([beta * th, alpha * (th + tt), beta * (th + tt), alpha * th])
        s = np.array([0.0, th, 1.0 - th, 1.0])
        assert abs(w.sum() - 1.0) <= 1e-14
        assert abs(w @ s - 0.5) <= 1e-14


def test_solver_failure_identifies_step(monkeypatch, space3):
    def failing(matrix, rhs):
        raise SolverError("no convergence", residual=0.5, iterations=7)

    monkeypatch.setattr("fstheta.scheme.solve_spd", failing)
    scheme = ThetaScheme(space3, _params(), make_case(1).forcing_f)
    with pytest.raises(SolverError) as err:
        next(scheme.iter_steps(space3.function()))
    assert str(err.value).startswith("step 1, ")
    assert (err.value.residual, err.value.iterations) == (0.5, 7)


def test_non_finite_initial_datum_names_the_projection(space3):
    bad = ScalarField("nan", lambda x, y, t: np.full(np.shape(x), np.nan))
    scheme = ThetaScheme(space3, _params(), zero_field())
    with pytest.raises(SolverError) as err:
        scheme.initial_state(bad)
    assert str(err.value) == \
        "step 0, initial projection: right-hand side is not finite"
    assert err.value.iterations == 0


def test_non_finite_forcing_fails_fast_naming_step_and_quantity():
    bad = ScalarField("nan", lambda x, y, t: np.full(np.shape(x), np.nan))
    space = P1Space(build_uniform_mesh(4))
    scheme = ThetaScheme(space, _params(n_steps=16), bad)
    with pytest.raises(SolverError) as err:
        next(scheme.iter_steps(space.function()))
    assert str(err.value).startswith(
        "step 1, forcing projection at t^{n-1}: right-hand side is not finite")
    assert err.value.iterations == 0
    assert err.value.__cause__.iterations == 0
