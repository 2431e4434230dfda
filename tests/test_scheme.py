import contextlib
import dataclasses
import functools
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse._sparsetools import csr_matvec

import fstheta.scheme
import fstheta.solver
from fstheta import (ConfigurationError, EstimatorEngine, P1Space, ScalarField,
                     SchemeParams, SolverError, StepRecord, ThetaScheme,
                     build_uniform_mesh, glowinski_alpha, make_case,
                     make_uniform_grid, solve_spd)
from fstheta.fem import BandMatrix
from fstheta.scheme import (THETA_DEFAULT, _SubstepPair, correction_coeffs,
                            substep_defect)

from helpers import (INLINE, OVERLAPPED, discrete_laplacian, eager_end_of_step,
                     fail_scheme_solve, fresh_substep_matrices, l2_project,
                     random_grid, scalar_substep_factor, scipy_dia,
                     varstep_case, zero_field)


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


def test_uniform_grid_accepts_numpy_integers():
    assert np.array_equal(make_uniform_grid(np.int64(4), 1.0), make_uniform_grid(4, 1.0))


def test_uniform_grid_steps_sum_to_final_time():
    grid = make_uniform_grid(7, 1.0)
    assert abs(np.diff(grid).sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("bad", [(0, 1.0), (-3, 1.0), (4, 0.0), (4, -1.0),
                                 (2.5, 1.0), (True, 1.0)])
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


@pytest.mark.parametrize("make", [
    lambda: SchemeParams(np.array([0.0, 0.5, np.inf])),
    lambda: SchemeParams(np.array([0.0, np.nan, 1.0])),
    lambda: make_uniform_grid(4, np.inf),
    lambda: make_uniform_grid(4, np.nan)],
    ids=["grid-inf", "grid-nan", "final-inf", "final-nan"])
def test_a_non_finite_time_grid_is_rejected(make):
    # np.diff of [0, 0.5, inf] is positive, so without this check the run
    # would go on with k = inf
    with pytest.raises(ConfigurationError, match="must be finite"):
        make()


# -- trajectories --------------------------------------------------------------

def test_zero_data_gives_zero_trajectory(space3):
    scheme = ThetaScheme(space3, _params(), zero_field())
    records = list(scheme.iter_steps(scheme.initial_state()))
    assert len(records) == 4
    for rec in records:
        for fe in (rec.U_new, rec.lap_new, rec.proj_f_new, rec.xi_theta,
                   rec.proj_xi_phi):
            assert (fe.coeffs == 0.0).all()
        assert (rec.xi_phi_q4 == 0.0).all()


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
                          discrete_laplacian(space3, U0).coeffs)
    assert np.array_equal(records[0].proj_f_prev.coeffs,
                          l2_project(space3, case.forcing_f, 0.0).coeffs)
    # a second pass repeats the first bit for bit
    again = list(scheme.iter_steps(U0))
    assert np.array_equal(again[-1].U_new.coeffs, records[-1].U_new.coeffs)


END_FIELDS = ("lap_new", "proj_f_new", "xi_theta", "proj_xi_phi")


@pytest.mark.parametrize("first", END_FIELDS + ("next lap_prev",))
def test_end_of_step_fields_equal_an_eager_oracle_whichever_is_read_first(
        space3, first):
    # every record is taken before any field is read, and the records are
    # read last step first
    case = make_case(1)
    scheme = ThetaScheme(space3, _params(n_steps=4), case.forcing_f)
    records = list(scheme.iter_steps(scheme.initial_state(case.u0)))
    for rec, following in reversed(list(zip(records, records[1:] + [None]))):
        if first != "next lap_prev":
            getattr(rec, first)
        elif following is not None:
            following.lap_prev
        want = eager_end_of_step(scheme, rec)
        for name, fe in zip(END_FIELDS, want):
            assert getattr(rec, name).coeffs.tobytes() == fe.coeffs.tobytes(), name
        if following is not None:
            assert following.lap_prev is rec.lap_new
            assert following.proj_f_prev is rec.proj_f_new


@pytest.mark.parametrize("cutoff", [INLINE, OVERLAPPED],
                         ids=["inline", "overlapped"])
def test_a_failed_end_of_step_solve_raises_at_the_next_of_its_step(
        monkeypatch, space3, cutoff):
    monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", cutoff)
    fail_scheme_solve(monkeypatch, 2, "laplacian at t^n")
    case = make_case(1)
    scheme = ThetaScheme(space3, _params(), case.forcing_f)
    steps = scheme.iter_steps(scheme.initial_state(case.u0))
    first = next(steps)
    with pytest.raises(SolverError) as err:
        next(steps)
    assert str(err.value) == \
        "step 2, laplacian at t^n: right-hand side is not finite"
    assert next(steps, None) is None
    for name, fe in zip(END_FIELDS, eager_end_of_step(scheme, first)):
        assert getattr(first, name).coeffs.tobytes() == fe.coeffs.tobytes(), name


def _same_record(a: StepRecord, b: StepRecord) -> bool:
    def raw(value):
        value = getattr(value, "coeffs", value)
        return value.tobytes() if isinstance(value, np.ndarray) else value

    return all(raw(getattr(a, f.name)) == raw(getattr(b, f.name))
               for f in dataclasses.fields(StepRecord))


def test_overlapped_and_inline_records_are_bit_identical(monkeypatch):
    # the varstep case on a random time grid: every step has its own k.
    # Inline, four steps share each stack of end-of-step solves; overlapped,
    # each step stacks its own; with a stack budget of one row every mass
    # system is solved alone, as solve_spd solves it
    space = P1Space(build_uniform_mesh(4))
    case = varstep_case()
    scheme = ThetaScheme(space, SchemeParams(random_grid(4, 16)), case.forcing_f)
    U0 = scheme.initial_state(case.u0)
    runs = []
    for cutoff in (INLINE, OVERLAPPED):
        monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", cutoff)
        runs.append(list(scheme.iter_steps(U0)))
    monkeypatch.setattr(fstheta.solver, "STACK_VALUES", 1)
    runs.append(list(scheme.iter_steps(U0)))
    inline, overlapped, one_row = runs
    assert len(inline) == len(overlapped) == len(one_row) == 16
    assert all(_same_record(a, b) for a, b in zip(inline, overlapped))
    assert all(_same_record(a, b) for a, b in zip(inline, one_row))


@pytest.mark.parametrize("failure", ["substep", "end of step"])
def test_a_batch_failing_at_step_n_first_yields_its_earlier_steps(
        monkeypatch, failure):
    # inline at level 4 a batch is four steps; step 6 fails in the second
    # batch, whose step 5 is yielded first, as a run without the failure
    # yields it, and the error raises at the next() of step 6
    space = P1Space(build_uniform_mesh(4))
    case = make_case(1)
    scheme = ThetaScheme(space, _params(n_steps=16), case.forcing_f)
    U0 = scheme.initial_state(case.u0)
    want = list(scheme.iter_steps(U0))
    if failure == "substep":
        substeps = ThetaScheme._substeps

        def failing(scheme, prev, n, *start):
            if n == 6:
                raise SolverError("step 6, first substep: no convergence")
            return substeps(scheme, prev, n, *start)

        monkeypatch.setattr(ThetaScheme, "_substeps", failing)
        message = "step 6, first substep: no convergence"
    else:
        fail_scheme_solve(monkeypatch, 6, "forcing projection substep defect")
        message = ("step 6, forcing projection substep defect: right-hand "
                   "side is not finite")
    steps = scheme.iter_steps(U0)
    got = [next(steps) for _ in range(5)]
    with pytest.raises(SolverError) as err:
        next(steps)
    assert str(err.value) == message
    assert next(steps, None) is None
    assert all(_same_record(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("theta,alpha", [(THETA_DEFAULT, None), (0.25, 0.6)],
                         ids=["default", "theta0.25"])
def test_substep_defect_has_its_expressions_bits_in_two_buffers(theta, alpha):
    alpha = glowinski_alpha(theta) if alpha is None else alpha
    rng = np.random.default_rng(11)
    v_prev, v_theta, v_onemtheta, v_new = values = [
        rng.standard_normal((2048, 6)) for _ in range(4)]
    for v in values:
        v[::5] = -0.0
    c0, c1, ca, cm = correction_coeffs(theta, alpha)
    want = c0 * v_prev + c1 * v_new - ca * v_theta - cm * v_onemtheta
    tracemalloc.start()
    try:
        got = substep_defect(theta, alpha, *values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 3 * v_prev.nbytes     # the result and one term buffer


@pytest.mark.parametrize("kwargs", [{}, {"theta": 0.25, "alpha1": 0.6}],
                         ids=["default", "theta0.25-alpha0.6"])
def test_the_held_substep_pair_equals_a_fresh_pair_on_every_step(kwargs):
    # one pair whose bands each step of a +-50 % grid writes in place: its
    # bands, diagonal and products are those of a pair built afresh for the
    # step's own k, byte for byte
    space = P1Space(build_uniform_mesh(4))
    params = SchemeParams(random_grid(9, 16), **kwargs)
    pair = _SubstepPair(space, params)
    v = np.random.default_rng(9).standard_normal(space.n_dofs)
    for n in range(1, params.n_steps + 1):
        k = params.step_size(n)
        held = pair.at(k)
        assert held is pair.matrices
        for a, fresh in zip(held, fresh_substep_matrices(space, params, k)):
            assert a.data.tobytes() == fresh.data.tobytes()
            assert np.array_equal(a.offsets, fresh.offsets)
            assert a.diagonal().tobytes() == fresh.diagonal().tobytes()
            assert (a @ v).tobytes() == (fresh @ v).tobytes()
            out = np.zeros(space.n_dofs)
            a.matvec_add(v, out)
            assert out.tobytes() == (fresh @ v).tobytes()


@pytest.mark.parametrize("cutoff", [INLINE, OVERLAPPED],
                         ids=["inline", "overlapped"])
def test_two_step_loops_of_one_scheme_advanced_alternately_are_independent(
        monkeypatch, cutoff):
    # each loop holds its own substep pair: loops from two initial states,
    # three steps apart on a grid where every step has its own k, yield the
    # records of two separate runs
    monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", cutoff)
    space = P1Space(build_uniform_mesh(4))
    case = varstep_case()
    scheme = ThetaScheme(space, SchemeParams(random_grid(5, 12)), case.forcing_f)
    starts = (scheme.initial_state(case.u0), scheme.initial_state())
    separate = [list(scheme.iter_steps(U0)) for U0 in starts]
    first, second = (scheme.iter_steps(U0) for U0 in starts)
    with contextlib.closing(first), contextlib.closing(second):
        together = [[next(first) for _ in range(3)], []]
        for _ in range(9):
            together[1].append(next(second))
            together[0].append(next(first))
        together[1].extend(second)
        assert next(first, None) is None
    for got, want in zip(together, separate):
        assert len(got) == len(want) == 12
        assert all(_same_record(a, b) for a, b in zip(got, want))
@pytest.mark.parametrize("cutoff", [INLINE, OVERLAPPED],
                         ids=["inline", "overlapped"])
def test_each_step_substeps_from_the_previous_records_own_state(
        monkeypatch, space3, cutoff):
    # the step state is carried once: step 1 starts from U0 and step n from
    # the very FeFunction that record n-1 holds, on the worker too
    monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", cutoff)
    starts, substeps = {}, ThetaScheme._substeps

    def recording(scheme, prev, n, *start):
        starts[n] = prev
        return substeps(scheme, prev, n, *start)

    monkeypatch.setattr(ThetaScheme, "_substeps", recording)
    case = make_case(1)
    scheme = ThetaScheme(space3, _params(), case.forcing_f)
    U0 = scheme.initial_state(case.u0)
    records = list(scheme.iter_steps(U0))
    assert sorted(starts) == [1, 2, 3, 4]
    assert starts[1] is U0
    for rec in records[:-1]:
        assert starts[rec.n + 1] is rec.U_new


def test_closing_a_half_consumed_loop_joins_the_worker(monkeypatch, space3):
    monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", OVERLAPPED)
    before = set(threading.enumerate())
    case = make_case(1)
    scheme = ThetaScheme(space3, _params(n_steps=8), case.forcing_f)
    steps = scheme.iter_steps(scheme.initial_state(case.u0))
    next(steps), next(steps)
    assert len(set(threading.enumerate()) - before) == 1
    steps.close()
    assert set(threading.enumerate()) == before


def test_a_substep_failure_surfaces_after_the_previous_record_is_taken(
        monkeypatch, space3):
    # the worker fails on step 3 while the caller holds record 2; the error
    # waits for the next() that would yield step 3
    monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", OVERLAPPED)
    failed, substeps = threading.Event(), ThetaScheme._substeps

    def failing(scheme, prev, n, *start):
        if n == 3:
            failed.set()
            raise SolverError("step 3, first substep: no convergence")
        return substeps(scheme, prev, n, *start)

    monkeypatch.setattr(ThetaScheme, "_substeps", failing)
    case = make_case(1)
    scheme = ThetaScheme(space3, _params(), case.forcing_f)
    steps = scheme.iter_steps(scheme.initial_state(case.u0))
    assert [next(steps).n, next(steps).n] == [1, 2]
    assert failed.wait(timeout=10)
    with pytest.raises(SolverError, match="^step 3, first substep"):
        next(steps)


def test_eigenmode_decay_matches_scalar_oracle(space3):
    lams, vecs = scipy.linalg.eigh(scipy_dia(space3.stiffness).toarray(),
                                   scipy_dia(space3.mass).toarray())
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
    # increasing grid (the substep-matrix pair is formed on every step)
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


@pytest.mark.parametrize("grid", [
    np.concatenate([[0.0], np.cumsum([0.125, 0.25] * 4)]),
    make_uniform_grid(100, 1.0)], ids=["alternating", "uniform100"])
def test_alternating_step_sizes_match_fresh_single_steps(space3, grid):
    # every step, whether k alternates exactly between 1/8 and 1/4 or differs
    # from its neighbours only by the rounding of the nodes, must equal a
    # fresh scheme's only step
    case = make_case(1)
    scheme = ThetaScheme(space3, SchemeParams(grid), case.forcing_f)
    for rec in scheme.iter_steps(scheme.initial_state(case.u0)):
        fresh = ThetaScheme(space3, SchemeParams(np.array([rec.t_prev, rec.t_new])),
                            case.forcing_f)
        once = next(fresh.iter_steps(rec.U_prev))
        assert np.array_equal(rec.U_new.coeffs, once.U_new.coeffs)


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
        a_theta, a_tilde = _SubstepPair(space, p).at(k)
        for a, shift, weight in ((a_theta, p.theta, p.alpha1),
                                 (a_tilde, p.theta_tilde, p.beta1)):
            summed = (scipy_dia(M).tocsr() * (1.0 / (shift * k))
                      + scipy_dia(K).tocsr() * weight)
            assert (scipy_dia(a).tocsr() != summed).nnz == 0
            # bands of its own at M's offsets: the offsets and the stored
            # count of scipy's (data, offsets) constructor
            scipys = scipy_dia(a)
            assert a.offsets.dtype == scipys.offsets.dtype == np.int32
            assert a.nnz == scipys.nnz
            assert not np.shares_memory(a.data, M.data)
            matrices.append(a)
    rng = np.random.default_rng(level)
    for a in matrices:
        assert type(a) is BandMatrix
        assert list(a.offsets) == offsets
        csr = scipy_dia(a).tocsr()
        if a is M:
            # the polynomial step adds each product into a scaled vector;
            # scipy's CSR kernel adds the entries of a row into it in the
            # same ascending column order as the band's
            csr.jacobi_spectrum = M.jacobi_spectrum
            csr.matvec_add = functools.partial(
                csr_matvec, *csr.shape, csr.indptr, csr.indices, csr.data)
        for _ in range(3):
            v = rng.standard_normal(space.n_dofs)
            assert np.array_equal(a @ v, csr @ v)
        b = rng.standard_normal(space.n_dofs)
        assert np.array_equal(solve_spd(a, b), solve_spd(csr, b))


def test_three_loads_per_step_from_step_two(monkeypatch, space3):
    # the end-of-step load is carried into the next step, which assembles
    # only the loads at its three new time levels.  Each load counts for
    # the step whose substeps run (the load at t^0 for step 1), since a
    # batch of steps runs its substeps before it yields the first
    calls, step = [], [1]
    load, substeps = P1Space.load_from_quad_values, ThetaScheme._substeps

    def counting(self, vals):
        calls.append(step[0])
        return load(self, vals)

    def stepping(scheme, prev, n, *start):
        step[0] = n
        return substeps(scheme, prev, n, *start)

    monkeypatch.setattr(P1Space, "load_from_quad_values", counting)
    monkeypatch.setattr(ThetaScheme, "_substeps", stepping)
    case = make_case(1)
    scheme = ThetaScheme(space3, _params(n_steps=4), case.forcing_f)
    assert len(list(scheme.iter_steps(space3.function()))) == 4
    assert [calls.count(n) for n in range(1, 5)] == [4, 3, 3, 3]


def test_each_state_is_multiplied_by_the_stiffness_once(monkeypatch):
    # K U^n serves both the Laplacian at t^n and the next step's first
    # right-hand side.  Case 1 at level 4 multiplies K with U^0 and then, per
    # step, with the three substep states and the state defect: 1 + 4 * 16
    # products, each of its own vector (81 when every state was multiplied
    # twice).  The worker and the caller's thread count alike.
    space = P1Space(build_uniform_mesh(4))
    case = make_case(1)
    scheme = ThetaScheme(space, _params(n_steps=16), case.forcing_f)
    U0 = scheme.initial_state(case.u0)
    matmul, products = BandMatrix.__matmul__, []

    def counting(matrix, other):
        if matrix is space.stiffness:
            products.append(other.tobytes())
        return matmul(matrix, other)

    monkeypatch.setattr(BandMatrix, "__matmul__", counting)
    runs = []
    for cutoff in (INLINE, OVERLAPPED):
        monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", cutoff)
        products.clear()
        runs.append(list(scheme.iter_steps(U0)))
        assert len(products) == len(set(products)) == 1 + 4 * 16
    inline, overlapped = runs
    assert all(_same_record(a, b) for a, b in zip(inline, overlapped))
    for rec in inline:
        assert np.array_equal(rec.lap_new.coeffs,
                              solve_spd(space.mass, space.stiffness @ rec.U_new.coeffs))


def test_compact_form_residual_small_on_case1(space3):
    case = make_case(1)
    p = _params(n_steps=8)
    scheme = ThetaScheme(space3, p, case.forcing_f)
    engine = EstimatorEngine(space3, p, case.forcing_f)
    for rec in scheme.iter_steps(scheme.initial_state(case.u0)):
        assert engine.step_estimates(rec).compact_residual <= 1e-9


def test_second_order_against_independent_ode_reference():
    # oracle: the semidiscrete system M u' = -K u + b(t) integrated by an
    # unrelated high-order method (DOP853 + direct mass factorization);
    # the stepper must converge to it at second order in k on a fixed mesh
    from scipy.integrate import solve_ivp
    from scipy.sparse.linalg import splu

    space = P1Space(build_uniform_mesh(2))
    case = make_case(1)
    lu = splu(scipy_dia(space.mass).tocsc())
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
        assert engine.step_estimates(rec).compact_residual <= 1e-9


def test_compact_form_specific_to_default_theta(space3):
    # at other theta values the rewriting is only approximate, so the
    # residual check genuinely discriminates
    case = make_case(1)
    p = _params(n_steps=8, theta=0.25)
    scheme = ThetaScheme(space3, p, case.forcing_f)
    engine = EstimatorEngine(space3, p, case.forcing_f)
    worst = max(engine.step_estimates(rec).compact_residual
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

    monkeypatch.setattr("fstheta.solver.solve_spd", failing)
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


def test_a_subnormal_step_fails_fast_naming_step_and_quantity():
    # 1 / (theta k) overflows to inf, so the substep matrix would hold an
    # infinite diagonal and NaN padding (and 1 / (theta k) raises
    # ZeroDivisionError once theta k underflows to 0); the grid is rejected
    # before any matrix is formed, with no numpy warning on the way
    for grid, step in (([0.0, 1e-320, 1.0], "step 1 of size k = 1e-320"),
                       ([-1.0, 0.0, 5e-324], "step 2 of size k = 5e-324")):
        with pytest.raises(ConfigurationError, match="substep weights") as err:
            SchemeParams(np.array(grid))
        assert str(err.value).startswith(step + " is too small")
