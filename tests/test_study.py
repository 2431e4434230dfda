import dataclasses
import math
import threading
from pathlib import Path

import numpy as np
import pytest

import fstheta.scheme
from fstheta import (CaseSpec, ConfigurationError, ConstantsConfig,
                     EstimatorAccumulator, EstimatorEngine, P1Space, RunReport,
                     ScalarField, SchemeParams, SolverError, ThetaScheme,
                     build_uniform_mesh, elliptic_estimator, emit, eoc,
                     make_case, make_uniform_grid, run_single, run_study,
                     verify_forcing)
from fstheta import study
from fstheta.cli import main as cli_main
from fstheta.estimators import REPORT_COLUMNS

from helpers import (INLINE, OVERLAPPED, SolveRecord, error_metrics,
                     fail_scheme_solve, full_coordinate_case, random_grid,
                     record_solves, scaled_case, varstep_case, zero_field)

PI = np.pi

GOLDEN_DIR = Path(__file__).parent / "golden"
REFERENCE_DIR = (Path(__file__).resolve().parent.parent / "perfbench" / "reference"
                 / "study-c1")


@pytest.fixture(scope="module")
def small_study():
    return run_study(1, range(3, 5))


# -- cases ---------------------------------------------------------------------

def test_case_ids():
    for cid in (1, 2, 3):
        assert make_case(cid).case_id == cid
    with pytest.raises(ValueError):
        make_case(4)


def test_case1_zero_initial_and_forcing_value():
    case = make_case(1)
    rng = np.random.default_rng(0)
    for x, y in rng.uniform(0, 1, size=(10, 2)):
        assert abs(case.exact_u(x, y, 0.0)) <= 1e-15
        assert abs(case.u0(x, y, 123.0)) <= 1e-15
    # cos(pi/2) kills the time-derivative part
    assert abs(case.forcing_f(0.5, 0.5, 0.5) - 2.0 * PI ** 2) <= 1e-12


def test_case3_amplitude_at_final_time():
    case = make_case(3)
    rng = np.random.default_rng(1)
    for x, y in rng.uniform(0, 1, size=(10, 2)):
        mode = np.sin(10 * PI * x) * np.sin(10 * PI * y)
        assert abs(case.exact_u(x, y, 1.0) - mode) <= 1e-12


@pytest.mark.parametrize("cid", [1, 2, 3])
def test_forcing_consistent_with_solution(cid):
    assert verify_forcing(make_case(cid)) <= 1e-6


# -- metrics ----------------------------------------------------------------------

def test_zero_case_run_is_exactly_zero():
    zero_case = CaseSpec(1, zero_field("u"), (zero_field(), zero_field()),
                         zero_field("f"), zero_field("u0"))
    rep = run_single(zero_case, 2)
    assert rep.max_nodal_l2_error == 0.0
    assert rep.e_total == 0.0
    for col in REPORT_COLUMNS[2:]:
        assert rep.report.final(col) == 0.0
    assert np.isnan(rep.effectivity_two)


def test_zero_trajectory_error_is_solution_norm():
    # against U == 0 the error is |sin(pi t^n)| * ||sin sin|| = |sin(pi t^n)|/2
    case = make_case(1)
    space = P1Space(build_uniform_mesh(4))
    z = space.function()
    times = np.arange(9) / 8.0
    got = max(space.field_error_l2(case.exact_u, t, z) for t in times)
    want = max(abs(np.sin(PI * t)) for t in times) * 0.5
    assert abs(got - want) <= 1e-6


def test_error_metrics_on_stored_trajectory():
    # standalone metrics agree with the streaming computation in run_single
    case = make_case(1)
    space = P1Space(build_uniform_mesh(3))
    params = SchemeParams(make_uniform_grid(8, 1.0))
    scheme = ThetaScheme(space, params, case.forcing_f)
    U0 = scheme.initial_state(case.u0)
    records = list(scheme.iter_steps(U0))
    max_err, e_total = error_metrics(space, case, records, U0)
    rep = run_single(case, 3)
    assert abs(max_err - rep.max_nodal_l2_error) <= 1e-13
    assert abs(e_total - rep.e_total) <= 1e-13


def test_error_metrics_zero_everything():
    zero_case = CaseSpec(1, zero_field("u"), (zero_field(), zero_field()),
                         zero_field("f"), zero_field("u0"))
    space = P1Space(build_uniform_mesh(2))
    params = SchemeParams(make_uniform_grid(2, 1.0))
    scheme = ThetaScheme(space, params, zero_case.forcing_f)
    records = list(scheme.iter_steps(scheme.initial_state()))
    assert error_metrics(space, zero_case, records) == (0.0, 0.0)


def test_the_laplacian_at_t0_is_solved_once(monkeypatch):
    # run_single takes the initial elliptic indicator from the Laplacian at
    # t^0 that step 1 carries, so its one solve is the carry's.  A plain
    # loop whose indicator solves its own Laplacian at t^0 gives the same
    # report bit for bit.
    case = varstep_case()
    space = P1Space(build_uniform_mesh(3))
    params = SchemeParams(make_uniform_grid(8, 1.0))
    scheme = ThetaScheme(space, params, case.forcing_f)
    engine = EstimatorEngine(space, params, case.forcing_f)
    U0 = scheme.initial_state(case.u0)
    eta0 = elliptic_estimator(space, U0, ConstantsConfig())
    rho0 = space.field_error_l2(case.u0, 0.0, U0) + eta0
    acc = EstimatorAccumulator(params, initial_elliptic=eta0, rho0=rho0)
    prev = None
    for rec in scheme.iter_steps(U0):
        acc.add(engine.step_estimates(rec, prev))
        prev = rec

    solves = record_solves(monkeypatch)
    rep = run_single(case, 3)
    laplacians_at_t0 = [s for s in solves if s.n in (None, 0)
                        or s.tag == "laplacian at t^{n-1}"]
    assert laplacians_at_t0 == [
        SolveRecord(True, 0, "initial projection"),
        SolveRecord(True, 1, "laplacian at t^{n-1}")]
    assert rep.report.rows == acc.rows


def _grid_run(case, level, grid):
    """Per-step report rows and error metrics of a plain loop on ``grid``."""
    space = P1Space(build_uniform_mesh(level))
    params = SchemeParams(grid)
    scheme = ThetaScheme(space, params, case.forcing_f)
    engine = EstimatorEngine(space, params, case.forcing_f)
    U0 = scheme.initial_state(case.u0)
    eta0 = elliptic_estimator(space, U0, ConstantsConfig())
    rho0 = space.field_error_l2(case.u0, 0.0, U0) + eta0
    acc = EstimatorAccumulator(params, initial_elliptic=eta0, rho0=rho0)
    records, prev = [], None
    for rec in scheme.iter_steps(U0):
        acc.add(engine.step_estimates(rec, prev))
        records.append(prev := rec)
    return acc.rows, error_metrics(space, case, records, U0)


def test_table_evaluation_gives_the_full_coordinate_run_bit_for_bit():
    # the fields of the varstep case called on the per-line tables and on
    # the full coordinates give the same report on a variable time grid
    grid = random_grid(11, 12)
    got = _grid_run(varstep_case(), 3, grid)
    want = _grid_run(full_coordinate_case(varstep_case()), 3, grid)
    assert got == want


def test_repeated_runs_are_bit_identical():
    first = run_single(make_case(1), 4)
    second = run_single(make_case(1), 4)
    assert first.report.rows == second.report.rows
    assert (first.max_nodal_l2_error, first.e_total) == \
        (second.max_nodal_l2_error, second.e_total)


@pytest.mark.parametrize("lam", [-4.0, 1.0 / 3.0])
def test_scaling_the_data_scales_errors_and_estimators(lam):
    case = make_case(1)
    base = run_single(case, 4)
    got = run_single(scaled_case(case, lam), 4)
    pairs = [(got.max_nodal_l2_error, base.max_nodal_l2_error),
             (got.e_total, base.e_total)]
    pairs += [(got.report.final(col), base.report.final(col))
              for col in REPORT_COLUMNS[2:]]
    for value, ref in pairs:
        assert abs(value - abs(lam) * ref) <= 1e-9 * abs(lam) * abs(ref)


@pytest.mark.parametrize("case", [make_case(1), make_case(2), varstep_case()],
                         ids=["case1", "case2", "varstep"])
def test_scaling_the_data_by_minus_two_doubles_every_column_exactly(case):
    # multiplying by a power of two is exact in floating point, and every
    # step of the pipeline is linear or a norm, so the doubling is bit for bit
    base = run_single(case, 4)
    got = run_single(scaled_case(case, -2.0), 4)
    assert got.max_nodal_l2_error == 2.0 * base.max_nodal_l2_error
    assert got.e_total == 2.0 * base.e_total
    assert len(got.report.rows) == len(base.report.rows) == 16
    for row, ref in zip(got.report.rows, base.report.rows):
        assert row[:2] == ref[:2]
        assert row[2:] == tuple(2.0 * v for v in ref[2:])


def test_data_just_below_overflow_scale_the_bound_exactly():
    base = run_single(make_case(1), 3)
    got = run_single(scaled_case(make_case(1), 1e150), 3)
    assert abs(got.bound_two / 1e150 - base.bound_two) <= 1e-12 * base.bound_two


@pytest.mark.parametrize("lam,error,message", [
    (1e155, FloatingPointError, "step 1, E_T1_two: nan is not finite"),
    (1e307, SolverError, "step 1, laplacian of the reconstruction: solution "
                         "exceeds the float range: max |x| is 1.129e+02 * 2^1021")],
    ids=["1e+155", "1e+307"])
def test_a_non_finite_report_column_fails_at_its_step(lam, error, message):
    # from about 1e155 on the squares of the step-1 indicators overflow, so
    # E_T1_two is NaN from step 1 on; numpy's overflow warnings are silenced
    # so that the run, not the warning filter, reports it.  At 1e307 the
    # Laplacian of step 1's reconstruction exceeds the float range, and its
    # solve raises before the indicators are formed.
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(error) as err:
        run_single(scaled_case(make_case(1), lam), 3)
    assert str(err.value) == message


@pytest.mark.parametrize("method,message", [
    ("field_error_l2", "step 0, L2 error: inf is not finite"),
    ("field_error_h1", "step 1, H1 error: inf is not finite")],
    ids=["l2", "h1"])
def test_a_non_finite_error_norm_fails_at_its_step(monkeypatch, method, message):
    # the L2 error is first taken of U0, the H1 error first at step 1
    monkeypatch.setattr(P1Space, method, lambda *args: math.inf)
    with pytest.raises(FloatingPointError) as err:
        run_single(make_case(1), 3)
    assert str(err.value) == message


def test_a_non_finite_compact_residual_fails_at_its_step(monkeypatch):
    # max(0.0, nan) is 0.0, so without the check a NaN residual would read
    # as a perfect one in max_compact_residual
    estimate = EstimatorEngine.step_estimates

    def nan_residual_at_3(engine, rec, prev_rec=None):
        se = estimate(engine, rec, prev_rec)
        return dataclasses.replace(se, compact_residual=math.nan) \
            if rec.n == 3 else se

    monkeypatch.setattr(EstimatorEngine, "step_estimates", nan_residual_at_3)
    with pytest.raises(FloatingPointError) as err:
        run_single(make_case(1), 3)
    assert str(err.value) == "step 3, compact residual: nan is not finite"


def test_a_failed_reconstruction_laplacian_names_its_step():
    # at 1e307 the Laplacian of step 1's reconstruction exceeds the float
    # range, and its solve names the step and the quantity; the step loop
    # and the engine run it here, without run_single's column checks
    case = scaled_case(make_case(1), 1e307)
    space = P1Space(build_uniform_mesh(3))
    params = SchemeParams(make_uniform_grid(8, 1.0))
    scheme = ThetaScheme(space, params, case.forcing_f)
    engine = EstimatorEngine(space, params, case.forcing_f)
    prev = None
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError) as err:
        for rec in scheme.iter_steps(scheme.initial_state(case.u0)):
            engine.step_estimates(rec, prev)
            prev = rec
    assert str(err.value) == (
        "step 1, laplacian of the reconstruction: solution exceeds the float "
        "range: max |x| is 1.129e+02 * 2^1021")


# -- evaluation overlapped with the time loop ----------------------------------------

@pytest.mark.parametrize("case,kwargs", [
    (make_case(1), {}), (make_case(2), {}),
    (make_case(1), {"theta": 0.25, "alpha1": 0.6}), (varstep_case(), {})],
    ids=["case1", "case2", "theta0.25", "varstep"])
def test_inline_and_overlapped_runs_are_bit_identical(monkeypatch, case, kwargs):
    runs = []
    for cutoff in (INLINE, OVERLAPPED):
        monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", cutoff)
        runs.append(run_single(case, 4, **kwargs))
    inline, overlapped = runs
    for f in dataclasses.fields(RunReport):
        assert getattr(overlapped, f.name) == getattr(inline, f.name), f.name


def _record_thread_starts(monkeypatch) -> list:
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def test_no_thread_below_the_cutoff_and_none_alive_after_return(monkeypatch):
    dofs = [P1Space(build_uniform_mesh(level)).n_dofs for level in (5, 6)]
    assert dofs[0] < fstheta.scheme.OVERLAP_MIN_DOFS <= dofs[1]
    before = set(threading.enumerate())
    started = _record_thread_starts(monkeypatch)
    run_single(make_case(1), 5)
    assert started == []
    monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", OVERLAPPED)
    run_single(make_case(1), 3)
    assert len(started) == 1 and not started[0].is_alive()
    assert set(threading.enumerate()) == before


def test_at_most_one_step_is_in_flight(monkeypatch):
    monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", OVERLAPPED)
    scheme_steps, evaluated = [], []
    substeps, estimate = ThetaScheme._substeps, EstimatorEngine.step_estimates

    def recording_substeps(scheme, prev, n, *start):
        scheme_steps.append(n)
        return substeps(scheme, prev, n, *start)

    def recording_estimate(engine, rec, prev_rec=None):
        evaluated.append((rec.n, max(scheme_steps)))
        return estimate(engine, rec, prev_rec)

    monkeypatch.setattr(ThetaScheme, "_substeps", recording_substeps)
    monkeypatch.setattr(EstimatorEngine, "step_estimates", recording_estimate)
    run_single(make_case(1), 4)
    assert [n for n, _ in evaluated] == list(range(1, 17))
    assert all(latest <= n + 1 for n, latest in evaluated)


def _failing_from(field: ScalarField, t_fail: float) -> ScalarField:
    def fn(x, y, t):
        if t >= t_fail:
            raise ArithmeticError(f"{field.name} has no value at t = {t}")
        return field(x, y, t)

    return ScalarField(field.name, fn)


def _fail_scheme_at(monkeypatch, n_fail: int) -> None:
    substeps = ThetaScheme._substeps

    def failing_substeps(scheme, prev, n, *start):
        if n == n_fail:
            raise SolverError(f"step {n}, first substep: no convergence")
        return substeps(scheme, prev, n, *start)

    monkeypatch.setattr(ThetaScheme, "_substeps", failing_substeps)


def _fail_estimate_at(monkeypatch, n_fail: int) -> None:
    estimate = EstimatorEngine.step_estimates

    def failing_estimate(engine, rec, prev_rec=None):
        if rec.n == n_fail:
            raise FloatingPointError(f"indicator of step {rec.n} overflowed")
        return estimate(engine, rec, prev_rec)

    monkeypatch.setattr(EstimatorEngine, "step_estimates", failing_estimate)


def _errors_of_both_paths(monkeypatch, run) -> list:
    before = set(threading.enumerate())
    errors = []
    for cutoff in (INLINE, OVERLAPPED):
        monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", cutoff)
        with pytest.raises(Exception) as info:
            run()
        errors.append((type(info.value), str(info.value)))
        assert set(threading.enumerate()) == before
    return errors


def test_every_solve_of_a_run_goes_through_the_tagged_solve(monkeypatch):
    # each solve_spd call of a run is made inside one tagged solve
    # (record_solves checks it): 1 initial projection, 10 solves in step 1
    # and 8 in each later step.  The worker of iter_steps makes the substep
    # solves and nothing else; the calling thread projects the initial
    # datum, makes the carry at t^0 and each step's end-of-step solves, and
    # the estimators' Laplacian of w
    monkeypatch.setattr(fstheta.scheme, "OVERLAP_MIN_DOFS", OVERLAPPED)
    solves = record_solves(monkeypatch)
    run_single(make_case(1), 3)
    assert len(solves) == 1 + 10 + 8 * 7
    substeps = ("first substep", "second substep", "third substep")
    assert [s for s in solves if not s.on_caller] == [
        SolveRecord(False, n, tag) for n in range(1, 9) for tag in substeps]
    assert [s for s in solves if s.on_caller] == [
        SolveRecord(True, 0, "initial projection"),
        SolveRecord(True, 1, "laplacian at t^{n-1}"),
        SolveRecord(True, 1, "forcing projection at t^{n-1}")] + [
        SolveRecord(True, n, tag) for n in range(1, 9) for tag in (
            "laplacian at t^n", "forcing projection at t^n",
            "laplacian substep defect", "forcing projection substep defect",
            "laplacian of the reconstruction")]


def test_a_failed_carry_at_t0_raises_the_same_tagged_error(monkeypatch):
    # the carry at t^0 is solved before the first substep
    case = make_case(1)
    forcing = case.forcing_f

    def nan_at_t0(x, y, t):
        values = forcing(x, y, t)
        return np.full(np.shape(values), np.nan) if t == 0.0 else values

    failing = dataclasses.replace(case, forcing_f=ScalarField("f", nan_at_t0))
    errors = _errors_of_both_paths(monkeypatch, lambda: run_single(failing, 3))
    assert errors == [(SolverError, "step 1, forcing projection at t^{n-1}: "
                                    "right-hand side is not finite")] * 2


LAPLACIAN_FAILURE = (SolverError,
                     "step 2, laplacian at t^n: right-hand side is not finite")


def test_a_failed_end_of_step_solve_raises_the_same_tagged_error(monkeypatch):
    fail_scheme_solve(monkeypatch, 2, "laplacian at t^n")
    errors = _errors_of_both_paths(monkeypatch, lambda: run_single(make_case(1), 3))
    assert errors == [LAPLACIAN_FAILURE] * 2


def test_a_failed_end_of_step_solve_wins_over_the_next_scheme_step(monkeypatch):
    fail_scheme_solve(monkeypatch, 2, "laplacian at t^n")
    _fail_scheme_at(monkeypatch, 3)
    errors = _errors_of_both_paths(monkeypatch, lambda: run_single(make_case(1), 3))
    assert errors == [LAPLACIAN_FAILURE] * 2


def test_a_failed_error_norm_propagates_with_its_type_and_message(monkeypatch):
    case = make_case(1)
    gx, gy = case.exact_grad_u
    failing = dataclasses.replace(case, exact_grad_u=(gx, _failing_from(gy, 0.5)))
    errors = _errors_of_both_paths(monkeypatch, lambda: run_single(failing, 3))
    assert errors == [(ArithmeticError, "du/dy has no value at t = 0.5")] * 2


def test_a_failed_estimate_propagates_with_its_type_and_message(monkeypatch):
    _fail_estimate_at(monkeypatch, 5)
    errors = _errors_of_both_paths(monkeypatch, lambda: run_single(make_case(1), 3))
    assert errors == [(FloatingPointError, "indicator of step 5 overflowed")] * 2


def test_a_failed_estimate_wins_over_a_scheme_failure_in_the_next_step(monkeypatch):
    _fail_estimate_at(monkeypatch, 3)
    _fail_scheme_at(monkeypatch, 4)
    errors = _errors_of_both_paths(monkeypatch, lambda: run_single(make_case(1), 3))
    assert errors == [(FloatingPointError, "indicator of step 3 overflowed")] * 2


def test_a_scheme_failure_propagates_when_the_estimates_succeed(monkeypatch):
    _fail_scheme_at(monkeypatch, 4)
    errors = _errors_of_both_paths(monkeypatch, lambda: run_single(make_case(1), 3))
    assert errors == [(SolverError, "step 4, first substep: no convergence")] * 2


def test_eoc_values():
    assert np.allclose(eoc([4e-2, 1e-2], [1 / 8, 1 / 16]), [2.0])
    assert np.allclose(eoc([3.0, 3.0, 3.0], [1, 0.5, 0.25]), [0.0, 0.0])


def test_eoc_validation():
    with pytest.raises(ValueError):
        eoc([1.0, -1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        eoc([1.0], [1.0])
    with pytest.raises(ValueError):
        eoc([1.0, 0.5, 0.25], [1.0, 0.5])


# -- studies -----------------------------------------------------------------------

def test_run_study_two_levels(small_study):
    reports = small_study.reports
    assert [r.level for r in reports] == [3, 4]
    for r in reports:
        assert r.k == r.h_cell == 2.0 ** (-r.level)
        assert r.n_steps == 2 ** r.level
        assert r.max_compact_residual <= 1e-9
    orders = eoc(small_study.errors(), small_study.mesh_sizes())
    assert 1.7 <= orders[0] <= 2.3


def test_case3_runs_and_reports_finite_values():
    # the fast-in-space case is under-resolved at coarse levels; the harness
    # must still run it and report finite, positive quantities
    rep = run_single(make_case(3), 3)
    assert np.isfinite(rep.max_nodal_l2_error) and rep.max_nodal_l2_error > 0
    assert np.isfinite(rep.e_total)
    assert np.isfinite(rep.bound_two) and np.isfinite(rep.bound_three)
    assert rep.max_compact_residual <= 1e-9


def test_run_study_flushes_partial_results(tmp_path):
    # level 3 fails at t = 1/8, a time node that level 2 does not have
    case = make_case(1)
    u = case.exact_u

    def fn(x, y, t):
        if t == 0.125:
            raise ArithmeticError("u has no value at t = 0.125")
        return u(x, y, t)

    failing = dataclasses.replace(case, exact_u=ScalarField("u", fn))
    with pytest.raises(ArithmeticError):
        run_study(failing, [2, 3], out_dir=tmp_path)
    assert (tmp_path / "case1_errors.csv").exists()
    lines = (tmp_path / "case1_errors.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the completed level


def test_run_study_writes_the_completed_levels_when_interrupted(monkeypatch,
                                                               tmp_path):
    run = study.run_single

    def interrupted_at_level_3(case, level, **kwargs):
        if level == 3:
            raise KeyboardInterrupt
        return run(case, level, **kwargs)

    monkeypatch.setattr(study, "run_single", interrupted_at_level_3)
    with pytest.raises(KeyboardInterrupt):
        run_study(1, [2, 3], out_dir=tmp_path)
    for name in ("errors", "reconstruction_estimators", "time_estimators",
                 "space_estimators"):
        lines = (tmp_path / f"case1_{name}.csv").read_text().strip().splitlines()
        assert len(lines) == 2, name  # header plus the completed level


def test_a_study_without_levels_is_rejected_before_anything_is_written(tmp_path):
    out = tmp_path / "res"
    with pytest.raises(ConfigurationError, match="at least one level"):
        run_study(2, [], out_dir=out)
    assert not out.exists()


@pytest.mark.parametrize("levels,message", [
    ([3, 13], "mesh level must lie in [1, 12], got 13"),
    ([3, 2.5], "mesh level must be an integer, got 2.5")],
    ids=["past-the-finest", "not-an-integer"])
def test_a_bad_level_is_rejected_before_any_level_runs(monkeypatch, tmp_path,
                                                       levels, message):
    runs = []
    monkeypatch.setattr(study, "run_single", lambda *a, **kw: runs.append(a))
    out = tmp_path / "res"
    with pytest.raises(ConfigurationError) as err:
        run_study(1, levels, out_dir=out)
    assert str(err.value) == message
    assert runs == [] and not out.exists()


@pytest.mark.parametrize("options,message", [
    ({"fmt": "tex"}, "format must be csv or md, got 'tex'"),
    ({"fmt": "markdown"}, "format must be csv or md, got 'markdown'"),
    ({"variant": "four"},
     f"variant must be one of {study.VARIANTS}, got 'four'")],
    ids=["format", "markdown", "variant"])
def test_a_bad_table_option_is_rejected_before_any_level_runs(
        monkeypatch, tmp_path, options, message):
    runs = []
    run_single = study.run_single
    monkeypatch.setattr(study, "run_single",
                        lambda *a, **kw: runs.append(a[1]) or run_single(*a, **kw))
    out = tmp_path / "res"
    with pytest.raises(ConfigurationError) as err:
        run_study(1, [1, 2, 3], out_dir=out, **options)
    assert str(err.value) == message
    assert runs == [] and not out.exists()


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_constants_must_be_finite_and_positive(value):
    for field in dataclasses.fields(ConstantsConfig):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            ConstantsConfig(**{field.name: value})


# -- emission ---------------------------------------------------------------------

def _numbers_in(text):
    import re
    return re.findall(r"-?\d\.\d{4}e[+-]\d{2}", text)


def test_emit_empty_reports(tmp_path):
    paths = emit([], fmt="csv", out_dir=tmp_path)
    assert len(paths) == 4
    for p in paths:
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 1  # header only


def test_emit_formats_identical_numbers(tmp_path, small_study):
    csv_paths = emit(small_study.reports, fmt="csv", out_dir=tmp_path / "c")
    md_paths = emit(small_study.reports, fmt="md", out_dir=tmp_path / "m")
    for pc, pm in zip(csv_paths, md_paths):
        assert _numbers_in(pc.read_text()) == _numbers_in(pm.read_text())


def test_emit_variant_filtering(tmp_path, small_study):
    paths = emit(small_study.reports, fmt="csv", out_dir=tmp_path,
                 variant="two")
    for p in paths:
        header = p.read_text().splitlines()[0]
        assert "three" not in header


def test_emit_rejects_bad_format(tmp_path, small_study):
    with pytest.raises(ConfigurationError):
        emit(small_study.reports, fmt="tex", out_dir=tmp_path)


@pytest.mark.parametrize("fmt,ext", [("csv", "csv"), ("md", "md")])
def test_golden_tables(tmp_path, fmt, ext):
    # frozen from the first verified run of levels 3..5 on case (1)
    result = run_study(1, range(3, 6))
    paths = emit(result.reports, fmt=fmt, out_dir=tmp_path)
    for path in paths:
        golden = GOLDEN_DIR / path.name
        assert golden.exists(), f"golden file {golden.name} missing"
        assert path.read_text() == golden.read_text(), \
            f"{path.name} deviates from the golden table"


def test_per_step_estimators_stay_within_1e_9_of_the_benchmark_references(
        tmp_path):
    # the goldens keep 4 digits; the benchmark gates the per-step CSVs of
    # case 1 at 1e-9 relative, and its references at levels 3-5 are read here
    # (only read) so that a drift in the evaluation path fails tier-1 too
    run_study(1, range(3, 6), out_dir=tmp_path)
    for level in (3, 4, 5):
        name = f"case1_level{level}_estimators.csv"
        got, want = ([line.split(",") for line in path.read_text().splitlines()]
                     for path in (tmp_path / name, REFERENCE_DIR / name))
        assert got[0] == want[0] == list(REPORT_COLUMNS)
        assert len(got) == len(want) == 1 + 2 ** level
        for got_row, want_row in zip(got[1:], want[1:]):
            for column, a, b in zip(REPORT_COLUMNS, got_row, want_row):
                assert math.isclose(float(a), float(b), rel_tol=1e-9,
                                    abs_tol=0.0), (name, got_row[0], column)


# -- command line ------------------------------------------------------------------

def test_cli_end_to_end(tmp_path):
    out = tmp_path / "res"
    code = cli_main(["--case", "1", "--levels", "2:3", "--out", str(out),
                     "--format", "md", "--check"])
    assert code == 0
    assert (out / "case1_errors.md").exists()
    assert (out / "case1_level2_estimators.csv").exists()
    assert (out / "case1_level3_estimators.csv").exists()


def test_a_cli_study_failing_at_its_last_level_keeps_the_earlier_per_step_csvs(
        monkeypatch, tmp_path):
    run = study.run_single

    def failing_at_level_3(case, level, **kwargs):
        if level == 3:
            raise ArithmeticError("level 3 failed")
        return run(case, level, **kwargs)

    monkeypatch.setattr(study, "run_single", failing_at_level_3)
    out = tmp_path / "res"
    with pytest.raises(ArithmeticError, match="level 3 failed"):
        cli_main(["--case", "1", "--levels", "1:3", "--out", str(out)])
    for level in (1, 2):
        lines = (out / f"case1_level{level}_estimators.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 ** level    # header plus one row per step
    assert not (out / "case1_level3_estimators.csv").exists()


def test_cli_constant_overrides(tmp_path):
    out = tmp_path / "res"
    code = cli_main(["--case", "1", "--levels", "2", "--out", str(out),
                     "--const", "C12=0.5", "--const", "C22=0.5"])
    assert code == 0


@pytest.mark.parametrize("args", [
    ["--levels", "5:3"],
    ["--const", "bogus=1.0"],
    ["--theta", "abc"],
    ["--solver-tol", "1e-10"],
])
def test_cli_rejects_bad_flags(args):
    with pytest.raises(SystemExit):
        cli_main(["--case", "1"] + args)


@pytest.mark.parametrize("const", ["c1=-1", "C12=nan", "C22=inf"])
def test_cli_reports_a_bad_constant_as_a_configuration_error(tmp_path, capsys, const):
    out = tmp_path / "res"
    code = cli_main(["--case", "1", "--levels", "2", "--const", const,
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: constant")
    assert not out.exists()


def test_cli_rejects_a_level_range_past_the_finest_mesh_before_running(
        monkeypatch, tmp_path, capsys):
    runs = []
    monkeypatch.setattr(study, "run_single", lambda *a, **kw: runs.append(a))
    out = tmp_path / "res"
    code = cli_main(["--case", "1", "--levels", "3:13", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: mesh level must lie in [1, 12], got 13")
    assert runs == [] and not out.exists()


def test_cli_rejects_bad_theta_value():
    code = cli_main(["--case", "1", "--levels", "2", "--theta", "0.4",
                     "--out", "/tmp/_fstheta_unused"])
    assert code == 2
