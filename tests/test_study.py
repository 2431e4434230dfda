from pathlib import Path

import numpy as np
import pytest

from fstheta import (CaseSpec, ConfigurationError, P1Space,
                     SchemeParams, ThetaScheme, build_uniform_mesh, emit, eoc,
                     make_case, make_uniform_grid, run_single, run_study,
                     verify_forcing, zero_field)
from fstheta.cli import main as cli_main
from fstheta.estimators import REPORT_COLUMNS

from helpers import error_metrics, scaled_case, varstep_case

PI = np.pi

GOLDEN_DIR = Path(__file__).parent / "golden"


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
        assert r.h_element == np.sqrt(2.0) * r.h_cell
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
    with pytest.raises(ConfigurationError):
        run_study(1, [2, 99], out_dir=tmp_path)
    assert (tmp_path / "case1_errors.csv").exists()
    lines = (tmp_path / "case1_errors.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the completed level


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


# -- command line ------------------------------------------------------------------

def test_cli_end_to_end(tmp_path):
    out = tmp_path / "res"
    code = cli_main(["--case", "1", "--levels", "2:3", "--out", str(out),
                     "--format", "md", "--check"])
    assert code == 0
    assert (out / "case1_errors.md").exists()
    assert (out / "case1_level2_estimators.csv").exists()
    assert (out / "case1_level3_estimators.csv").exists()


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


def test_cli_rejects_bad_theta_value():
    code = cli_main(["--case", "1", "--levels", "2", "--theta", "0.4",
                     "--out", "/tmp/_fstheta_unused"])
    assert code == 2
