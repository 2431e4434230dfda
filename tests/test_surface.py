"""The public surface of the package: ``__all__`` is pinned, so a name leaves
it (or joins it) on purpose, and every name the benchmark in ``perfbench/``
calls or patches still resolves, by the same call path."""

import ast
import importlib
from pathlib import Path

import fstheta
import fstheta.cli
import fstheta.fem
import fstheta.scheme

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = {
    "ConfigurationError",
    "ConstantsConfig", "EstimatorAccumulator", "EstimatorEngine",
    "EstimatorReport", "StepEstimates", "coarsening_estimator",
    "elliptic_estimator", "recon_coeff_three_level", "recon_coeff_two_level",
    "step_difference_estimator", "time_weight",
    "FeFunction", "P1Space", "ScalarField",
    "Mesh", "build_uniform_mesh",
    "THETA_DEFAULT", "SchemeParams", "StepRecord", "ThetaScheme",
    "glowinski_alpha", "make_uniform_grid",
    "SolverError", "solve_spd",
    "CaseSpec", "RunReport", "StudyResult", "emit", "eoc", "make_case",
    "run_single", "run_study", "verify_forcing",
    "__version__",
}


def test_all_is_pinned_and_resolves():
    assert len(fstheta.__all__) == len(set(fstheta.__all__))
    assert set(fstheta.__all__) == PUBLIC
    for name in fstheta.__all__:
        assert hasattr(fstheta, name), name


def test_test_only_names_left_the_package():
    # oracles used only by the tests live in tests/helpers.py
    assert not hasattr(fstheta, "quadrature_exactness_check")
    assert not hasattr(fstheta, "zero_field")
    assert not hasattr(fstheta.P1Space, "l2_project")
    assert not hasattr(fstheta.StudyResult, "estimator_series")


def test_every_name_the_workloads_call_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "fs"}
    assert {"run_single", "ThetaScheme", "EstimatorEngine"} <= used
    missing = sorted(name for name in used if not hasattr(fstheta, name))
    assert not missing, f"perfbench/workloads.py calls fstheta.{missing}"
    assert callable(fstheta.cli.main)


def test_every_name_the_tracer_patches_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for _, owner, attr in tracing.TRACED:
        target = fstheta if owner == "function" else owner
        assert callable(getattr(target, attr)), (owner, attr)
    for owner, attr in ((fstheta.P1Space, "__init__"),
                        (fstheta.ThetaScheme, "iter_steps")):
        assert callable(getattr(owner, attr))
    # the solver is bound at module level where the scheme and the space call
    # it, so patching those bindings sees every solve
    solve = fstheta.solve_spd
    assert fstheta.scheme.solve_spd is solve and fstheta.fem.solve_spd is solve
    with tracing.Tracer():
        assert fstheta.scheme.solve_spd is not solve
        assert fstheta.fem.solve_spd is not solve
    assert fstheta.scheme.solve_spd is solve and fstheta.fem.solve_spd is solve
