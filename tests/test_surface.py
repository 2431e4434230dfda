"""The public surface of the package: ``__all__`` is pinned, so a name leaves
it (or joins it) on purpose, and every name the benchmark in ``perfbench/``
calls or patches still resolves, by the same call path."""

import ast
import importlib
import inspect
from pathlib import Path

import fstheta
import fstheta.cli
import fstheta.estimators
import fstheta.fem
import fstheta.mesh
import fstheta.scheme
import fstheta.solver
import fstheta.study

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

PUBLIC = {
    "ConfigurationError",
    "ConstantsConfig", "EstimatorAccumulator", "EstimatorEngine",
    "EstimatorReport", "StepEstimates", "coarsening_estimator",
    "elliptic_estimator", "recon_coeff_three_level", "recon_coeff_two_level",
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
    # each step indicator has one definition, in EstimatorEngine.step_estimates
    assert not hasattr(fstheta, "time_weight")
    assert not hasattr(fstheta, "step_difference_estimator")
    assert not hasattr(fstheta.EstimatorEngine, "compact_form_residual")


def _names_used(tree) -> set[str]:
    """Names and attribute names that ``tree`` reads, outside the bodies of
    the functions that define them."""
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return used


def test_every_public_function_has_a_caller_in_the_package_or_the_benchmark():
    # a public function that only the tests call is a second definition of
    # its quantity or a test oracle; either way it leaves the package
    sources = [path for path in sorted((ROOT / "src" / "fstheta").glob("*.py"))
               if path.name != "__init__.py"] + sorted(PERFBENCH.glob("*.py"))
    used = set().union(*(_names_used(ast.parse(path.read_text()))
                         for path in sources))
    functions = [name for name in fstheta.__all__
                 if inspect.isfunction(getattr(fstheta, name))]
    assert "elliptic_estimator" in functions and "run_study" in functions
    uncalled = sorted(set(functions) - used)
    assert not uncalled, f"no caller outside the tests: {uncalled}"


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
    # every solve of the package goes through solver.tagged_solve, which
    # calls solve_spd through its module's binding, so patching that binding
    # sees every solve; no other module of the package binds solve_spd
    solve = fstheta.solve_spd
    assert fstheta.solver.solve_spd is solve
    with tracing.Tracer():
        assert fstheta.solver.solve_spd is not solve
    assert fstheta.solver.solve_spd is solve
    for module in (fstheta.cli, fstheta.estimators, fstheta.fem, fstheta.mesh,
                   fstheta.scheme, fstheta.study):
        assert not hasattr(module, "solve_spd"), module.__name__
