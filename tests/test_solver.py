import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from fstheta import SolverError, solve_spd


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_diagonal_system_is_elementwise_divide():
    d = np.array([2.0, 4.0, 0.5])
    b = np.array([1.0, 2.0, 3.0])
    x = solve_spd(np.diag(d), b)
    assert np.allclose(x, b / d, rtol=1e-12)


def test_two_by_two_hand_solution():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = solve_spd(a, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_spd_residual_contract(seed):
    a = _random_spd(50, seed)
    b = np.random.default_rng(seed + 100).standard_normal(50)
    x = solve_spd(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_sparse_matrix_input():
    a = sp.csr_matrix(_random_spd(30, 5))
    b = np.arange(30, dtype=float)
    x = solve_spd(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_zero_rhs_returns_exact_zero():
    a = _random_spd(20, 3)
    x = solve_spd(a, np.zeros(20))
    assert (x == 0.0).all()


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        solve_spd(np.eye(3), np.ones(4))


def test_nonconvergence_raises_with_residual():
    # identity plus a skew part: the diagonal and every curvature p @ a @ p
    # are positive, so no SPD check fires, but a is not symmetric and CG
    # stalls until the iteration cap of ten per unknown
    a = np.array([[1.0, -1.0], [1.0, 1.0]])
    with pytest.raises(SolverError, match="no convergence") as err:
        solve_spd(a, np.array([1.0, 0.0]))
    assert err.value.iterations == 10 * 2
    assert np.isfinite(err.value.residual)
    assert err.value.residual > 0


def test_deterministic_bitwise():
    a = sp.csr_matrix(_random_spd(40, 11))
    b = np.random.default_rng(12).standard_normal(40)
    x1 = solve_spd(a, b)
    x2 = solve_spd(a, b)
    assert np.array_equal(x1, x2)


def test_not_spd_detected():
    a = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SolverError):
        solve_spd(a, np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_raises_without_iterating(bad):
    b = np.ones(20)
    b[3] = bad
    with pytest.raises(SolverError, match="not finite") as err:
        solve_spd(_random_spd(20, 4), b)
    assert err.value.iterations == 0


class _DriftingDiagonal:
    """diag(2, 4) whose products double after the first one: CG converges
    in one iteration, and only the true-residual re-check can notice."""

    shape = (2, 2)

    def __init__(self):
        self.products = 0

    def diagonal(self):
        return np.array([2.0, 4.0])

    def __matmul__(self, v):
        self.products += 1
        return np.array([2.0, 4.0]) * v * (1.0 if self.products == 1 else 2.0)


def test_residual_recheck_catches_inconsistent_products():
    matrix = _DriftingDiagonal()
    with pytest.raises(SolverError, match="disagrees with true residual"):
        solve_spd(matrix, np.array([1.0, 2.0]))
    assert matrix.products == 2     # one iteration plus the one re-check


_OPTIMIZED_SCRIPT = """
import numpy as np
from fstheta import SolverError, solve_spd
from test_solver import _DriftingDiagonal
assert not __debug__
try:
    solve_spd(_DriftingDiagonal(), np.array([1.0, 2.0]))
except SolverError as err:
    print("raised:", err)
"""


def test_residual_recheck_survives_python_O():
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(here)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised:"), done.stdout
