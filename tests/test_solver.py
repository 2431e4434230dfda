import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import fstheta.solver
from fstheta import (P1Space, SchemeParams, SolverError, build_uniform_mesh,
                     make_case, make_uniform_grid, run_single, solve_spd)
from fstheta.scheme import _SubstepPair
from fstheta.solver import StackedSolves, _chebyshev_quadratic, tagged_solve

from helpers import allocating_pcg, direct_solve, scipy_dia


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


@pytest.mark.parametrize("n,prefix", [(3, "step 3, some quantity: "),
                                      (None, "some quantity: ")],
                         ids=["step", "no-step"])
def test_a_tagged_solve_names_its_step_and_quantity(n, prefix):
    a = np.array([[1.0, -1.0], [1.0, 1.0]])
    with pytest.raises(SolverError) as err:
        tagged_solve(a, np.array([1.0, 0.0]), n, "some quantity")
    cause = err.value.__cause__
    assert isinstance(cause, SolverError)
    assert str(err.value) == prefix + str(cause)
    assert err.value.residual == cause.residual
    assert err.value.iterations == cause.iterations == 20


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


class _Counting:
    """Exposes only ``shape``, ``diagonal()``, ``@`` and the
    ``jacobi_spectrum`` bounds (where the matrix has them) of a matrix, and
    counts the products, like the benchmark tracer's stand-in, which
    forwards no bounds."""

    def __init__(self, matrix):
        self._matrix = matrix
        self.shape = matrix.shape
        self.products = 0
        if hasattr(matrix, "jacobi_spectrum"):
            self.jacobi_spectrum = matrix.jacobi_spectrum

    def iterations(self) -> int:
        """The iterations of the solves counted so far: one product each
        and one for the re-check, or with the polynomial step three each
        and two for the first direction."""
        if hasattr(self, "jacobi_spectrum"):
            return (self.products - 3) // 3
        return self.products - 1

    def diagonal(self):
        return self._matrix.diagonal()

    def __matmul__(self, v):
        self.products += 1
        return self._matrix @ v


def test_nan_curvature_raises_within_one_iteration():
    # p @ a @ p is NaN, which a "<= 0" test lets through: the loop would run
    # all 10 n iterations before reporting no convergence
    a = _Counting(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(SolverError, match="curvature nan") as err:
        solve_spd(a, np.array([1.0, 1.0]))
    assert err.value.iterations == 1
    assert a.products == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_diagonal_raises_without_iterating(bad):
    m = np.eye(3)
    m[1, 1] = bad
    a = _Counting(m)
    with pytest.raises(SolverError, match="non-finite diagonal") as err:
        solve_spd(a, np.ones(3))
    assert err.value.iterations == 0
    assert a.products == 0


def test_residual_recheck_catches_inconsistent_products():
    matrix = _DriftingDiagonal()
    with pytest.raises(SolverError, match="disagrees with true residual"):
        solve_spd(matrix, np.array([1.0, 2.0]))
    assert matrix.products == 2     # one iteration plus the one re-check


# -- bit-for-bit equality with the allocating loop -----------------------------

def _assert_same_bits(matrix, rhs):
    got, want = solve_spd(matrix, rhs), allocating_pcg(matrix, rhs)
    assert got.tobytes() == want.tobytes()


def _scheme_matrices(level, **kwargs):
    """M and the substep pair (a_theta, a_tilde) of a 2^level-step grid."""
    space = P1Space(build_uniform_mesh(level))
    n_steps = 2 ** level
    params = SchemeParams(make_uniform_grid(n_steps, 1.0), **kwargs)
    return (space, *_SubstepPair(space, params).at(1.0 / n_steps))


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("kwargs", [{}, {"theta": 0.25, "alpha1": 0.6}],
                         ids=["default", "theta0.25"])
def test_in_place_loop_matches_allocating_loop_on_the_scheme_matrices(level, kwargs):
    space, a_theta, a_tilde = _scheme_matrices(level, **kwargs)
    rng = np.random.default_rng(level)
    smooth = space.load_vector(make_case(1).forcing_f, 0.5)
    for rhs in (smooth, rng.standard_normal(space.n_dofs)):
        for matrix in (a_theta, a_tilde, space.mass):
            _assert_same_bits(matrix, rhs)


@pytest.mark.parametrize("level", range(1, 8))
@pytest.mark.parametrize("kwargs", [{}, {"theta": 0.25, "alpha1": 0.6}],
                         ids=["default", "theta0.25"])
def test_every_package_system_has_a_constant_diagonal(level, kwargs):
    # on the uniform mesh every system the package solves takes the scalar
    # Jacobi step and the r.z stop of solve_spd
    space, a_theta, a_tilde = _scheme_matrices(level, **kwargs)
    for matrix in (space.mass, space.stiffness, a_theta, a_tilde):
        diag = matrix.diagonal()
        assert diag.size == space.n_dofs and np.ptp(diag) == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-120, 1e150])
def test_random_right_hand_sides_stop_where_the_residual_norm_stops(scale):
    # the loop stops on r.z <= tol^2 / d, the allocating loop on ||r||_2 <=
    # tol: a stop shifted by one iteration at the tolerance boundary would
    # change the bytes
    space, a_theta, a_tilde = _scheme_matrices(4)
    rng = np.random.default_rng(2024)
    for matrix in (space.mass, a_theta, a_tilde):
        for _ in range(50):
            _assert_same_bits(matrix, scale * rng.standard_normal(space.n_dofs))


@pytest.mark.parametrize("j", [-1000, -600, 0, 600, 1000])
def test_a_power_of_two_on_the_right_hand_side_scales_the_solution_exactly(j):
    # the loop runs at unit scale, so neither r.z nor p.Ap underflows for a
    # tiny right-hand side, nor b.b overflows for a huge one
    space, a_theta, a_tilde = _scheme_matrices(4)
    rhs = np.random.default_rng(4).standard_normal(space.n_dofs)
    for matrix in (space.mass, a_theta, a_tilde):
        want = np.ldexp(solve_spd(matrix, rhs), j)
        assert solve_spd(matrix, np.ldexp(rhs, j)).tobytes() == want.tobytes()


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_degenerate_right_hand_sides_solve_to_the_allocating_loops_bits(level):
    # the loop iterates on s = -r; its bits equal the loop on r only if every
    # negation is exact, signed zeros included, which sparse right-hand sides
    # (exact zeros in r, z and p) put to the test
    space, a_theta, a_tilde = _scheme_matrices(level)
    n = space.n_dofs
    one_hot = np.zeros(n)
    one_hot[n // 2] = 1.0
    alternating = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    mostly_zero = np.zeros(n)
    mostly_zero[::7] = np.random.default_rng(level).standard_normal(
        mostly_zero[::7].size)
    mostly_zero[0] = -0.0
    for rhs in (one_hot, -one_hot, alternating, mostly_zero):
        for matrix in (space.mass, a_theta, a_tilde):
            first, second = solve_spd(matrix, rhs), solve_spd(matrix, rhs)
            assert first.tobytes() == allocating_pcg(matrix, rhs).tobytes()
            assert first.tobytes() == second.tobytes()
            # each result owns its data, so no later solve can write into it
            assert first.base is None and second.base is None
            assert not np.shares_memory(first, second)


@pytest.mark.parametrize("level", [1, 4, 6, 7])
def test_a_counting_stand_in_solves_to_the_same_bits(level):
    # a stand-in that exposes only shape, diagonal(), @ and the bounds (the
    # tracer's forwards no bounds) has no matvec_add, so the solver wraps it
    # in an adapter that adds ``matrix @ v`` into the held buffer; that path
    # must give the allocating loop's bytes and make every product through
    # @: one per iteration (three on M), which the allocating loop counts,
    # and the residual re-check.  Into a zeroed buffer the adapter adds the
    # band path's bytes; the polynomial step on M adds its products into a
    # scaled s, where the kernel adds each band in turn and the adapter
    # adds the finished product, so there the two differ in rounding only.
    space, a_theta, a_tilde = _scheme_matrices(level)
    rhs = np.random.default_rng(level).standard_normal(space.n_dofs)
    for matrix in (space.mass, a_theta, a_tilde):
        counted, iterations = _Counting(matrix), _Counting(matrix)
        x = solve_spd(counted, rhs)
        assert x.tobytes() == allocating_pcg(iterations, rhs).tobytes()
        band = solve_spd(matrix, rhs)
        if matrix is space.mass:
            assert np.abs(x - band).max() <= 1e-13 * np.abs(band).max()
        else:
            assert x.tobytes() == band.tobytes()
        assert iterations.products >= 1
        assert counted.products == iterations.products + 1


@pytest.mark.parametrize("which", ["mass", "a_theta"])
def test_iterations_on_a_band_matrix_allocate_nothing(which):
    # the loop holds its vectors in buffers made before the first iteration
    # and a BandMatrix writes its products into them, so a solve of many
    # iterations traces the same peak and leaves the same blocks as a solve
    # of one.  Both matrices have a constant diagonal, so an eigenvector
    # converges in one iteration, of Jacobi-PCG on a_theta and of the
    # polynomial step on M.
    space, a_theta, _ = _scheme_matrices(5)
    matrix = space.mass if which == "mass" else a_theta
    eigenvector = scipy.linalg.eigh(scipy_dia(matrix).toarray())[1][:, -1]
    rough = np.random.default_rng(5).standard_normal(space.n_dofs)
    solve_spd(matrix, rough)    # the band reads its kernel arguments once
    iterations, peaks, blocks = [], [], []
    for rhs in (eigenvector, rough):
        counted = _Counting(matrix)
        solve_spd(counted, rhs)
        iterations.append(counted.iterations())
        tracemalloc.start()
        try:
            x = solve_spd(matrix, rhs)
            peak = tracemalloc.get_traced_memory()[1]
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        blocks.append(len(snapshot.traces))
        assert x.tobytes() == allocating_pcg(matrix, rhs).tobytes()
    assert iterations[0] <= 2 and iterations[1] >= (7 if which == "mass" else 20)
    assert peaks[1] == peaks[0]
    assert blocks[1] == blocks[0]


def test_in_place_loop_matches_allocating_loop_on_dense_and_csr_inputs():
    _assert_same_bits(np.diag([2.0, 4.0, 0.5]), np.array([1.0, 2.0, 3.0]))
    _assert_same_bits(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    for seed in (0, 1, 2):
        _assert_same_bits(_random_spd(50, seed),
                          np.random.default_rng(seed + 100).standard_normal(50))
    _assert_same_bits(sp.csr_matrix(_random_spd(30, 5)), np.arange(30, dtype=float))
    _assert_same_bits(sp.csr_matrix(_random_spd(40, 11)),
                      np.random.default_rng(12).standard_normal(40))


# -- the polynomial step on M ---------------------------------------------------

def _p(lam):
    """The degree-2 polynomial with 1 - lam p(lam) = T3((5 - 4 lam) / 3) /
    T3(5/3), the Chebyshev polynomial of [1/2, 2]."""
    return (1092.0 - 960.0 * lam + 256.0 * lam * lam) / 365.0


def test_the_chebyshev_quadratic_of_the_mass_bounds_is_exact():
    # q = 365/256 p, and each coefficient and the least value of q on
    # [1/2, 2] (at its vertex 15/8) is a float with no rounding
    assert _chebyshev_quadratic(0.5, 2.0) == (-3.75, 4.265625, 0.75)
    lam = np.linspace(0.5, 2.0, 1001)
    q = lam * lam - 3.75 * lam + 4.265625
    assert np.allclose(q * 256.0 / 365.0, _p(lam), rtol=1e-15, atol=0.0)
    assert abs(1.0 - lam * _p(lam)).max() <= 27.0 / 365.0 + 1e-15


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_the_jacobi_scaled_mass_spectrum_lies_in_its_bounds(level):
    space = P1Space(build_uniform_mesh(level))
    mass = space.mass
    assert mass.jacobi_spectrum == (0.5, 2.0)
    d = mass.diagonal()
    eig = scipy.linalg.eigvalsh(scipy_dia(mass).toarray() / np.sqrt(np.outer(d, d)))
    assert eig.min() >= 0.5 and eig.max() <= 2.0
    assert _p(eig).min() >= 192.0 / 365.0


@pytest.mark.parametrize("level", [1, 4, 7])
def test_the_substep_matrices_carry_no_spectrum_bounds(level):
    # they are built from bands of their own at M's offsets, not from M, so
    # they keep the Jacobi step
    space, a_theta, a_tilde = _scheme_matrices(level)
    assert not hasattr(a_theta, "jacobi_spectrum")
    assert not hasattr(a_tilde, "jacobi_spectrum")
    assert not hasattr(space.stiffness, "jacobi_spectrum")


@pytest.mark.parametrize("level", [3, 4, 5])
def test_the_polynomial_step_agrees_with_a_direct_solve(level):
    space = P1Space(build_uniform_mesh(level))
    rng = np.random.default_rng(level)
    for rhs in (space.load_vector(make_case(1).forcing_f, 0.5),
                space.stiffness @ rng.standard_normal(space.n_dofs),
                rng.standard_normal(space.n_dofs)):
        want = direct_solve(space.mass, rhs)
        got = solve_spd(space.mass, rhs)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


class _KernelCounting:
    """M with its ``matvec_add`` counted: the kernel path, same bits."""

    def __init__(self, matrix):
        self.shape, self.diagonal = matrix.shape, matrix.diagonal
        self.jacobi_spectrum = matrix.jacobi_spectrum
        self.products = 0
        kernel = matrix.matvec_add

        def matvec_add(v, out):
            self.products += 1
            kernel(v, out)
        self.matvec_add = matvec_add


def test_every_mass_solve_of_a_run_takes_at_most_10_iterations(monkeypatch):
    # Jacobi-PCG took 20 to 27 iterations on these systems.  Every stack is
    # one row here, so each mass system goes through solve_spd; a stacked
    # row is that solve's bytes, so the run's systems are the same
    monkeypatch.setattr(fstheta.solver, "STACK_VALUES", 1)
    solve = fstheta.solver.solve_spd

    def counting_solve(matrix, rhs):
        if not hasattr(matrix, "jacobi_spectrum"):
            return solve(matrix, rhs)
        counted = _KernelCounting(matrix)
        x = solve(counted, rhs)
        if counted.products:        # a zero right-hand side makes none
            iterations.append((counted.products - 3) // 3)
        return x

    monkeypatch.setattr(fstheta.solver, "solve_spd", counting_solve)
    for level in range(3, 8):
        iterations = []
        run_single(make_case(1), level)
        # at least the five mass solves of each of the 2^level steps
        assert len(iterations) >= 5 * 2 ** level
        assert 5 <= min(iterations) and max(iterations) <= 10, (
            level, min(iterations), max(iterations))


def test_a_solution_beyond_the_float_range_raises_a_tagged_error():
    # x = M^-1 b is about 128 times b at level 3, so b near 1e308 gives a
    # solution beyond the float range: the scaling back must raise a
    # SolverError that the funnel tags, not overflow with a warning
    space = P1Space(build_uniform_mesh(3))
    rhs = 1e308 * np.random.default_rng(3).uniform(0.5, 1.0, space.n_dofs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as err:
            tagged_solve(space.mass, rhs, 1, "laplacian of the reconstruction")
    assert str(err.value).startswith(
        "step 1, laplacian of the reconstruction: solution exceeds the float "
        "range: max |x| is ")
    assert err.value.iterations >= 1
    # the same system a power of two lower solves, to the scaled bits
    x = solve_spd(space.mass, np.ldexp(rhs, -10))
    assert np.isfinite(x).all() and np.abs(x).max() > 2.0 ** 1013


def _mass_iterations(mass, rhs) -> int:
    counted = _KernelCounting(mass)
    solve_spd(counted, rhs)
    return (counted.products - 3) // 3


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_every_stacked_row_is_the_bytes_of_its_own_solve(monkeypatch, level):
    # twelve rows of one list: smooth, random, one-hot and alternating rows
    # at magnitudes from 1e-300 to 1e300, which stop at different
    # iterations, a zero row, a row with a NaN and one whose solution
    # exceeds the float range.  Each row comes back with the bytes of its
    # own solve_spd, or with the SolverError of its own tagged solve; the
    # zero and the NaN rows never enter a stacked loop
    space = P1Space(build_uniform_mesh(level))
    mass, n = space.mass, space.n_dofs
    rng = np.random.default_rng(level)
    grid = np.arange(n, dtype=float)
    rows = [mass @ np.sin((grid + 1) / (n + 1) * np.pi), rng.standard_normal(n),
            1e-300 * rng.standard_normal(n), 1e300 * rng.uniform(0.5, 1.0, n),
            np.where(grid == n // 2, 1.0, 0.0), (-1.0) ** grid,
            rng.uniform(size=n), np.zeros(n),
            np.where(grid == 0, np.nan, 1.0),
            1e308 * rng.uniform(0.5, 1.0, n),
            rng.standard_normal(n) - 0.5, np.cos(grid)]
    solves = [(rhs, m, f"row {m}") for m, rhs in enumerate(rows, 1)]
    stacked, lockstep = [], StackedSolves._lockstep

    def recording(self, stack):
        stacked.extend(id(rhs) for rhs in stack)
        return lockstep(self, stack)

    monkeypatch.setattr(StackedSolves, "_lockstep", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = StackedSolves(mass).solve(solves)
    assert len(got) == len(rows)
    for x, (rhs, m, tag) in zip(got, solves):
        try:
            want = tagged_solve(mass, rhs, m, tag)
        except SolverError as err:
            assert isinstance(x, SolverError), tag
            assert str(x) == str(err) and str(x).startswith(f"step {m}, {tag}: ")
            continue
        assert isinstance(x, np.ndarray) and x.tobytes() == want.tobytes(), tag
    assert str(got[8]).endswith("right-hand side is not finite")
    assert "solution exceeds the float range" in str(got[9])
    assert got[7].tobytes() == np.zeros(n).tobytes()
    assert id(rows[7]) not in stacked and id(rows[8]) not in stacked
    # every other row went through a stack, and from level 2 on (one dof
    # takes one iteration) the stacked rows stop at different iterations
    assert fstheta.solver.stack_rows(n) > 1
    assert sorted(stacked) == sorted(id(r) for i, r in enumerate(rows)
                                     if i not in (7, 8))
    iterations = {_mass_iterations(mass, rows[i]) for i in (0, 1, 4, 5, 10)}
    assert len(iterations) > (level > 1), iterations


def test_a_lone_row_and_other_matrices_take_the_tagged_solve(monkeypatch):
    # a list of one row is one solve_spd call, and a matrix without
    # jacobi_spectrum never stacks
    calls, solve = [], fstheta.solver.solve_spd

    def counting(matrix, rhs):
        calls.append(matrix)
        return solve(matrix, rhs)

    monkeypatch.setattr(fstheta.solver, "solve_spd", counting)
    space = P1Space(build_uniform_mesh(4))
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(space.n_dofs)
    (x,) = StackedSolves(space.mass).solve([(rhs, 1, "one row")])
    assert x.tobytes() == solve(space.mass, rhs).tobytes()
    assert calls == [space.mass]
    a_theta = _SubstepPair(space, SchemeParams(make_uniform_grid(16, 1.0))).at(1 / 16)[0]
    rows = [rng.standard_normal(space.n_dofs) for _ in range(3)]
    got = StackedSolves(a_theta).solve([(r, 1, "substep") for r in rows])
    assert calls[1:] == [a_theta] * 3
    assert all(x.tobytes() == solve(a_theta, r).tobytes() for x, r in zip(got, rows))


def test_rows_a_stack_leaves_running_get_their_own_tagged_error(monkeypatch):
    # with no iteration allowed the stacked loop finishes no row, so each
    # goes to tagged_solve, which raises its own non-convergence
    monkeypatch.setattr(fstheta.solver, "MAX_ITERATIONS_PER_DOF", 0)
    mass = P1Space(build_uniform_mesh(3)).mass
    rng = np.random.default_rng(2)
    solves = [(rng.standard_normal(mass.shape[0]), m, "row") for m in (1, 2, 3)]
    got = StackedSolves(mass).solve(solves)
    assert [str(x) for x in got] == [
        f"step {m}, row: no convergence within 0 iterations (relative "
        "residual 1.000e+00)" for m in (1, 2, 3)]


_OPTIMIZED_SCRIPT = """
import numpy as np
from fstheta import (P1Space, SchemeParams, SolverError, ThetaScheme,
                     build_uniform_mesh, make_case, make_uniform_grid,
                     solve_spd)

from helpers import allocating_pcg
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
