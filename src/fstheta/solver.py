"""Conjugate-gradient solver for the SPD systems produced by P1 assembly.

All systems in this package are either a mass matrix or a shifted
mass-stiffness combination M/c + aK, both symmetric positive definite on
the Dirichlet space, so PCG with a diagonal preconditioner is enough; the
mass matrix, whose Jacobi-scaled spectrum has fixed bounds, takes a
degree-2 polynomial in D^-1 M on top of it.
The solver needs only ``shape``, ``diagonal()`` and ``@`` of its matrix, and
uses ``matvec_add(vector, out)``, which adds the product into ``out``, where
the matrix has it.  The package passes 7-diagonal ``fem.BandMatrix``
operators, bands in scipy's DIA layout whose ``matvec_add`` is scipy's DIA
kernel with the matrix's arguments bound (a C-level callable, so each
product of the loop runs no Python frame of its own); ``@`` calls the same
kernel on a fresh zeroed output.  Their products add diagonal by diagonal
in ascending offset order, so each entry is the same left-to-right sum over
ascending columns that the canonical CSR form gives, bit for bit (a stored
zero of the band adds 0 * x).  The solver reads the attribute by name, so
it does not import ``fem``.

Inner products are taken as ``a.dot(b)`` and norms as
``math.sqrt(v.dot(v))``: ``a @ b`` and ``np.linalg.norm`` reach the same
BLAS ``ddot`` (``norm`` of a real vector is ``sqrt(v.dot(v))``), so the
bytes are the same, without their per-call dispatch, which at level 4 cost
about as much again as the ``ddot`` itself.

On the uniform mesh M, K and both substep matrices have a constant
diagonal d at every level and for every theta and alpha1.  There the
Jacobi step is one scalar, z = r (1/d) with 1/d held as a 0-d array, and
r.z = |r|^2 / d, so the loop stops on r.z <= tol^2 / d without the
separate |r|^2 of every iteration.  Each entry of z is the same IEEE
product as with a vector of reciprocals, so the iterates keep their bits;
the two stopping tests are equal up to rounding at the tolerance boundary
only, and tests compare hundreds of solves with the loop that stops on
|r| byte for byte.  Any other diagonal (the dense and CSR inputs of the
tests) keeps a vector of reciprocals and the |r| <= tol test.  The
benchmark's gate references record the substep iterates' rounding, so any
change to the order of a sum on that path waits for references that a
benchmark change regenerates.  The mass solves are held only to the
gate's 1e-9, which the polynomial step keeps: ``P1Space.mass`` carries
``jacobi_spectrum = (0.5, 2.0)``, which the solver reads by name, as it
reads ``matvec_add``, and no other matrix carries it.

``tagged_solve`` is the package's one caller of ``solve_spd``: every solve
of a run that is not part of a stack goes through it with its step and
quantity, so a failure names both.  ``StackedSolves`` takes lists of mass
solves and solves them in lockstep stacks of up to ``stack_rows(n)`` rows:
each product is one call of the DIA kernel on M's bands tiled once per row
(the band entries that couple two blocks are the grid's off-grid zeros,
so each block's sums keep M's bits), each set of inner products one
``np.vecdot`` call (the BLAS ``ddot`` of each row), and each row is
scaled, stopped and re-checked by ``solve_spd``'s own rules, so it returns
``solve_spd``'s bytes.  Any row the stack does not finish goes to
``tagged_solve``, which returns it or raises its error.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

REL_TOLERANCE = 1e-12
MAX_ITERATIONS_PER_DOF = 10
# The most values, rows times dofs, that one lockstep stack of
# ``StackedSolves`` holds.  At level 4 (225 dofs) a stack takes 18 rows, and
# each of its 8 or 9 iterations makes 19 numpy calls for all of them where
# one-row solves make about 13 per row; at level 5 its four rows run about
# even with one-row solves, and from level 6 (3,969 dofs) on, where a
# four-row stack is slower, every stack is one row (README, Notes).
STACK_VALUES = 4096


class SolverError(RuntimeError):
    """Conjugate gradients failed; carries the final relative residual."""

    def __init__(self, message, residual=float("nan"), iterations=0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def solve_spd(matrix, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by diagonally preconditioned conjugate
    gradients.

    Returns x with ||matrix @ x - rhs||_2 <= REL_TOLERANCE * ||rhs||_2,
    re-checked against the true residual after convergence, and raises
    SolverError after MAX_ITERATIONS_PER_DOF * n iterations without
    convergence.  The iteration is deterministic (fixed summation order), a
    zero right-hand side returns an exact zero vector without iterating, and
    a non-finite one, or a non-finite or nonpositive diagonal entry, raises
    without iterating.  A curvature ``p @ matrix @ p`` that is not positive
    (NaN included) raises at its iteration.  The returned x owns its data.

    Any other rhs is solved at unit scale, on ``np.ldexp(rhs, -e)`` for e
    the binary exponent of max|rhs|, and x is returned as ``np.ldexp(x,
    e)``.  Both scalings are exact, so ``solve_spd(A, ldexp(b, j))`` is
    ``ldexp(solve_spd(A, b), j)`` bit for bit while b and x stay normal, and
    no inner product under- or overflows.  Error messages report the
    curvature and residuals of the scaled system.

    The loop holds [x, s] with s = -r and [p, A p] in two buffers of
    length 2n, so one scaling of [p, A p] by alpha and one addition update
    x and s together.  Each product zeroes its half of the buffer and adds
    A p into it by the matrix's ``matvec_add`` (``fem.BandMatrix``), called
    straight from the loop; alpha and beta are held as 0-d arrays and set
    in place, and every update writes into a held buffer, so the loop
    allocates nothing per iteration (a test checks it with ``tracemalloc``)
    and hands numpy no Python float.  Any other matrix is wrapped once, at
    entry, by an adapter that adds ``matrix @ v`` into the buffer it is
    given.
    Every operation on s is the exact IEEE negation of the one on r:
    (-a)(-b) = ab in the dot products, -r + y = -(r - y), and
    beta p - (-z) = beta p + z.  So the iterates keep the bits of the loop
    that forms every scaled vector, z and p afresh on r itself.

    A constant diagonal d (every system of the package) takes the Jacobi
    step z = r / d as one 0-d scale and stops on r.z <= tol^2 / d, which
    needs no inner product beyond the r.z the next direction uses; any
    other diagonal stops on ||r|| <= tol.  A matrix with a constant
    diagonal that also carries ``jacobi_spectrum = (low, high)``, bounds on
    the spectrum of D^-1 A (``P1Space.mass``), takes the polynomial step
    z = d^2 q(A / d) r instead, for the monic quadratic q(lambda) =
    lambda^2 + a1 lambda + a0 of ``_chebyshev_quadratic``: -u = a1 d s,
    into which ``matvec_add`` adds A s, and -z = a0 d^2 s, into which it
    adds A(-u), four calls into buffers held before the loop.  An adapter
    adds the finished ``matrix @ v`` where the kernel adds band by band, so
    a matrix with the bounds that offers only ``@`` solves to the same
    iterates up to rounding.  lambda q(lambda) is within
    1/T3((high + low)/(high - low)) of a constant on [low, high] (1/13.5 on
    [1/2, 2]), so the mass solves take 7 to 9 iterations at every level
    instead of 14 to 27, for three products each.  r.z >= d^2 q_min ||r||^2
    on that spectrum, so the loop stops on r.z <= tol^2 d^2 q_min, with no
    inner product beyond r.z.

    The true-residual re-check adds its product into a zeroed held buffer
    through the same ``matvec_add``, so a matrix that offers only ``@``
    sees one product per iteration (three with the polynomial step) and one
    for the re-check.  A solution whose scaling back would overflow raises
    a SolverError instead of returning inf entries.
    """
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"rhs must be a vector, got shape {b.shape}")
    n = b.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match rhs of length {n}")

    # NaN propagates through max, so one test covers every entry
    b_max = float(np.abs(b).max(initial=0.0))
    if b_max == 0.0:
        return np.zeros(n)
    if not b_max < math.inf:
        raise SolverError("right-hand side is not finite", iterations=0)
    # ldexp, unlike a product with 2.0 ** -e, stays exact where 2^e overflows
    e = math.frexp(b_max)[1]
    b = np.ldexp(b, -e)
    b_norm = math.sqrt(b.dot(b))
    tol = REL_TOLERANCE * b_norm
    max_it = MAX_ITERATIONS_PER_DOF * n

    diag = np.asarray(matrix.diagonal(), dtype=float)
    d_min, d_max = diag.min(), diag.max()
    # NaN propagates through min and max, so one test covers every entry
    if not (d_min > 0.0 and d_max < math.inf):
        if not np.all(np.isfinite(diag)):
            raise SolverError("non-finite diagonal entry")
        raise SolverError("nonpositive diagonal entry; matrix is not SPD")
    if d_min == d_max:
        # one Jacobi scale for every entry, held as a 0-d array (a Python
        # float costs numpy a conversion per multiply), and the stop on
        # r.z = |r|^2 / d
        inv_diag = np.array(1.0 / d_min)
        rz_tol = tol * tol / float(d_min)
        spectrum = getattr(matrix, "jacobi_spectrum", None)
    else:
        inv_diag = 1.0 / diag
        rz_tol = spectrum = None

    matvec_add = getattr(matrix, "matvec_add", None)
    if matvec_add is None:
        def matvec_add(v, out):
            out += matrix @ v

    xs = np.zeros(2 * n)
    x, s = xs[:n], xs[n:]
    np.negative(b, out=s)
    pq = np.empty(2 * n)
    p, q = pq[:n], pq[n:]
    scaled = np.empty(2 * n)
    neg_z = np.empty(n)
    # every ufunc in the loop takes its output as the third positional
    # argument, which numpy parses faster than the keyword
    add, subtract, multiply = np.add, np.subtract, np.multiply
    if spectrum is None:
        precondition = partial(multiply, s, inv_diag, neg_z)  # -z = s / d
    else:
        a1, a0, q_min = _chebyshev_quadratic(*spectrum)
        d = float(d_min)
        a1, a0 = np.array(a1 * d), np.array(a0 * d * d)
        rz_tol = tol * tol * q_min * d * d
        neg_u = np.empty(n)

        def precondition():
            # -u = a1 s + A s, then -z = a0 s + A(-u), each product added
            # into the scaled s its buffer holds
            multiply(s, a1, neg_u)
            matvec_add(s, neg_u)
            multiply(s, a0, neg_z)
            matvec_add(neg_u, neg_z)
    precondition()
    np.negative(neg_z, out=p)
    alpha, beta = np.empty(()), np.empty(())
    p_dot, s_dot, q_fill = p.dot, s.dot, q.fill
    rz = float(s_dot(neg_z))
    for it in range(1, max_it + 1):
        q_fill(0.0)
        matvec_add(p, q)
        pAp = float(p_dot(q))
        if not pAp > 0.0:
            raise SolverError(
                f"search direction with curvature {pAp:.3e}, not positive; "
                "matrix is not SPD",
                residual=math.sqrt(s_dot(s)) / b_norm, iterations=it)
        alpha[()] = rz / pAp
        add(xs, multiply(pq, alpha, scaled), xs)
        precondition()
        rz_new = float(s_dot(neg_z))
        if (rz_new <= rz_tol if rz_tol is not None
                else math.sqrt(s_dot(s)) <= tol):
            r = scaled[:n]
            r.fill(0.0)
            matvec_add(x, r)
            r -= b
            true_res = math.sqrt(r.dot(r))
            if not true_res <= 10.0 * tol:
                raise SolverError(
                    f"recurrence residual {math.sqrt(s_dot(s)):.3e} disagrees "
                    f"with true residual {true_res:.3e}",
                    residual=true_res / b_norm, iterations=it)
            # x 2^e overflows where max|x| has a binary exponent above
            # 1024 - e, which takes e > 0
            if e > 0:
                x_max = max(float(x.max()), -float(x.min()))
                if math.frexp(x_max)[1] + e > 1024:
                    raise SolverError(
                        f"solution exceeds the float range: max |x| is "
                        f"{x_max:.3e} * 2^{e}",
                        residual=true_res / b_norm, iterations=it)
            return np.ldexp(x, e)
        beta[()] = rz_new / rz
        subtract(multiply(p, beta, p), neg_z, p)
        rz = rz_new
    res = math.sqrt(s_dot(s))
    raise SolverError(
        f"no convergence within {max_it} iterations "
        f"(relative residual {res / b_norm:.3e})",
        residual=res / b_norm, iterations=max_it)


def _chebyshev_quadratic(low: float, high: float) -> tuple[float, float, float]:
    """(a1, a0, q_min) of the monic quadratic q(lambda) = lambda^2 +
    a1 lambda + a0 with 1 - lambda p(lambda) = T3((high + low - 2 lambda) /
    (high - low)) / T3((high + low) / (high - low)) for p a multiple of q,
    and q_min, the least value of q on [low, high]: its vertex 3 (low +
    high) / 4, or high.  On [1/2, 2], q = 365/256 p with
    p(lambda) = (1092 - 960 lambda + 256 lambda^2) / 365: a1 = -3.75,
    a0 = 4.265625 and q_min = 0.75, each exact (O. G. Johnson,
    C. A. Micchelli and G. Paul, SIAM J. Numer. Anal. 20 (1983))."""
    total, width = low + high, high - low
    a1 = -1.5 * total
    a0 = 0.1875 * (4.0 * total * total - width * width)
    least = min(0.75 * total, high)
    return a1, a0, least * (least + a1) + a0


def tagged_solve(matrix, rhs, n: int | None, tag: str) -> np.ndarray:
    """``solve_spd(matrix, rhs)``, a failure re-raised as a SolverError
    whose message starts "step n, tag: " ("tag: " for n None, a solve of
    no step) and which keeps the residual and iteration count."""
    try:
        return solve_spd(matrix, rhs)
    except SolverError as err:
        where = tag if n is None else f"step {n}, {tag}"
        raise SolverError(f"{where}: {err}", residual=err.residual,
                          iterations=err.iterations) from err


def stack_rows(n: int) -> int:
    """The rows of n values that one lockstep stack holds, at least one."""
    return max(1, STACK_VALUES // n)


class StackedSolves:
    """The tagged solves of lists of right-hand sides of one matrix.

    ``solve(solves)`` is ``tagged_solve(matrix, rhs, n, tag)`` of each
    (rhs, n, tag) of ``solves``: a list of each solution, or of the tagged
    SolverError it raises, in order; nothing is raised, so a caller can
    raise each error where its step is due.  A matrix with a constant
    diagonal that carries ``jacobi_spectrum`` (the band ``P1Space.mass``,
    whose bands never change) takes its rows with a nonzero finite
    right-hand side, in order, in lockstep stacks of up to ``stack_rows(n)``
    rows, each row returned with the bytes ``solve_spd`` gives it.  A zero
    or non-finite row, a stack of one row, a row that a stack does not
    finish and every row of another matrix go to ``tagged_solve``, which
    returns exact zeros or raises without iterating on the first two.

    From its first stack on the object holds the matrix's bands tiled
    ``stack_rows(n)`` times and the buffers of the stacked loop, so each
    caller that solves lists in turn (a step loop, an estimator engine)
    holds one, for one thread at a time."""

    def __init__(self, matrix):
        self.matrix = matrix
        self._rows = 0
        self._kernels = {}

    def solve(self, solves) -> list:
        solves = list(solves)
        matrix, out = self.matrix, [None] * len(solves)
        diag = matrix.diagonal()
        size = (stack_rows(matrix.shape[0])
                if getattr(matrix, "jacobi_spectrum", None) is not None
                and diag.min() == diag.max() and len(solves) > 1 else 1)
        if size > 1:
            # NaN propagates through max, so the test covers every entry
            b_max = np.abs(np.stack([rhs for rhs, _, _ in solves])).max(axis=1)
            rows = np.flatnonzero((b_max > 0.0) & (b_max < math.inf))
            for start in range(0, len(rows), size):
                chunk = rows[start:start + size]
                if len(chunk) > 1:
                    for i, x in zip(chunk, self._lockstep(
                            [solves[i][0] for i in chunk])):
                        out[i] = x
        for i, (rhs, n, tag) in enumerate(solves):
            if out[i] is None:
                try:
                    out[i] = tagged_solve(matrix, rhs, n, tag)
                except SolverError as err:
                    out[i] = err
        return out

    def _hold(self, r: int) -> None:
        """Room for stacks of r rows: the tiled bands and the loop's
        buffers, built when a stack first needs more rows than they have."""
        if r <= self._rows:
            return
        matrix = self.matrix
        rows, n = max(r, stack_rows(matrix.shape[0])), matrix.shape[0]
        self._rows, self._kernels = rows, {}
        self._tiled = np.tile(matrix.data, (1, rows))
        self._b, self._neg_u, self._neg_z = (np.empty((rows, n))
                                             for _ in range(3))
        self._xs, self._pq, self._scaled = (np.empty((2, rows, n))
                                            for _ in range(3))

    def _kernel(self, r: int):
        """``matvec_add`` of the tiled matrix of r blocks, on flat vectors:
        a matrix of the type of the one solved, on the tiled bands."""
        if r not in self._kernels:
            n = self.matrix.shape[0]
            self._kernels[r] = type(self.matrix)(
                self._tiled, self.matrix.offsets, (r * n, r * n)).matvec_add
        return self._kernels[r]

    def _lockstep(self, rows) -> list:
        """The solution with ``solve_spd``'s bytes of each of the nonzero,
        finite right-hand sides ``rows`` that one lockstep loop finishes,
        and None for each it leaves to ``solve_spd``: every row left running
        when some row's curvature is not positive or the iteration cap is
        reached, and a row whose true-residual re-check or scaling back
        fails.  The matrix has a constant diagonal d and
        ``jacobi_spectrum``.

        The loop is ``solve_spd``'s polynomial loop on r rows at once, each
        row at its own unit scale and with its own stop
        r.z <= tol^2 d^2 q_min.  A row that stops is frozen: from then on
        its alpha and beta are 0, so its x and s keep their values (x,
        which starts at +0, never holds -0, and x + 0 p is x), its p is
        -(-z) of a fixed s and every product stays finite.  Entries of a
        tiled product that couple two rows are exact zeros times finite
        values, so they change no sum but the sign of a zero one."""
        matrix, r = self.matrix, len(rows)
        self._hold(r)
        b = np.stack(rows, out=self._b[:r])
        b_max = np.abs(b).max(axis=1)
        e = np.frexp(b_max)[1]
        np.ldexp(b, -e[:, None], out=b)
        tol = REL_TOLERANCE * np.sqrt(np.vecdot(b, b))
        d = float(matrix.diagonal()[0])
        a1, a0, q_min = _chebyshev_quadratic(*matrix.jacobi_spectrum)
        a1, a0 = np.array(a1 * d), np.array(a0 * d * d)
        # per-row values as (r, 1) columns, which broadcast over the rows
        rz_tol = (tol * tol * q_min * d * d)[:, None]

        xs, pq = self._xs[:, :r], self._pq[:, :r]
        scaled = self._scaled[:, :r]
        (x, s), (p, q) = xs, pq
        neg_u, neg_z = self._neg_u[:r], self._neg_z[:r]
        flat_x, flat_s, flat_p, flat_q, flat_u, flat_z = (
            a.reshape(-1) for a in (x, s, p, q, neg_u, neg_z))
        matvec_add = self._kernel(r)
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        vecdot = np.vecdot

        def precondition():
            multiply(s, a1, neg_u)
            matvec_add(flat_s, flat_u)
            multiply(s, a0, neg_z)
            matvec_add(flat_u, flat_z)

        x.fill(0.0)
        np.negative(b, out=s)
        precondition()
        np.negative(neg_z, out=p)
        rz, rz_new, pAp = (np.empty((r, 1)) for _ in range(3))
        vecdot(s, neg_z, out=rz[:, 0])
        # alpha and beta stay 0 in a frozen row, and its stop never holds again
        alpha, beta = np.zeros((r, 1)), np.zeros((r, 1))
        running = np.ones((r, 1), dtype=bool)
        for _ in range(MAX_ITERATIONS_PER_DOF * matrix.shape[1]):
            flat_q.fill(0.0)
            matvec_add(flat_p, flat_q)
            vecdot(p, q, out=pAp[:, 0])
            if not np.all(pAp > 0.0, where=running):
                break
            divide(rz, pAp, alpha, where=running)
            add(xs, multiply(pq, alpha, scaled), xs)
            precondition()
            vecdot(s, neg_z, out=rz_new[:, 0])
            stopped = rz_new <= rz_tol
            if stopped.any():
                running &= ~stopped
                alpha[stopped] = beta[stopped] = 0.0
                rz_tol[stopped] = -math.inf
                if not running.any():
                    break
            divide(rz_new, rz, beta, where=running)
            subtract(multiply(p, beta, p), neg_z, p)
            rz, rz_new = rz_new, rz

        # the re-check of every stopped row, whose x is frozen since its stop
        res = scaled[0]
        res.fill(0.0)
        matvec_add(flat_x, res.reshape(-1))
        res -= b
        done = ~running[:, 0] & (np.sqrt(vecdot(res, res)) <= 10.0 * tol)
        # x 2^e overflows where max|x| has a binary exponent above 1024 - e
        done &= (e <= 0) | (np.frexp(np.abs(x).max(axis=1))[1] + e <= 1024)
        return [np.ldexp(x[i], e[i]) if done[i] else None for i in range(r)]
