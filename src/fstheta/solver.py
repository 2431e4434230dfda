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
of a run goes through it with its step and quantity, so a failure names both.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

REL_TOLERANCE = 1e-12
MAX_ITERATIONS_PER_DOF = 10


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
