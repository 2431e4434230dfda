"""Conjugate-gradient solver for the SPD systems produced by P1 assembly.

All systems in this package are either a mass matrix or a shifted
mass-stiffness combination M/c + aK, both symmetric positive definite on
the Dirichlet space, so plain PCG with a diagonal preconditioner is enough.
The solver needs only ``shape``, ``diagonal()`` and ``@`` of its matrix, and
uses ``matvec_into(vector, out)`` where the matrix has it.  The package
passes 7-diagonal ``fem.BandMatrix`` operators, ``dia_matrix`` whose vector
products call scipy's DIA kernel directly, into a fresh output for ``@`` and
into the solver's held buffer for ``matvec_into``: their products add
diagonal by diagonal in ascending offset order, so each entry is the same
left-to-right sum over ascending columns that the canonical CSR form gives,
bit for bit (a stored zero of the band adds 0 * x).  The solver reads the
method by name, so it does not import ``fem``.

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
benchmark's gate references record these iterates' rounding, so any
change to the order of a sum in the loop waits for references that a
benchmark change regenerates.
"""

from __future__ import annotations

import math

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

    The loop holds [x, s] with s = -r and [p, A p] in two buffers of
    length 2n, so one scaling of [p, A p] by alpha and one addition update
    x and s together.  A matrix with ``matvec_into(vector, out)``
    (``fem.BandMatrix``) writes A p into its half of the buffer, and the
    loop allocates nothing per iteration (a test checks it with
    ``tracemalloc``); any other matrix's ``matrix @ p`` is copied there.
    Every operation on s is the exact IEEE negation of the one on r:
    (-a)(-b) = ab in the dot products, -r + y = -(r - y), and
    beta p - (-z) = beta p + z.  So the iterates keep the bits of the loop
    that forms every scaled vector, z and p afresh on r itself.

    A constant diagonal d (every system of the package) takes the Jacobi
    step as one 0-d scale and stops on r.z <= tol^2 / d, which needs no
    inner product beyond the r.z the next direction uses; any other
    diagonal stops on ||r|| <= tol.  The true-residual re-check writes its
    product into a held buffer where the matrix has ``matvec_into``, and
    takes ``matrix @ x`` otherwise, so a matrix that offers only ``@``
    sees one product per iteration and one for the re-check.
    """
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"rhs must be a vector, got shape {b.shape}")
    n = b.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match rhs of length {n}")

    b_norm = math.sqrt(b.dot(b))
    if b_norm == 0.0:
        return np.zeros(n)
    if not math.isfinite(b_norm):
        raise SolverError("right-hand side is not finite", iterations=0)
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
    else:
        inv_diag = 1.0 / diag
        rz_tol = None

    xs = np.zeros(2 * n)
    x, s = xs[:n], xs[n:]
    np.negative(b, out=s)
    pq = np.empty(2 * n)
    p, q = pq[:n], pq[n:]
    scaled = np.empty(2 * n)
    neg_z = np.multiply(s, inv_diag)
    np.negative(neg_z, out=p)
    matvec_into = getattr(matrix, "matvec_into", None)
    p_dot, s_dot, multiply = p.dot, s.dot, np.multiply
    rz = float(s_dot(neg_z))
    for it in range(1, max_it + 1):
        if matvec_into is None:
            q[...] = matrix @ p
        else:
            matvec_into(p, q)
        pAp = float(p_dot(q))
        if not pAp > 0.0:
            raise SolverError(
                f"search direction with curvature {pAp:.3e}, not positive; "
                "matrix is not SPD",
                residual=math.sqrt(s_dot(s)) / b_norm, iterations=it)
        xs += multiply(rz / pAp, pq, out=scaled)
        multiply(s, inv_diag, out=neg_z)
        rz_new = float(s_dot(neg_z))
        if (rz_new <= rz_tol if rz_tol is not None
                else math.sqrt(s_dot(s)) <= tol):
            if matvec_into is None:
                r = matrix @ x - b
            else:
                r = scaled[:n]
                matvec_into(x, r)
                r -= b
            true_res = math.sqrt(r.dot(r))
            if not true_res <= 10.0 * tol + 1e-300:
                raise SolverError(
                    f"recurrence residual {math.sqrt(s_dot(s)):.3e} disagrees "
                    f"with true residual {true_res:.3e}",
                    residual=true_res / b_norm, iterations=it)
            return x.copy()
        p *= rz_new / rz
        p -= neg_z
        rz = rz_new
    res = math.sqrt(s_dot(s))
    raise SolverError(
        f"no convergence within {max_it} iterations "
        f"(relative residual {res / b_norm:.3e})",
        residual=res / b_norm, iterations=max_it)
