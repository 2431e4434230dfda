"""P1 Lagrange finite elements on the uniform mesh.

The mass and stiffness matrices are exact (consistent mass, no lumping)
and written directly from the mesh's 7-point stencil; loads of general
fields use a degree-4 triangle rule, error norms against exact solutions a
degree-5 rule, so quadrature error stays well below the O(h^2) signals
measured by the study harness.  The space assembles, evaluates and takes
norms; it solves nothing.  Its band products run scipy's DIA kernel, loaded
from its extension file without importing any scipy module.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Mesh

# ---------------------------------------------------------------------------
# symmetric quadrature rules on the reference triangle
# (barycentric points; weights sum to one, multiply by the element area)

# degree 4, 6 points
_Q4_A1, _Q4_B1, _Q4_W1 = 0.44594849091596489, 0.10810301816807022, 0.22338158967801146
_Q4_A2, _Q4_B2, _Q4_W2 = 0.09157621350977074, 0.81684757298045851, 0.10995174365532187
_Q4_BARY = np.array([
    [_Q4_B1, _Q4_A1, _Q4_A1],
    [_Q4_A1, _Q4_B1, _Q4_A1],
    [_Q4_A1, _Q4_A1, _Q4_B1],
    [_Q4_B2, _Q4_A2, _Q4_A2],
    [_Q4_A2, _Q4_B2, _Q4_A2],
    [_Q4_A2, _Q4_A2, _Q4_B2],
])
_Q4_W = np.array([_Q4_W1] * 3 + [_Q4_W2] * 3)

# degree 5, 7 points
_SQ15 = np.sqrt(15.0)
_Q5_A1, _Q5_B1 = (6.0 + _SQ15) / 21.0, (9.0 - 2.0 * _SQ15) / 21.0
_Q5_A2, _Q5_B2 = (6.0 - _SQ15) / 21.0, (9.0 + 2.0 * _SQ15) / 21.0
_Q5_W1, _Q5_W2 = (155.0 + _SQ15) / 1200.0, (155.0 - _SQ15) / 1200.0
_Q5_BARY = np.array([
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [_Q5_B1, _Q5_A1, _Q5_A1],
    [_Q5_A1, _Q5_B1, _Q5_A1],
    [_Q5_A1, _Q5_A1, _Q5_B1],
    [_Q5_B2, _Q5_A2, _Q5_A2],
    [_Q5_A2, _Q5_B2, _Q5_A2],
    [_Q5_A2, _Q5_A2, _Q5_B2],
])
_Q5_W = np.array([9.0 / 40.0] + [_Q5_W1] * 3 + [_Q5_W2] * 3)

# the most quadrature values in one block of cell rows (256 KB): the span of
# the held weights and the block of ``P1Space.field_error_l2`` and
# ``field_error_h1``
_BLOCK_VALUES = 2 ** 15


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of (x, y, t), vectorized over numpy arrays.

    ``fn`` gets x and y as arrays that broadcast together, not as arrays of
    one shape: ``P1Space`` passes x by cell column and y by cell row, so an
    x-only or y-only part of ``fn`` runs on the distinct coordinates alone.
    It returns values that broadcast with x and y, as a numpy expression in
    them does; a constant, or a function of t alone, may return a scalar.
    """

    name: str
    fn: Callable

    def __call__(self, x, y, t):
        return self.fn(x, y, t)


@dataclass
class FeFunction:
    """Continuous piecewise-linear field with zero boundary trace.

    ``coeffs`` holds the values at ``mesh.interior_vertices``, in order.
    """

    mesh: Mesh
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.mesh.n_dofs,):
            raise ValueError(
                f"coefficient vector of length {self.coeffs.shape} does not "
                f"match the {self.mesh.n_dofs} interior dofs of the mesh")

    def vertex_values(self) -> np.ndarray:
        """Values at all mesh vertices (zeros on the boundary)."""
        full = np.zeros(self.mesh.n_vertices)
        full[self.mesh.interior_vertices] = self.coeffs
        return full

    def _check(self, other: "FeFunction"):
        if other.mesh is not self.mesh:
            raise ValueError("operands live on different meshes")

    def __add__(self, other):
        self._check(other)
        return FeFunction(self.mesh, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return FeFunction(self.mesh, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return FeFunction(self.mesh, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return FeFunction(self.mesh, self.coeffs / float(scalar))

    def __neg__(self):
        return FeFunction(self.mesh, -self.coeffs)


# the 7-point stencil of the uniform mesh: (row, column) shifts between
# neighbouring interior dofs, in ascending offset order
_BAND = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))


def _load_dia_matvec():
    """scipy's DIA kernel ``dia_matvec``, from the ``sparse/_sparsetools``
    extension file of the installed scipy, loaded as ``fstheta._sparsetools``:
    its import as ``scipy.sparse._sparsetools`` runs the ``scipy.sparse``
    package init, about 0.14 s.  A later ``import scipy.sparse`` loads a copy
    of its own of the same library."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy, whose DIA kernel fstheta calls, is not installed")
    directory = os.path.join(spec.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_sparsetools" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("fstheta._sparsetools", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.dia_matvec
    raise ImportError(f"no _sparsetools extension of scipy in {directory}")


dia_matvec = _load_dia_matvec()


class BandMatrix:
    """A matrix of float64 bands ``data`` (bands by columns) at the
    distinct int32 ``offsets``, scipy's DIA layout.  Its products are
    scipy's DIA kernel, which scipy's own ``dia_matrix`` product calls on
    the same zeroed output, so every product has scipy's bits.  ``@`` takes
    a float64 vector of length ``shape[1]`` and raises ``ValueError`` on
    any other operand (the kernel checks nothing and would read past a
    short vector); ``diagonal()`` is the offset-0 band, a view of ``data``.

    ``matvec_add(vector, out)`` adds ``self @ vector`` into ``out``: the
    kernel with this matrix's shape, band shape, offsets and data bound by
    ``functools.partial`` at construction, a C-level callable, so a caller
    that holds zeroed float64 buffers of the matching lengths
    (``solve_spd``, the stacked norms of ``P1Space``) reaches the kernel
    with no Python frame between and nothing checked.  It holds the arrays
    themselves, so a product sees an in-place change to ``data``; the bands
    change only in place."""

    def __init__(self, data: np.ndarray, offsets: np.ndarray,
                 shape: tuple[int, int]):
        self.data, self.offsets, self.shape = data, offsets, shape
        self.matvec_add = functools.partial(dia_matvec, *shape, *data.shape,
                                            offsets, data)
        self._diagonal = data[offsets.tolist().index(0), :min(shape)]

    @property
    def nnz(self) -> int:
        """The entries stored inside the matrix: ``dia_matrix.nnz``."""
        rows, cols = self.shape
        stored = (np.minimum(rows + self.offsets, min(self.data.shape[1], cols))
                  - np.maximum(self.offsets, 0))
        return int(np.maximum(stored, 0).sum())

    def diagonal(self, k: int = 0) -> np.ndarray:
        if k != 0:
            raise ValueError(f"a BandMatrix gives its main diagonal only, not k = {k}")
        return self._diagonal

    def __matmul__(self, vector):
        rows, cols = self.shape
        if not (isinstance(vector, np.ndarray) and vector.dtype == np.float64
                and vector.shape == (cols,)):
            raise ValueError(f"a BandMatrix of shape {self.shape} multiplies "
                             f"only a float64 vector of length {cols}")
        out = np.zeros(rows)
        self.matvec_add(vector, out)
        return out


def _bands(n: int, *stencils) -> list[BandMatrix]:
    """P1 operators on the (n-1)^2 interior dofs of the uniform mesh,
    m = n - 1 per row, one per (diagonal, axis, skew) of ``stencils``, with
    ``diagonal`` at offset 0, ``axis`` at +-1 and +-m and ``skew`` at
    +-(m+1).  Entry j of the band at offset dr * m + dc couples dof
    j = (row, column) with the dof at (row - dr, column - dc), and is 0
    where that lies off the grid.  The bands and offsets are the arrays
    scipy's ``dia_matrix((data, offsets))`` makes of them (a test compares
    them at levels 1 to 7)."""
    m = n - 1
    if m == 1:  # one dof: the offsets +-1 and +-m would coincide
        return [BandMatrix(np.array([[d]]), np.zeros(1, dtype=np.int32), (1, 1))
                for d, _, _ in stencils]
    shifts = np.array(_BAND)[:, :, None]            # (band, row or column, 1)
    idx = np.arange(m)
    inside = (idx >= shifts) & (idx < m + shifts)   # (band, row or column, m)
    on_grid = (inside[:, 0, :, None] & inside[:, 1, None, :]).reshape(
        len(_BAND), m * m)
    values = np.array([[diagonal if dr == dc == 0 else skew if dr == dc
                        else axis for dr, dc in _BAND]
                       for diagonal, axis, skew in stencils])
    # (operator, band, dof): each operator's bands are one contiguous block
    data = np.where(on_grid, values[:, :, None], 0.0)
    offsets = np.array([dr * m + dc for dr, dc in _BAND], dtype=np.int32)
    return [BandMatrix(bands, offsets, (m * m, m * m)) for bands in data]


class P1Space:
    """Dirichlet P1 space on the uniform mesh with its matrices and
    quadrature data, all built in the constructor.  ``mass`` and
    ``stiffness`` are written directly as 7-diagonal ``BandMatrix``
    operators (bands whose vector products are scipy's DIA kernel) from
    the stencil of the mesh.  Every element has the area
    ``h^2 / 4`` and the diameter ``h``, so each rule keeps the weights of
    one block of cell rows and the h-weighted norms are powers of ``h``
    times the plain ones.  The quadrature points are held as two per-line tables per
    rule (x by cell column, y by cell row), and the element gradients and
    facet jumps are differences of the vertex values on the grid, so the
    space stores no per-triangle geometry, per-point coordinates or facet
    data.  ``quad_norm`` and the two error norms form their weighted squares
    in one buffer per call (the error norms a block of cell rows at a time)
    and sum it in one pass, with the bits of the allocating expressions;
    ``quad_norm`` is the one-row case of ``_weighted_norms``, which weights
    and sums the rows of a caller's buffer of squares.

    ``l2_norms``, ``h1_seminorms`` and ``jump_norms`` are the stacked forms
    of ``l2_norm``, ``h1_seminorm`` and ``jump_norm``: they take a sequence
    of coefficient rows and return one value per row, each the bytes of the
    one-function method, which is their one-row case.  The M- and K-norms
    add each row's product into its own row of one zeroed buffer by the
    matrix's held kernel and take the dot products in one ``np.vecdot``
    call; the jump norm writes all rows onto the vertex grid at once and
    sums each facet family's squares in one reduction along the contiguous
    axis of its rows.  So an estimator takes all norms of one kind in one
    call.

    All operations are pure given the immutable mesh, so one instance can
    be shared across concurrent runs and used by the substep worker of
    ``ThetaScheme.iter_steps`` beside the caller's thread.  Methods taking
    an ``FeFunction`` raise ``ValueError`` for a function on another mesh,
    the stacked norms raise it for rows not of shape (k, n_dofs), and
    methods taking degree-4 quadrature values raise it for an array not of
    shape (n_triangles, 6).
    """

    def __init__(self, mesh: Mesh):
        n = mesh.n_cells
        cell = 1.0 / n
        area = 0.5 * cell * cell
        self.mesh = mesh
        self._h = float(np.sqrt(2.0) * cell)
        # element values area / 12 * (1 + delta_ij) of the mass and
        # area * grad phi_i . grad phi_j of the stiffness, summed over the six
        # triangles at a vertex and the two at an edge; the mass diagonal is
        # summed left to right, the order of element-by-element assembly
        x, y = area * (2.0 / 12.0), area * (1.0 / 12.0)
        self.mass, self.stiffness = _bands(
            n, (x + x + x + x + x + x, y + y, y + y), (4.0, -1.0, 0.0))
        # the spectrum of D^-1 M lies in [1/2, 2] at every h: the element
        # mass matrices' does (A. J. Wathen, IMA J. Numer. Anal. 7 (1987))
        self.mass.jacobi_spectrum = (0.5, 2.0)

        # area * w_q for the 2n triangles of each cell row of a block: the
        # most cell rows, a power of two, whose degree-5 values fit in
        # _BLOCK_VALUES (see ``_weighted``)
        rows = n
        while rows > 1 and rows * 2 * n * _Q5_W.size > _BLOCK_VALUES:
            rows //= 2
        self._block_rows = rows
        self._q4_wa = np.tile(area * _Q4_W, 2 * n * rows)
        self._q5_wa = np.tile(area * _Q5_W, 2 * n * rows)
        # rule -> (x of one cell row's points, y of one cell column's points)
        self._lines = _cell_lines(mesh)

    def _check(self, v: FeFunction) -> None:
        if v.mesh is not self.mesh:
            raise ValueError("function lives on a different mesh than the space")

    def _check_quad(self, vals: np.ndarray) -> None:
        expected = (self.mesh.n_triangles, 6)
        if np.shape(vals) != expected:
            raise ValueError(
                f"expected degree-4 quadrature values of shape (n_triangles, 6) "
                f"= {expected}, got {np.shape(vals)}")

    # -- basic constructors -------------------------------------------------

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_dofs

    def function(self, coeffs=None) -> FeFunction:
        if coeffs is None:
            coeffs = np.zeros(self.mesh.n_dofs)
        return FeFunction(self.mesh, coeffs)

    # -- quadrature evaluation ----------------------------------------------

    def eval_q4(self, v: FeFunction) -> np.ndarray:
        """FE values at the degree-4 quadrature points, shape (nt, 6)."""
        self._check(v)
        return v.vertex_values()[self.mesh.triangles] @ _Q4_BARY.T

    def eval_field_q4(self, g: ScalarField, t: float) -> np.ndarray:
        return self._quad_field(g, "q4", t)

    def _quad_field(self, g: ScalarField, rule: str, t: float) -> np.ndarray:
        """g(., t) at the points of the degree-4 ("q4") or degree-5 ("q5")
        rule, one call of g on the per-line tables: x of shape (1, n, 2q)
        and y of shape (n, 1, 2q).  Each value is the one g gives at that
        point's own coordinates, bit for bit.  A result of a smaller
        broadcastable shape is broadcast and copied, so the returned array
        is writable either way; one that does not broadcast to (n, n, 2q)
        raises ``ValueError``."""
        xs, ys = self._lines[rule]
        cells = (ys.shape[0], *xs.shape)
        out = np.asarray(g(xs[None], ys[:, None], t), dtype=float)
        if out.shape != cells:
            try:
                out = np.broadcast_to(out, cells).copy()
            except ValueError:
                raise ValueError(
                    f"field {g.name!r} returned values of shape {out.shape} at "
                    f"the {rule} points, which do not broadcast to the "
                    f"(cell row, cell column, point) shape {cells}") from None
        # (cell row, cell column, triangle type and point) is the triangle
        # order, so this reshapes in place
        return out.reshape(self.mesh.n_triangles, -1)

    def _weighted(self, wa: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """|K| w_q times values of shape (n_triangles, q), the products
        formed one block of cell rows at a time; against the q weights alone
        they would run in inner loops of q elements, about twice as slow,
        and against one cell row's in loops of 2nq."""
        return (wa * vals.reshape(-1, wa.size)).reshape(vals.shape)

    def quad_norm(self, vals: np.ndarray) -> float:
        """L2 norm of a field given by its degree-4 quadrature values."""
        self._check_quad(vals)
        return self._weighted_norms(
            np.square(vals, out=np.empty((1, *vals.shape))))[0]

    def _weighted_norms(self, squares: np.ndarray) -> list[float]:
        """L2 norms of k fields given by the squares of their degree-4
        quadrature values, a C-ordered array of shape (k, n_triangles, 6)
        that is overwritten: |K| w_q times each square is formed in place,
        a block of cell rows at a time, and each field's row is summed in one
        reduction along the contiguous axis, with the bits of a sum over
        that row alone."""
        k = squares.shape[0]
        blocks = squares.reshape(k, -1, self._q4_wa.size)
        np.multiply(self._q4_wa, blocks, out=blocks)
        return np.sqrt(squares.reshape(k, -1).sum(axis=1)).tolist()

    def weighted_quad_norm(self, vals: np.ndarray, power: float) -> float:
        """Broken norm (sum_K h_K^{2 power} ||.||_K^2)^{1/2} from degree-4
        quadrature values: h^power times ``quad_norm``."""
        return self._h ** power * self.quad_norm(vals)

    # -- loads ----------------------------------------------------------------

    def load_vector(self, g: ScalarField, t: float) -> np.ndarray:
        """Interior-dof load b[i] = int g(.,t) phi_i by the degree-4 rule."""
        return self.load_from_quad_values(self.eval_field_q4(g, t))

    def load_from_quad_values(self, vals: np.ndarray) -> np.ndarray:
        self._check_quad(vals)
        contrib = self._weighted(self._q4_wa, vals) @ _Q4_BARY      # (nt, 3)
        b = np.bincount(self.mesh.triangles.ravel(),
                        weights=contrib.ravel(),
                        minlength=self.mesh.n_vertices)
        return b[self.mesh.interior_vertices]

    # -- norms ---------------------------------------------------------------

    def _rows(self, rows, out=None) -> np.ndarray:
        """Coefficient rows stacked into a C-ordered float64 array of shape
        (k, n_dofs), the layout the kernel and the grid scatter take:
        ``out`` when given, else a new array."""
        n = self.mesh.n_dofs
        for row in rows:
            if np.shape(row) != (n,):
                raise ValueError(f"expected coefficient rows of shape (k, {n}), "
                                 f"got a row of shape {np.shape(row)}")
        out = np.empty((len(rows), n)) if out is None else out
        out[...] = rows
        return out

    def _band_norms(self, matrix: BandMatrix, rows) -> list[float]:
        """sqrt(max(v . (matrix @ v), 0)) for each row v: the rows are
        stacked into one half of a zeroed allocation, each product is added
        into its own row of the other half by the matrix's held kernel, and
        the dot products are taken in one ``np.vecdot`` call, each the BLAS
        ``ddot`` that ``v.dot(product)`` makes."""
        stack, products = np.zeros((2, len(rows), self.mesh.n_dofs))
        self._rows(rows, stack)
        matvec_add = matrix.matvec_add
        for v, out in zip(stack, products):
            matvec_add(v, out)
        return [math.sqrt(max(dot, 0.0))
                for dot in np.vecdot(stack, products).tolist()]

    def l2_norms(self, rows) -> list[float]:
        """``l2_norm`` of each row of coefficients, bit for bit."""
        return self._band_norms(self.mass, rows)

    def h1_seminorms(self, rows) -> list[float]:
        """``h1_seminorm`` of each row of coefficients, bit for bit."""
        return self._band_norms(self.stiffness, rows)

    def l2_norm(self, v: FeFunction) -> float:
        self._check(v)
        return self.l2_norms(v.coeffs[None])[0]

    def h1_seminorm(self, v: FeFunction) -> float:
        self._check(v)
        return self.h1_seminorms(v.coeffs[None])[0]

    def weighted_element_norm(self, v: FeFunction, power: float) -> float:
        """(sum_K ||h_K^power v||_K^2)^{1/2}, exact for P1: h^power times
        ``l2_norm``."""
        return self._h ** power * self.l2_norm(v)

    def element_gradients(self, v: FeFunction) -> np.ndarray:
        """Constant gradient of v per triangle, shape (nt, 2)."""
        self._check(v)
        # (cell row, cell column, lower or upper triangle, x or y) is
        # triangle order, so the gradients are written straight into it
        n = self.mesh.n_cells
        grads = np.empty((1, n, n, 2, 2))
        self._cell_gradients(v.coeffs[None], (
            grads[..., 0, 0], grads[..., 0, 1], grads[..., 1, 0], grads[..., 1, 1]))
        return grads.reshape(-1, 2)

    def _cell_gradients(self, rows: np.ndarray,
                        out=None) -> tuple[np.ndarray, ...]:
        """x and y gradients of the lower and then the upper triangle of
        every cell, each of shape (k, n, n) for k rows of coefficients,
        written into the four arrays ``out`` (new contiguous ones when
        omitted): differences of the vertex values V[row, column] times n.
        The interior dofs fill V[1:n, 1:n] in row-major order (``Mesh``)."""
        k, n = rows.shape[0], self.mesh.n_cells
        V = np.zeros((k, n + 1, n + 1))
        np.multiply(rows.reshape(k, n - 1, n - 1), n, out=V[:, 1:-1, 1:-1])
        if out is None:
            out = tuple(np.empty((k, n, n)) for _ in range(4))
        dx_low, dy_low, dx_up, dy_up = out
        np.subtract(V[:, :-1, 1:], V[:, :-1, :-1], out=dx_low)
        np.subtract(V[:, 1:, 1:], V[:, :-1, 1:], out=dy_low)
        np.subtract(V[:, 1:, 1:], V[:, 1:, :-1], out=dx_up)
        np.subtract(V[:, 1:, :-1], V[:, :-1, :-1], out=dy_up)
        return out

    def jump_norms(self, rows, power: float) -> list[float]:
        """``jump_norm(v, power)`` of each row of coefficients, bit for
        bit: the differences are formed on the stack of rows, and each
        facet family's squares are summed in one reduction along the
        contiguous axis of its rows, each row's sum that of its own
        contiguous block."""
        rows = self._rows(rows)
        k, n = rows.shape[0], self.mesh.n_cells
        dx_low, dy_low, dx_up, dy_up = self._cell_gradients(rows)
        # sqrt 2 times the jumps across the diagonals; the jumps across the
        # horizontal edges between cell rows and the vertical edges between
        # cell columns
        diag = (dx_low - dx_up) - (dy_low - dy_up)
        horizontal = dy_up[:, :-1] - dy_low[:, 1:]
        vertical = dx_low[:, :, :-1] - dx_up[:, :, 1:]
        hh, vv, dd = (np.square(jumps, out=jumps).reshape(k, -1)
                      .sum(axis=1).tolist()
                      for jumps in (horizontal, vertical, diag))
        weight = 2.0 * power + 1.0
        axis_weight, diag_weight = (1.0 / n) ** weight, self._h ** weight
        return [math.sqrt(axis_weight * (h + v) + diag_weight * 0.5 * d)
                for h, v, d in zip(hh, vv, dd)]

    def jump_norm(self, v: FeFunction, power: float) -> float:
        """(sum_e h_e^{2 power} J_e^2 |e|)^{1/2} with J_e the jump of the
        normal gradient component across interior facet e.

        On the uniform grid every interior facet is a cell diagonal (length
        h), a horizontal or a vertical edge (length h / sqrt 2), and the
        gradients are differences of the vertex values."""
        self._check(v)
        return self.jump_norms(v.coeffs[None], power)[0]

    # -- errors against exact fields ------------------------------------------

    def field_error_l2(self, g: ScalarField, t: float, v: FeFunction) -> float:
        """||g(.,t) - v|| by the degree-5 rule."""
        self._check(v)
        gq = self._quad_field(g, "q5", t)
        vq = v.vertex_values()[self.mesh.triangles] @ _Q5_BARY.T
        # |K| w_q (g - v)^2 is formed over vq in place, a block of cell rows
        # at a time, as in ``field_error_h1``
        wa = self._q5_wa
        for block in self._row_blocks():
            d = vq[block]
            np.subtract(gq[block], d, out=d)
            np.square(d, out=d)
            np.multiply(wa, d.reshape(-1, wa.size), out=d.reshape(-1, wa.size))
        return float(np.sqrt(vq.sum()))

    def field_error_h1(self, g_grad, t: float, v: FeFunction) -> float:
        """||grad g(.,t) - grad v|| by the degree-5 rule; ``g_grad`` is a
        (d/dx, d/dy) pair of fields."""
        self._check(v)
        gx, gy = g_grad
        gxq = self._quad_field(gx, "q5", t)
        gyq = self._quad_field(gy, "q5", t)
        gv = self.element_gradients(v)
        # |K| w_q |grad g - grad v|^2 is formed a block of cell rows at a time
        # (each gradient subtract broadcasts over the points of its triangle),
        # so the temporaries stay in cache; one sum over the whole array adds
        # in the order of a single pass.  The arrays ``_quad_field`` returns
        # are never written.
        wa = self._q5_wa
        weighted = np.empty(gxq.shape)
        for block in self._row_blocks():
            dx = gxq[block] - gv[block, 0:1]
            dy = gyq[block] - gv[block, 1:2]
            np.square(dx, out=dx)
            np.square(dy, out=dy)
            dx += dy
            np.multiply(wa, dx.reshape(-1, wa.size),
                        out=weighted[block].reshape(-1, wa.size))
        return float(np.sqrt(weighted.sum()))

    def _row_blocks(self):
        """Slices of the triangles of each block of cell rows, the span of
        the held weights."""
        triangles = 2 * self.mesh.n_cells * self._block_rows
        for start in range(0, self.mesh.n_triangles, triangles):
            yield slice(start, start + triangles)


def _cell_lines(mesh: Mesh) -> dict:
    """Per rule ("q4", "q5"), x of one cell row's quadrature points and y of
    one cell column's, each of shape (n, 2 * points).  Triangle
    2 * (row * n + column) + type is the uniform mesh's row-major cell
    layout, so the x of a triangle's corners depends only on its cell column
    and the y only on its cell row, and the points of cell row 0 and cell
    column 0 give every table; a mesh whose corners do not follow that
    layout raises ``ValueError``.  Each point is the same 3-term product
    with the barycentric weights as on the full coordinates, bit for bit."""
    n = mesh.n_cells
    x = mesh.vertices[:, 0][mesh.triangles].reshape(n, n, -1)
    y = mesh.vertices[:, 1][mesh.triangles].reshape(n, n, -1)
    if not ((x == x[0]).all() and (y == y[:, :1]).all()):
        raise ValueError(
            "triangle corners vary along the other cell axis: the mesh does "
            "not follow the row-major cell layout (triangle "
            "2 * (row * n + column) + type) of the uniform mesh")
    # (2n triangles, 3 corners) of cell row 0 and of cell column 0
    x_row, y_column = x[0].reshape(2 * n, 3), y[:, 0].reshape(2 * n, 3)
    return {rule: ((x_row @ bary.T).reshape(n, -1),
                   (y_column @ bary.T).reshape(n, -1))
            for rule, bary in (("q4", _Q4_BARY), ("q5", _Q5_BARY))}

