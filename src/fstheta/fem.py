"""P1 Lagrange finite elements on a fixed mesh.

Matrices are assembled exactly (consistent mass, no lumping); loads and
projections of general fields use a degree-4 triangle rule, error norms
against exact solutions a degree-5 rule, so quadrature error stays well
below the O(h^2) signals measured by the study harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .solver import solve_spd

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


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of (x, y, t), vectorized over numpy arrays.

    ``factors``, when set, is a triple (c, X, Y) of vectorized functions with
    ``fn(x, y, t) == (c(t) * X(x)) * Y(y)`` bit for bit; ``P1Space`` then
    evaluates X and Y on the distinct quadrature coordinates only.  Build
    such a field with ``ScalarField.separable``, which derives ``fn`` from
    the factors so that the two cannot disagree.
    """

    name: str
    fn: Callable
    factors: tuple[Callable, Callable, Callable] | None = None

    def __call__(self, x, y, t):
        return self.fn(x, y, t)

    @classmethod
    def separable(cls, name: str, c: Callable, X: Callable, Y: Callable) -> "ScalarField":
        """The field (c(t) * X(x)) * Y(y), with the products grouped exactly
        so."""
        def fn(x, y, t):
            return (c(t) * X(x)) * Y(y)

        return cls(name, fn, (c, X, Y))


def zero_field(name: str = "zero") -> ScalarField:
    return ScalarField(name, lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)))


@dataclass
class FeFunction:
    """Continuous piecewise-linear field with zero boundary trace.

    ``coeffs`` holds the interior-dof values in ``mesh.dof_map`` order.
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


def _local_mass_pattern() -> np.ndarray:
    # exact P1 mass on a triangle of unit area
    return (np.ones((3, 3)) + np.eye(3)) / 12.0


def _basis_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients of the three barycentric basis functions per triangle,
    shape (n_triangles, 3, 2)."""
    pts = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    g = np.empty((mesh.n_triangles, 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[:, i, 0] = pts[:, j, 1] - pts[:, k, 1]
        g[:, i, 1] = pts[:, k, 0] - pts[:, j, 0]
    g /= (2.0 * mesh.tri_areas)[:, None, None]
    return g


def assemble_mass(mesh: Mesh, dirichlet: bool = True) -> sp.csr_matrix:
    """Exact P1 mass matrix; restricted to interior dofs when ``dirichlet``."""
    tris = mesh.triangles
    local = mesh.tri_areas[:, None, None] * _local_mass_pattern()[None, :, :]
    return _scatter(mesh, tris, local, dirichlet)


def assemble_stiffness(mesh: Mesh, dirichlet: bool = True) -> sp.csr_matrix:
    """Exact P1 stiffness matrix; restricted to interior dofs when
    ``dirichlet``."""
    grads = _basis_gradients(mesh)
    local = np.einsum("tid,tjd->tij", grads, grads) * mesh.tri_areas[:, None, None]
    return _scatter(mesh, mesh.triangles, local, dirichlet)


def _scatter(mesh: Mesh, tris, local, dirichlet: bool) -> sp.csr_matrix:
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    if dirichlet:
        idx = mesh.interior_vertices
        mat = mat[idx][:, idx].tocsr()
    return mat


class P1Space:
    """Dirichlet P1 space on a fixed mesh with cached matrices and
    quadrature data.  ``mass`` and ``stiffness`` are stored as 7-diagonal
    ``dia_matrix`` operators, the band of the uniform mesh.  Every element
    of that mesh has the one diameter ``h``, so the h-weighted norms are
    powers of ``h`` times the plain ones; a mesh whose diameters differ
    raises ``ValueError``.

    All operations are pure given the immutable mesh, so one instance can
    be shared across concurrent runs, and ``run_single`` evaluates a step's
    indicators and error norms on a worker thread while its scheme thread
    solves the next step.  Built on first use, never in the constructor:
    the coordinates of a rule's points on the first evaluation of a field
    without factors at them; the distinct coordinates and their intp gather
    indices, one row per cell column for x and per cell row for y, on the
    first evaluation of a field with factors at them, so a run whose fields
    all have factors stores no full coordinate or index array; and the
    facet-jump operator on the first ``jump_norm``.  Such a first build may
    race between two threads, harmlessly: both build the same table or
    operator, and either stored copy serves every later call.  Methods
    taking an ``FeFunction`` raise
    ``ValueError`` for a function on another mesh, and methods taking
    degree-4 quadrature values raise it for an array not of shape
    (n_triangles, 6).
    """

    def __init__(self, mesh: Mesh):
        h = mesh.tri_diameters[0]
        if not (mesh.tri_diameters == h).all():
            raise ValueError(
                "element diameters differ: the h-weighted norms need the "
                "uniform mesh, whose elements all have one diameter")
        self.mesh = mesh
        self._h = float(h)
        self.mass = assemble_mass(mesh).todia()
        self.stiffness = assemble_stiffness(mesh).todia()

        self._grads = _basis_gradients(mesh)
        self._q4_wa = mesh.tri_areas[:, None] * _Q4_W[None, :]
        self._q5_wa = mesh.tri_areas[:, None] * _Q5_W[None, :]
        self._coords: dict[str, tuple] = {}     # rule -> (x, y)
        self._distinct: dict[str, tuple] = {}   # rule -> (xu, ix, yu, iy)
        self._jump: sp.csr_matrix | None = None

    def _check(self, v: FeFunction) -> None:
        if v.mesh is not self.mesh:
            raise ValueError("function lives on a different mesh than the space")

    def _check_quad(self, vals: np.ndarray) -> None:
        expected = self._q4_wa.shape
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
        rule.  A field with factors is evaluated on the distinct x and y
        coordinates of the points and gathered back, grouped as
        ``ScalarField.separable`` groups it, so the values equal g's own bit
        for bit.  c(t) scales the distinct X values before the gather, which
        gives the same products as scaling the gathered ones; X is gathered
        once per cell column and Y once per cell row, and their broadcast
        product is laid out in triangle order."""
        if g.factors is None:
            if rule not in self._coords:
                self._coords[rule] = self._points(rule)
            return _values(g, *self._coords[rule], t)
        if rule not in self._distinct:
            x, y = self._points(rule)
            n = self.mesh.n_cells
            self._distinct[rule] = (*_distinct_by_line(x, n, "column"),
                                    *_distinct_by_line(y, n, "row"))
        xu, ix, yu, iy = self._distinct[rule]
        c, fx, fy = g.factors
        # (cell row, cell column, triangle type and point) is the triangle
        # order, so the product reshapes to (n_triangles, points) in place
        gx = np.take(c(t) * fx(xu), ix)
        gy = np.take(fy(yu), iy)
        return (gx[None] * gy[:, None]).reshape(self.mesh.n_triangles, -1)

    def _points(self, rule: str) -> tuple[np.ndarray, np.ndarray]:
        """x and y of the points of the degree-4 ("q4") or degree-5 ("q5")
        rule, each of shape (n_triangles, n_points)."""
        bary = _Q4_BARY if rule == "q4" else _Q5_BARY
        pts = self.mesh.vertices[self.mesh.triangles]      # (nt, 3, 2)
        return pts[:, :, 0] @ bary.T, pts[:, :, 1] @ bary.T

    def quad_norm(self, vals: np.ndarray) -> float:
        """L2 norm of a field given by its degree-4 quadrature values."""
        self._check_quad(vals)
        return float(np.sqrt((self._q4_wa * vals ** 2).sum()))

    def weighted_quad_norm(self, vals: np.ndarray, power: float) -> float:
        """Broken norm (sum_K h_K^{2 power} ||.||_K^2)^{1/2} from degree-4
        quadrature values: h^power times ``quad_norm``."""
        return self._h ** power * self.quad_norm(vals)

    # -- loads and projections ----------------------------------------------

    def load_vector(self, g: ScalarField, t: float) -> np.ndarray:
        """Interior-dof load b[i] = int g(.,t) phi_i by the degree-4 rule."""
        return self.load_from_quad_values(self.eval_field_q4(g, t))

    def load_from_quad_values(self, vals: np.ndarray) -> np.ndarray:
        self._check_quad(vals)
        contrib = (self._q4_wa * vals) @ _Q4_BARY          # (nt, 3)
        b = np.bincount(self.mesh.triangles.ravel(),
                        weights=contrib.ravel(),
                        minlength=self.mesh.n_vertices)
        return b[self.mesh.interior_vertices]

    def l2_project(self, g: ScalarField, t: float) -> FeFunction:
        """L2 projection onto the Dirichlet space (mass solve)."""
        return self.project_load(self.load_vector(g, t))

    def project_load(self, load: np.ndarray) -> FeFunction:
        return self.function(solve_spd(self.mass, load))

    def discrete_laplacian(self, v: FeFunction) -> FeFunction:
        """The nonnegative operator d with (d, chi) = (grad v, grad chi) for
        every chi in the space; a mass solve of the stiffness product."""
        self._check(v)
        return self.project_load(self.stiffness @ v.coeffs)

    # -- norms ---------------------------------------------------------------

    def l2_norm(self, v: FeFunction) -> float:
        self._check(v)
        return float(np.sqrt(max(v.coeffs @ (self.mass @ v.coeffs), 0.0)))

    def h1_seminorm(self, v: FeFunction) -> float:
        self._check(v)
        return float(np.sqrt(max(v.coeffs @ (self.stiffness @ v.coeffs), 0.0)))

    def weighted_element_norm(self, v: FeFunction, power: float) -> float:
        """(sum_K ||h_K^power v||_K^2)^{1/2}, exact for P1: h^power times
        ``l2_norm``."""
        return self._h ** power * self.l2_norm(v)

    def element_gradients(self, v: FeFunction) -> np.ndarray:
        """Constant gradient of v per triangle, shape (nt, 2)."""
        self._check(v)
        loc = v.vertex_values()[self.mesh.triangles]
        return np.einsum("ti,tid->td", loc, self._grads)

    def jump_norm(self, v: FeFunction, power: float) -> float:
        """(sum_e h_e^{2 power} J_e^2 |e|)^{1/2} with J_e the jump of the
        normal gradient component across interior facet e."""
        self._check(v)
        if self._jump is None:
            self._jump = _facet_jump_operator(self.mesh, self._grads)
        jump = self._jump @ v.coeffs
        weights = self.mesh.facet_lengths ** (2.0 * power + 1.0)
        return float(np.sqrt(weights @ (jump * jump)))

    # -- errors against exact fields ------------------------------------------

    def field_error_l2(self, g: ScalarField, t: float, v: FeFunction) -> float:
        """||g(.,t) - v|| by the degree-5 rule."""
        self._check(v)
        gq = self._quad_field(g, "q5", t)
        vq = v.vertex_values()[self.mesh.triangles] @ _Q5_BARY.T
        return float(np.sqrt((self._q5_wa * (gq - vq) ** 2).sum()))

    def field_error_h1(self, g_grad, t: float, v: FeFunction) -> float:
        """||grad g(.,t) - grad v|| by the degree-5 rule; ``g_grad`` is a
        (d/dx, d/dy) pair of fields."""
        self._check(v)
        gx, gy = g_grad
        gxq = self._quad_field(gx, "q5", t)
        gyq = self._quad_field(gy, "q5", t)
        gv = self.element_gradients(v)
        # dx and dy are fresh arrays, so they are squared and summed in place;
        # the arrays ``_quad_field`` returns are never written.
        dx = gxq - gv[:, 0:1]
        dy = gyq - gv[:, 1:2]
        np.square(dx, out=dx)
        np.square(dy, out=dy)
        dx += dy
        dx *= self._q5_wa
        return float(np.sqrt(dx.sum()))


def _facet_jump_operator(mesh: Mesh, grads: np.ndarray) -> sp.csr_matrix:
    """n_interior_facets x n_dofs matrix whose row e maps the dof values of v
    to (grad v|_L - grad v|_R) . n_e across facet e, with L, R =
    ``facet_tris[e]`` and n_e = ``facet_normals[e]``.

    Row e stores four entries: the facet's two vertices and the vertex of
    each triangle opposite to it.  A boundary vertex carries no dof; its
    entry is stored as a zero in column 0, so every row has the same length
    and the CSR arrays are written directly, with int32 indices.
    """
    rows = np.arange(mesh.facet_tris.shape[0])
    a, b = mesh.facet_vertices[:, 0], mesh.facet_vertices[:, 1]

    def normal_derivative(tri, i):
        # grad phi_i . n_e on triangle tri, i its local vertex index
        return (grads[tri, i] * mesh.facet_normals).sum(axis=1)

    verts, coeffs = [a, b], [0.0, 0.0]
    for side, sign in ((0, 1.0), (1, -1.0)):
        tri = mesh.facet_tris[:, side]
        local = mesh.triangles[tri]
        ia = np.argmax(local == a[:, None], axis=1)
        ib = np.argmax(local == b[:, None], axis=1)
        io = 3 - ia - ib                            # the vertex opposite the facet
        coeffs[0] = coeffs[0] + sign * normal_derivative(tri, ia)
        coeffs[1] = coeffs[1] + sign * normal_derivative(tri, ib)
        verts.append(local[rows, io])
        coeffs.append(sign * normal_derivative(tri, io))
    dofs = mesh.dof_map[np.column_stack(verts)].astype(np.int32)
    data = np.column_stack(coeffs)
    on_boundary = dofs < 0
    data[on_boundary] = 0.0
    dofs[on_boundary] = 0
    indptr = np.arange(0, dofs.size + 1, 4, dtype=np.int32)
    return sp.csr_matrix((data.ravel(), dofs.ravel(), indptr),
                         shape=(rows.size, mesh.n_dofs))


def _distinct_by_line(coords: np.ndarray, n: int, line: str):
    """Sorted distinct values of the (n_triangles, points) array ``coords``
    and an (n, 2 * points) index that gathers them for one cell ``line``:
    "column" for x, which depends only on the cell column, or "row" for y,
    which depends only on the cell row, given the triangle type and the
    point.  Triangle 2 * (row * n + column) + type is the uniform mesh's
    row-major cell layout; coordinates that vary along the other axis raise
    ``ValueError``.  The index is intp, the dtype ``np.take`` gathers with;
    narrower indices would be converted on every gather."""
    values, inverse = np.unique(coords.ravel(), return_inverse=True)
    full = inverse.astype(np.intp, copy=False).reshape(n, n, -1)
    axis, other = (0, "row") if line == "column" else (1, "column")
    index = full.take(0, axis=axis)          # a copy: ``full`` is not kept
    if not (full == np.expand_dims(index, axis)).all():
        raise ValueError(
            f"quadrature coordinates of one cell {line} vary with the cell "
            f"{other}: the points do not follow the row-major cell layout "
            f"(triangle 2 * (row * n + column) + type) of the uniform mesh")
    return values, index


def _values(g, x, y, t) -> np.ndarray:
    out = np.asarray(g(x, y, t), dtype=float)
    if out.shape != np.shape(x):
        out = np.broadcast_to(out, np.shape(x)).copy()
    return out
