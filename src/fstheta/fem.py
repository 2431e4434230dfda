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

    def copy(self) -> "FeFunction":
        return FeFunction(self.mesh, self.coeffs.copy())

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

    def save_text(self, path) -> None:
        np.savetxt(path, self.coeffs)


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
    quadrature data.

    All operations are pure given the immutable mesh, so one instance can
    be shared across concurrent runs.  The distinct coordinates of a rule's
    points are tabulated on the first evaluation of a field with factors at
    them; two concurrent first calls build the same table.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.mass = assemble_mass(mesh)
        self.stiffness = assemble_stiffness(mesh)

        self._grads = _basis_gradients(mesh)
        pts = mesh.vertices[mesh.triangles]      # (nt, 3, 2)
        self._q4_x = (pts[:, :, 0] @ _Q4_BARY.T)
        self._q4_y = (pts[:, :, 1] @ _Q4_BARY.T)
        self._q4_wa = mesh.tri_areas[:, None] * _Q4_W[None, :]
        self._q5_x = (pts[:, :, 0] @ _Q5_BARY.T)
        self._q5_y = (pts[:, :, 1] @ _Q5_BARY.T)
        self._q5_wa = mesh.tri_areas[:, None] * _Q5_W[None, :]
        self._distinct: dict[str, tuple] = {}   # rule -> (xu, ix, yu, iy)

    # -- basic constructors -------------------------------------------------

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_dofs

    def function(self, coeffs=None) -> FeFunction:
        if coeffs is None:
            coeffs = np.zeros(self.mesh.n_dofs)
        return FeFunction(self.mesh, coeffs)

    def nodal_interpolant(self, g: ScalarField, t: float) -> FeFunction:
        xy = self.mesh.vertices[self.mesh.interior_vertices]
        return self.function(_values(g, xy[:, 0], xy[:, 1], t))

    # -- quadrature evaluation ----------------------------------------------

    def eval_q4(self, v: FeFunction) -> np.ndarray:
        """FE values at the degree-4 quadrature points, shape (nt, 6)."""
        return v.vertex_values()[self.mesh.triangles] @ _Q4_BARY.T

    def eval_field_q4(self, g: ScalarField, t: float) -> np.ndarray:
        return self._quad_field(g, "q4", t)

    def _quad_field(self, g: ScalarField, rule: str, t: float) -> np.ndarray:
        """g(., t) at the points of the degree-4 ("q4") or degree-5 ("q5")
        rule.  A field with factors is evaluated on the distinct x and y
        coordinates of the points and gathered back, grouped as
        ``ScalarField.separable`` groups it, so the values equal g's own bit
        for bit."""
        x, y = (self._q4_x, self._q4_y) if rule == "q4" else (self._q5_x, self._q5_y)
        if g.factors is None:
            return _values(g, x, y, t)
        if rule not in self._distinct:
            self._distinct[rule] = (*_distinct_with_index(x), *_distinct_with_index(y))
        xu, ix, yu, iy = self._distinct[rule]
        c, fx, fy = g.factors
        return (c(t) * np.take(fx(xu), ix)) * np.take(fy(yu), iy)

    def quad_norm(self, vals: np.ndarray) -> float:
        """L2 norm of a field given by its degree-4 quadrature values."""
        return float(np.sqrt((self._q4_wa * vals ** 2).sum()))

    def weighted_quad_norm(self, vals: np.ndarray, power: float) -> float:
        """Broken norm (sum_K h_K^{2 power} ||.||_K^2)^{1/2} from degree-4
        quadrature values."""
        w = self.mesh.tri_diameters ** (2.0 * power)
        return float(np.sqrt((w[:, None] * self._q4_wa * vals ** 2).sum()))

    # -- loads and projections ----------------------------------------------

    def load_vector(self, g: ScalarField, t: float) -> np.ndarray:
        """Interior-dof load b[i] = int g(.,t) phi_i by the degree-4 rule."""
        return self.load_from_quad_values(self.eval_field_q4(g, t))

    def load_from_quad_values(self, vals: np.ndarray) -> np.ndarray:
        contrib = (self._q4_wa * vals) @ _Q4_BARY          # (nt, 3)
        b = np.bincount(self.mesh.triangles.ravel(),
                        weights=contrib.ravel(),
                        minlength=self.mesh.n_vertices)
        return b[self.mesh.interior_vertices]

    def l2_project(self, g: ScalarField, t: float) -> FeFunction:
        """L2 projection onto the Dirichlet space (mass solve)."""
        return self.project_load(self.load_vector(g, t))

    def project_quad_values(self, vals: np.ndarray) -> FeFunction:
        return self.project_load(self.load_from_quad_values(vals))

    def project_load(self, load: np.ndarray) -> FeFunction:
        return self.function(solve_spd(self.mass, load))

    def discrete_laplacian(self, v: FeFunction) -> FeFunction:
        """The nonnegative operator d with (d, chi) = (grad v, grad chi) for
        every chi in the space; a mass solve of the stiffness product."""
        return self.project_load(self.stiffness @ v.coeffs)

    # -- norms ---------------------------------------------------------------

    def l2_norm(self, v: FeFunction) -> float:
        return float(np.sqrt(max(v.coeffs @ (self.mass @ v.coeffs), 0.0)))

    def h1_seminorm(self, v: FeFunction) -> float:
        return float(np.sqrt(max(v.coeffs @ (self.stiffness @ v.coeffs), 0.0)))

    def weighted_element_norm(self, v, power: float) -> float:
        """(sum_K ||h_K^power v||_K^2)^{1/2}.

        ``v`` is an FeFunction (element integrals exact for P1) or an array
        of per-element constants.
        """
        h2p = self.mesh.tri_diameters ** (2.0 * power)
        if isinstance(v, FeFunction):
            loc = v.vertex_values()[self.mesh.triangles]   # (nt, 3)
            integ = self.mesh.tri_areas / 12.0 * (
                (loc ** 2).sum(axis=1) + loc.sum(axis=1) ** 2)
        else:
            c = np.asarray(v, dtype=float)
            integ = self.mesh.tri_areas * c ** 2
        return float(np.sqrt((h2p * integ).sum()))

    def element_gradients(self, v: FeFunction) -> np.ndarray:
        """Constant gradient of v per triangle, shape (nt, 2)."""
        loc = v.vertex_values()[self.mesh.triangles]
        return np.einsum("ti,tid->td", loc, self._grads)

    def jump_norm(self, v: FeFunction, power: float) -> float:
        """(sum_e h_e^{2 power} J_e^2 |e|)^{1/2} with J_e the jump of the
        normal gradient component across interior facet e."""
        m = self.mesh
        grads = self.element_gradients(v)
        gl = grads[m.facet_tris[:, 0]]
        gr = grads[m.facet_tris[:, 1]]
        jump = ((gl - gr) * m.facet_normals).sum(axis=1)
        contrib = m.facet_lengths ** (2.0 * power) * jump ** 2 * m.facet_lengths
        return float(np.sqrt(contrib.sum()))

    # -- errors against exact fields ------------------------------------------

    def field_error_l2(self, g: ScalarField, t: float, v: FeFunction) -> float:
        """||g(.,t) - v|| by the degree-5 rule."""
        gq = self._quad_field(g, "q5", t)
        vq = v.vertex_values()[self.mesh.triangles] @ _Q5_BARY.T
        return float(np.sqrt((self._q5_wa * (gq - vq) ** 2).sum()))

    def field_error_h1(self, g_grad, t: float, v: FeFunction) -> float:
        """||grad g(.,t) - grad v|| by the degree-5 rule; ``g_grad`` is a
        (d/dx, d/dy) pair of fields."""
        gx, gy = g_grad
        gxq = self._quad_field(gx, "q5", t)
        gyq = self._quad_field(gy, "q5", t)
        gv = self.element_gradients(v)
        dx = gxq - gv[:, 0:1]
        dy = gyq - gv[:, 1:2]
        return float(np.sqrt((self._q5_wa * (dx ** 2 + dy ** 2)).sum()))


def _distinct_with_index(coords: np.ndarray):
    """Sorted distinct values of ``coords`` and the int32 index that gathers
    them back into the shape of ``coords``."""
    values, inverse = np.unique(coords.ravel(), return_inverse=True)
    return values, inverse.astype(np.int32).reshape(coords.shape)


def _values(g, x, y, t) -> np.ndarray:
    out = np.asarray(g(x, y, t), dtype=float)
    if out.shape != np.shape(x):
        out = np.broadcast_to(out, np.shape(x)).copy()
    return out
