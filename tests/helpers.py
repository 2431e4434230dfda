"""Shared test utilities: independent oracles kept deliberately separate
from the library code paths they check."""

import math
import threading
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import fstheta.estimators
import fstheta.scheme
import fstheta.solver
from fstheta import (THETA_DEFAULT, CaseSpec, FeFunction, Mesh, ScalarField,
                     StepEstimates, StepRecord, StudyResult, elliptic_estimator,
                     solve_spd)
from fstheta.fem import _Q4_BARY, _Q4_W, _Q5_BARY, BandMatrix
from fstheta.solver import (MAX_ITERATIONS_PER_DOF, REL_TOLERANCE,
                            StackedSolves, _chebyshev_quadratic)
from fstheta.scheme import _SubstepPair, correction_coeffs, substep_defect


# values of ``fstheta.scheme.OVERLAP_MIN_DOFS`` that force either path of the
# step loop: everything on the caller's thread, or the substep worker
INLINE, OVERLAPPED = 10 ** 9, 0


def enumerate_edges(triangles):
    """Brute-force edge -> adjacent-triangle map (independent of the sorted
    construction in ``interior_facets``)."""
    edges = {}
    for t, (a, b, c) in enumerate(np.asarray(triangles)):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(int(u), int(v)), max(int(u), int(v)))
            edges.setdefault(key, []).append(t)
    return edges


def quadrature_points(space, rule: str) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the points of the degree-4 ("q4") or degree-5 ("q5") rule
    on every triangle of the space's mesh, each of shape (n_triangles,
    n_points), gathered from the corners of each triangle."""
    bary = _Q4_BARY if rule == "q4" else _Q5_BARY
    pts = space.mesh.vertices[space.mesh.triangles]     # (nt, 3, 2)
    return pts[:, :, 0] @ bary.T, pts[:, :, 1] @ bary.T


def eval_p1(mesh: Mesh, vertex_values, x, y):
    """Point evaluation of a P1 field on the structured mesh by barycentric
    coordinates (positive-slope diagonal convention)."""
    n = mesh.n_cells
    i = min(int(x * n), n - 1)
    j = min(int(y * n), n - 1)
    xi = x * n - i
    eta = y * n - j
    base = j * (n + 1) + i
    v00, v10 = vertex_values[base], vertex_values[base + 1]
    v01, v11 = vertex_values[base + n + 1], vertex_values[base + n + 2]
    if eta <= xi:   # lower triangle (v00, v10, v11)
        return (1.0 - xi) * v00 + (xi - eta) * v10 + eta * v11
    return (1.0 - eta) * v00 + (eta - xi) * v01 + xi * v11


def fe_as_field(fe: FeFunction) -> ScalarField:
    """Wrap an FE function as a ScalarField via pointwise P1 evaluation."""
    mesh = fe.mesh
    vv = fe.vertex_values()

    def fn(x, y, t):
        xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float),
                                     np.asarray(y, dtype=float))
        out = np.empty(xa.shape)
        for idx in np.ndindex(xa.shape):
            out[idx] = eval_p1(mesh, vv, xa[idx], ya[idx])
        return out if out.ndim else float(out)

    return ScalarField("fe", fn)


def full_coordinate_field(field: ScalarField) -> ScalarField:
    """``field`` called on x and y first broadcast to one full shape and
    copied, so that every value is formed from full coordinate arrays: the
    reference for ``P1Space``'s evaluation on the per-line tables."""
    def fn(x, y, t):
        xa, ya = np.broadcast_arrays(x, y)
        return field(xa.copy(), ya.copy(), t)

    return ScalarField(field.name, fn)


def full_coordinate_case(case: CaseSpec) -> CaseSpec:
    """The case with every field a ``full_coordinate_field``."""
    return CaseSpec(case.case_id, full_coordinate_field(case.exact_u),
                    tuple(map(full_coordinate_field, case.exact_grad_u)),
                    full_coordinate_field(case.forcing_f),
                    full_coordinate_field(case.u0))


def zero_field(name: str = "zero") -> ScalarField:
    """The field 0, as an array of the broadcast shape of x and y."""
    return ScalarField(name, lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)))


def quadrature_exactness_check(alpha: float, theta: float = THETA_DEFAULT) -> float:
    """Max defect of the scheme's nodal time quadrature on {1, s}.

    The rule places weights (beta*theta, alpha*(1-theta), beta*(1-theta),
    alpha*theta) at abscissae (0, theta, 1-theta, 1); it integrates linear
    polynomials exactly iff alpha = 1/2 or theta = 1 - sqrt(2)/2.
    """
    beta = 1.0 - alpha
    tt = 1.0 - theta
    nodes = (0.0, theta, 1.0 - theta, 1.0)
    weights = (beta * theta, alpha * tt, beta * tt, alpha * theta)
    defect_const = abs(math.fsum(weights) - 1.0)
    defect_lin = abs(math.fsum(w * s for w, s in zip(weights, nodes)) - 0.5)
    return max(defect_const, defect_lin)


def estimator_series(result: StudyResult, column: str) -> list[float]:
    """The final value of one estimator column at each level of a study."""
    return [r.report.final(column) for r in result.reports]


def random_grid(seed, n_steps):
    """Grid on [0, 1] whose step sizes vary by up to +-50 % about 1/n_steps."""
    k = np.random.default_rng(seed).uniform(0.5, 1.5, n_steps)
    return np.concatenate([[0.0], np.cumsum(k / k.sum())])


class TriangleGeometry(NamedTuple):
    """Per-triangle ``areas`` and ``diameters`` (longest edge)."""

    areas: np.ndarray
    diameters: np.ndarray


def triangle_geometry(mesh: Mesh) -> TriangleGeometry:
    """Areas and diameters of every triangle, from its vertices."""
    pts = mesh.vertices[mesh.triangles]                     # (nt, 3, 2)
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1])
    edges = pts - np.roll(pts, 1, axis=1)
    diameters = np.sqrt((edges ** 2).sum(axis=2).max(axis=1))
    return TriangleGeometry(areas, diameters)


def basis_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients of the three barycentric basis functions per triangle,
    shape (n_triangles, 3, 2)."""
    pts = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    g = np.empty((mesh.n_triangles, 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[:, i, 0] = pts[:, j, 1] - pts[:, k, 1]
        g[:, i, 1] = pts[:, k, 0] - pts[:, j, 0]
    g /= (2.0 * triangle_geometry(mesh).areas)[:, None, None]
    return g


def assemble_mass(mesh: Mesh, dirichlet: bool = True) -> sp.csr_matrix:
    """Exact P1 mass matrix assembled element by element; restricted to
    interior dofs when ``dirichlet``."""
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = triangle_geometry(mesh).areas[:, None, None] * pattern[None, :, :]
    return _scatter(mesh, local, dirichlet)


def assemble_stiffness(mesh: Mesh, dirichlet: bool = True) -> sp.csr_matrix:
    """Exact P1 stiffness matrix assembled element by element; restricted
    to interior dofs when ``dirichlet``."""
    grads = basis_gradients(mesh)
    areas = triangle_geometry(mesh).areas
    local = np.einsum("tid,tjd->tij", grads, grads) * areas[:, None, None]
    return _scatter(mesh, local, dirichlet)


def _scatter(mesh: Mesh, local, dirichlet: bool) -> sp.csr_matrix:
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    if dirichlet:
        idx = mesh.interior_vertices
        mat = mat[idx][:, idx].tocsr()
    return mat


def scipy_dia(a: BandMatrix) -> sp.dia_matrix:
    """``a`` as a scipy ``dia_matrix`` of the same bands and offsets, for
    scipy's conversions (``toarray``, ``tocsr``) and scipy's products."""
    return sp.dia_matrix((a.data, a.offsets), shape=a.shape)


def gathered_element_norm(space, v: FeFunction, power: float) -> float:
    """(sum_K ||h_K^power v||_K^2)^{1/2} element by element from the gathered
    vertex values: the exact P1 integral |K|/12 (sum_i v_i^2 + (sum_i v_i)^2)
    per triangle."""
    mesh = space.mesh
    geom = triangle_geometry(mesh)
    loc = v.vertex_values()[mesh.triangles]                 # (nt, 3)
    integ = geom.areas / 12.0 * ((loc ** 2).sum(axis=1) + loc.sum(axis=1) ** 2)
    return float(np.sqrt((geom.diameters ** (2.0 * power) * integ).sum()))


class Facets(NamedTuple):
    """Interior facets as arrays: ``vertices`` (endpoints), ``lengths``,
    ``normals`` (unit length, pointing from ``tris[:, 0]`` toward
    ``tris[:, 1]``), and the number of boundary facets."""

    vertices: np.ndarray
    tris: np.ndarray
    normals: np.ndarray
    lengths: np.ndarray
    n_boundary: int


def interior_facets(mesh: Mesh) -> Facets:
    """The interior facets of any triangulation, found by sorting its edges:
    interior edges occur exactly twice and end up adjacent."""
    tris = mesh.triangles
    nt = tris.shape[0]
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    tri_of_edge = np.tile(np.arange(nt), 3)
    edges = np.sort(edges, axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges = edges[order]
    tri_of_edge = tri_of_edge[order]

    dup = np.flatnonzero((edges[1:] == edges[:-1]).all(axis=1))
    verts = edges[dup]
    left = tri_of_edge[dup].copy()
    right = tri_of_edge[dup + 1].copy()

    pa = mesh.vertices[verts[:, 0]]
    pb = mesh.vertices[verts[:, 1]]
    d = pb - pa
    lengths = np.hypot(d[:, 0], d[:, 1])
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]

    # orient so the normal points from the left triangle toward the right
    mid = 0.5 * (pa + pb)
    centroids = mesh.vertices[tris].mean(axis=1)
    side = ((centroids[left] - mid) * normals).sum(axis=1)
    swap = side > 0
    left[swap], right[swap] = right[swap], left[swap]
    return Facets(verts, np.column_stack([left, right]), normals, lengths,
                  int(edges.shape[0] - 2 * dup.size))


def facet_jumps(space, v: FeFunction, facets: Facets) -> np.ndarray:
    """(grad v|_L - grad v|_R) . n_e across every interior facet e, from the
    per-triangle gradients of its two triangles."""
    grads = space.element_gradients(v)
    gl = grads[facets.tris[:, 0]]
    gr = grads[facets.tris[:, 1]]
    return ((gl - gr) * facets.normals).sum(axis=1)


def gathered_jump_norm(space, v: FeFunction, power: float) -> float:
    """(sum_e h_e^{2 power} J_e^2 |e|)^{1/2} from the per-triangle gradients
    of the two triangles at each interior facet."""
    facets = interior_facets(space.mesh)
    jump = facet_jumps(space, v, facets)
    contrib = facets.lengths ** (2.0 * power) * jump ** 2 * facets.lengths
    return float(np.sqrt(contrib.sum()))


def grid_jump_norm(space, v: FeFunction, power: float) -> float:
    """``P1Space.jump_norm`` of one function as allocating array
    expressions on its (n+1) x (n+1) vertex grid: the same differences and
    the same sums over contiguous arrays, so the same bits."""
    n = space.mesh.n_cells
    V = v.vertex_values().reshape(n + 1, n + 1) * n
    dx_low, dy_low = V[:-1, 1:] - V[:-1, :-1], V[1:, 1:] - V[:-1, 1:]
    dx_up, dy_up = V[1:, 1:] - V[1:, :-1], V[1:, :-1] - V[:-1, :-1]
    diag = (dx_low - dx_up) - (dy_low - dy_up)
    horizontal = dy_up[:-1] - dy_low[1:]
    vertical = dx_low[:, :-1] - dx_up[:, 1:]
    weight = 2.0 * power + 1.0
    axis = (horizontal * horizontal).sum() + (vertical * vertical).sum()
    total = ((1.0 / n) ** weight * axis
             + space._h ** weight * 0.5 * (diag * diag).sum())
    return float(np.sqrt(total))


def summed_weighted_quad_norm(space, vals, power: float) -> float:
    """(sum_K h_K^{2 power} ||.||_K^2)^{1/2} from degree-4 quadrature values,
    summed with the per-point weights h_K^{2 power} |K| w_q."""
    geom = triangle_geometry(space.mesh)
    w = geom.diameters ** (2.0 * power)
    wa = geom.areas[:, None] * _Q4_W[None, :]
    return float(np.sqrt((w[:, None] * wa * vals ** 2).sum()))


def synthetic_record(space, n, t_prev, t_new, states, laps=None,
                     projs=None) -> StepRecord:
    """StepRecord from prescribed endpoint data (the three substep-defect
    corrections and the forcing samples are zero; fine for quantities that
    ignore them)."""
    zero = space.function()
    laps = laps if laps is not None else (zero, zero)
    projs = projs if projs is not None else (zero, zero)
    fq = np.zeros_like(space.eval_q4(zero))
    return StepRecord(
        n=n, t_prev=t_prev, t_new=t_new,
        U_prev=states[0], U_new=states[1],
        lap_prev=laps[0], proj_f_prev=projs[0],
        lap_new=laps[1], proj_f_new=projs[1], xi_theta=zero, proj_xi_phi=zero,
        xi_phi_q4=fq, fq_prev=fq, fq_new=fq,
    )


def nodal_interpolant(space, g: ScalarField, t: float) -> FeFunction:
    """FE function with the values of g(., t) at the interior vertices."""
    xy = space.mesh.vertices[space.mesh.interior_vertices]
    return space.function(g(xy[:, 0], xy[:, 1], t))


def project_load(space, load: np.ndarray) -> FeFunction:
    """The FE function whose mass product is ``load``: a plain mass solve."""
    return space.function(solve_spd(space.mass, load))


def discrete_laplacian(space, v: FeFunction) -> FeFunction:
    """The nonnegative operator d with (d, chi) = (grad v, grad chi) for
    every chi in the space: a plain mass solve of the stiffness product."""
    return project_load(space, space.stiffness @ v.coeffs)


def l2_project(space, g: ScalarField, t: float) -> FeFunction:
    """L2 projection of g(., t) onto the Dirichlet space (mass solve)."""
    return project_load(space, space.load_vector(g, t))


def project_quad_values(space, vals) -> FeFunction:
    """L2 projection of a field given by its degree-4 quadrature values."""
    return project_load(space, space.load_from_quad_values(vals))


def substep_states(scheme, rec: StepRecord):
    """The four substep states of ``rec``'s step, U^{n-1}, U_theta,
    U_{1-theta} and U^n, rebuilt by the scheme's substep stage from U^{n-1}
    and the forcing samples at t^{n-1}; U^n must equal ``rec.U_new`` bit
    for bit."""
    b0 = scheme.space.load_from_quad_values(rec.fq_prev)
    (u_a, u_m, u_1), _, _, _ = scheme._substeps(
        rec.U_prev, rec.n, rec.fq_prev, b0,
        scheme.space.stiffness @ rec.U_prev.coeffs,
        _SubstepPair(scheme.space, scheme.params))
    assert np.array_equal(u_1, rec.U_new.coeffs)
    return rec.U_prev.coeffs, u_a, u_m, u_1


def four_laplacian_xi_theta(scheme, rec: StepRecord) -> FeFunction:
    """Substep-defect correction of the discrete Laplacians formed from one
    mass solve per substep state (weights alpha1/beta1)."""
    sp_, p = scheme.space, scheme.params
    laps = [discrete_laplacian(sp_, sp_.function(u))
            for u in substep_states(scheme, rec)]
    return sp_.function(substep_defect(p.theta, p.alpha1,
                                       *(lap.coeffs for lap in laps)))


def direct_xi_theta(scheme, rec: StepRecord) -> FeFunction:
    """M^{-1} K applied to the substep-defect combination of the states, by a
    sparse LU factorization of the mass matrix instead of CG."""
    sp_, p = scheme.space, scheme.params
    defect = substep_defect(p.theta, p.alpha1, *substep_states(scheme, rec))
    return sp_.function(direct_solve(sp_.mass, sp_.stiffness @ defect))


def scaled_case(case: CaseSpec, lam: float) -> CaseSpec:
    """The case with every field multiplied by lam."""
    def scaled(field: ScalarField) -> ScalarField:
        return ScalarField(f"{lam}*{field.name}",
                           lambda x, y, t: lam * field(x, y, t))

    return CaseSpec(case.case_id, scaled(case.exact_u),
                    tuple(scaled(g) for g in case.exact_grad_u),
                    scaled(case.forcing_f), scaled(case.u0))


def lap_time_interpolant(rec: StepRecord, t: float) -> FeFunction:
    """Linear-in-time interpolant of the endpoint discrete Laplacians."""
    l1 = (t - rec.t_prev) / rec.k
    return (1.0 - l1) * rec.lap_prev + l1 * rec.lap_new


def forcing_interpolant(params, n: int, f: ScalarField) -> ScalarField:
    """Linear-in-time interpolant of the forcing between t^{n-1} and t^n."""
    t0, t1 = params.time(n - 1), params.time(n)
    k = t1 - t0

    def fn(x, y, t):
        l1 = (t - t0) / k
        return (1.0 - l1) * f(x, y, t0) + l1 * f(x, y, t1)

    return ScalarField(f"interp[{f.name}]", fn)


def forcing_substep_defect(params, n: int, f: ScalarField) -> ScalarField:
    """Pointwise substep-defect correction of the forcing at the interior
    substep times (weights alpha2/beta2); constant in t."""
    t0, t1 = params.time(n - 1), params.time(n)
    t_a, t_m = params.intermediate_times(n)
    c0, c1, ca, cm = correction_coeffs(params.theta, params.alpha2)

    def fn(x, y, t):
        return (c0 * f(x, y, t0) + c1 * f(x, y, t1)
                - ca * f(x, y, t_a) - cm * f(x, y, t_m))

    return ScalarField(f"defect[{f.name}]", fn)


def corrected_forcing_interpolant(params, n: int, f: ScalarField) -> ScalarField:
    """Forcing interpolant minus its substep-defect correction."""
    phi = forcing_interpolant(params, n, f)
    xi = forcing_substep_defect(params, n, f)

    def fn(x, y, t):
        return phi(x, y, t) - xi(x, y, t)

    return ScalarField(f"corrected[{f.name}]", fn)


def error_metrics(space, case, records, initial_state=None):
    """Error metrics of a stored trajectory: the maximum over time nodes of
    the L2 error, and that maximum combined with the k-weighted H1 errors."""
    if initial_state is None:
        initial_state = space.function()
    t0 = records[0].t_prev if records else 0.0
    max_err = space.field_error_l2(case.exact_u, t0, initial_state)
    sum_k_grad2 = 0.0
    for rec in records:
        max_err = max(max_err, space.field_error_l2(case.exact_u, rec.t_new,
                                                    rec.U_new))
        grad_err = space.field_error_h1(case.exact_grad_u, rec.t_new, rec.U_new)
        sum_k_grad2 += rec.k * grad_err ** 2
    return max_err, math.sqrt(max_err ** 2 + sum_k_grad2)


def scalar_substep_factor(lam, k, params):
    """Per-step amplification of the three-substep integrator applied to the
    scalar problem y' = -lam y (1-dof oracle)."""
    th, tt = params.theta, params.theta_tilde
    a1, b1 = params.alpha1, params.beta1
    r1 = (1.0 / (th * k) - b1 * lam) / (1.0 / (th * k) + a1 * lam)
    r2 = (1.0 / (tt * k) - a1 * lam) / (1.0 / (tt * k) + b1 * lam)
    r3 = (1.0 / (th * k) - b1 * lam) / (1.0 / (th * k) + a1 * lam)
    return r1 * r2 * r3


def sympy_local_matrices(coords):
    """Exact local P1 mass and stiffness matrices on one triangle by
    symbolic integration."""
    import sympy as sym

    x, y = sym.symbols("x y")
    (x0, y0), (x1, y1), (x2, y2) = [(sym.nsimplify(a), sym.nsimplify(b))
                                    for a, b in coords]
    area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    lams = []
    for (xa, ya), (xb, yb) in (((x1, y1), (x2, y2)),
                               ((x2, y2), (x0, y0)),
                               ((x0, y0), (x1, y1))):
        lams.append(((xb - xa) * (y - ya) - (yb - ya) * (x - xa)) / area2)
    # integrate over the triangle by mapping to the reference simplex
    s, t = sym.symbols("s t")
    xmap = x0 + (x1 - x0) * s + (x2 - x0) * t
    ymap = y0 + (y1 - y0) * s + (y2 - y0) * t
    jac = sym.Abs(area2)

    def integrate(expr):
        mapped = sym.expand(expr.subs({x: xmap, y: ymap})) * jac
        inner = sym.integrate(mapped, (s, 0, 1 - t))
        return sym.integrate(inner, (t, 0, 1))

    mass = np.empty((3, 3))
    stiff = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            mass[i, j] = float(integrate(lams[i] * lams[j]))
            gi = (sym.diff(lams[i], x), sym.diff(lams[i], y))
            gj = (sym.diff(lams[j], x), sym.diff(lams[j], y))
            stiff[i, j] = float(integrate(gi[0] * gj[0] + gi[1] * gj[1]))
    return mass, stiff


def varstep_case() -> CaseSpec:
    """u = sin(pi x) sin(pi y) sin(pi (x + 2y - 3t)): not of the form
    g(t) s(x, y), so its phase is formed at every quadrature point."""
    pi = math.pi
    pi2 = pi * pi

    def parts(x, y, t):
        phase = pi * (x + 2.0 * y - 3.0 * t)
        return (np.sin(pi * x), np.sin(pi * y), np.cos(pi * x), np.cos(pi * y),
                np.sin(phase), np.cos(phase))

    def u(x, y, t):
        sx, sy, _, _, sp, _ = parts(x, y, t)
        return sx * sy * sp

    def ux(x, y, t):
        sx, sy, cx, _, sp, cp = parts(x, y, t)
        return pi * sy * (cx * sp + sx * cp)

    def uy(x, y, t):
        sx, sy, _, cy, sp, cp = parts(x, y, t)
        return pi * sx * (cy * sp + 2.0 * sy * cp)

    def f(x, y, t):
        sx, sy, cx, cy, sp, cp = parts(x, y, t)
        return (-3.0 * pi * sx * sy * cp + 7.0 * pi2 * sx * sy * sp
                - 2.0 * pi2 * cx * sy * cp - 4.0 * pi2 * sx * cy * cp)

    return CaseSpec(
        case_id=0,
        exact_u=ScalarField("u", u),
        exact_grad_u=(ScalarField("du/dx", ux), ScalarField("du/dy", uy)),
        forcing_f=ScalarField("f", f),
        u0=ScalarField("u0", lambda x, y, t: u(x, y, 0.0)),
    )


def allocating_pcg(matrix, rhs) -> np.ndarray:
    """The preconditioned CG loop of ``solve_spd`` as it was written before
    its updates went in place: a fresh array for every scaled vector, z and
    p.  The Jacobi step stops on ``np.linalg.norm`` of the residual.  A
    matrix with a constant diagonal d that carries ``jacobi_spectrum``
    takes the polynomial step, u = a1 d r + A r and z = a0 d^2 r + A u,
    each product added into the scaled r by the matrix's ``matvec_add``
    (``@`` and an addition for a matrix without one), and stops on
    r.z <= tol^2 d^2 q_min.  Same tolerance and iteration cap; the input
    checks and the true-residual re-check are left out, and
    non-convergence raises AssertionError."""
    b = np.asarray(rhs, dtype=float)
    n = b.shape[0]
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)
    tol = REL_TOLERANCE * b_norm
    diag = np.asarray(matrix.diagonal(), dtype=float)
    spectrum = getattr(matrix, "jacobi_spectrum", None)
    if spectrum is None or np.ptp(diag) != 0.0:
        inv_diag = 1.0 / diag

        def precondition(r):
            return r * inv_diag

        def converged(r, rz):
            return float(np.linalg.norm(r)) <= tol
    else:
        d = float(diag[0])
        a1, a0, q_min = _chebyshev_quadratic(*spectrum)
        a1, a0 = a1 * d, a0 * d * d

        add_product = getattr(matrix, "matvec_add", None)
        if add_product is None:
            def add_product(v, out):
                out += matrix @ v

        def precondition(r):
            u = a1 * r
            add_product(r, u)
            z = a0 * r
            add_product(u, z)
            return z

        def converged(r, rz):
            return rz <= tol * tol * q_min * d * d
    x = np.zeros(n)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(MAX_ITERATIONS_PER_DOF * n):
        Ap = matrix @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = precondition(r)
        rz_new = float(r @ z)
        if converged(r, rz_new):
            return x
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("the reference CG loop did not converge")


def direct_solve(matrix, rhs) -> np.ndarray:
    """``matrix`` x = ``rhs`` by scipy's sparse LU (``splu``)."""
    return spla.splu(scipy_dia(matrix).tocsc()).solve(np.asarray(rhs, dtype=float))


def single_pass_h1_error(space, g_grad, t: float, v: FeFunction) -> float:
    """``field_error_h1`` formed in one pass over all triangles, each
    gradient subtracted as a column broadcast over the (n_triangles, 7)
    degree-5 values."""
    gx, gy = g_grad
    gv = space.element_gradients(v)
    dx = space._quad_field(gx, "q5", t) - gv[:, 0:1]
    dy = space._quad_field(gy, "q5", t) - gv[:, 1:2]
    return float(np.sqrt(space._weighted(space._q5_wa, dx ** 2 + dy ** 2).sum()))


def eager_end_of_step(scheme, rec: StepRecord) -> tuple:
    """``rec``'s Laplacian and forcing projection at t^n, xi_theta and
    P xi_phi, each by its own plain mass solve right after the step's
    substeps, which are rerun from U^{n-1} and the forcing samples at
    t^{n-1}."""
    sp_, p = scheme.space, scheme.params
    b0 = sp_.load_from_quad_values(rec.fq_prev)
    states, _, loads, _ = scheme._substeps(
        rec.U_prev, rec.n, rec.fq_prev, b0, sp_.stiffness @ rec.U_prev.coeffs,
        _SubstepPair(sp_, p))
    assert np.array_equal(states[-1], rec.U_new.coeffs)
    defect = substep_defect(p.theta, p.alpha1, rec.U_prev.coeffs, *states)

    def mass_solve(rhs):
        return sp_.function(solve_spd(sp_.mass, rhs))

    return (mass_solve(sp_.stiffness @ states[-1]), mass_solve(loads[-1]),
            mass_solve(sp_.stiffness @ defect),
            mass_solve(substep_defect(p.theta, p.alpha2, b0, *loads)))


def fail_scheme_solve(monkeypatch, n_fail: int, tag_fail: str) -> None:
    """Make the solve of ``tag_fail`` in step ``n_fail`` fail, with the
    tagged ``SolverError`` of a non-finite right-hand side: a lone tagged
    solve of the scheme or one row of a list of ``StackedSolves``."""
    solve, solves = fstheta.scheme.tagged_solve, StackedSolves.solve

    def poisoned(rhs, n, tag):
        return np.full_like(rhs, np.nan) if (n, tag) == (n_fail, tag_fail) else rhs

    def failing(matrix, rhs, n, tag):
        return solve(matrix, poisoned(rhs, n, tag), n, tag)

    def failing_rows(self, rows):
        return solves(self, [(poisoned(rhs, n, tag), n, tag)
                             for rhs, n, tag in rows])

    monkeypatch.setattr(fstheta.scheme, "tagged_solve", failing)
    monkeypatch.setattr(StackedSolves, "solve", failing_rows)


class SolveRecord(NamedTuple):
    on_caller: bool     # made on the thread that installed the recorder
    n: int | None
    tag: str


def record_solves(monkeypatch) -> list[SolveRecord]:
    """Record every tagged solve of the scheme and the estimators, in call
    order, a list of ``StackedSolves`` row by row, and check that no
    ``solve_spd`` call runs outside them: a lone tagged solve makes exactly
    one through the binding ``tagged_solve`` calls, and a list at most one
    per row (its stacked rows make none).  Returns the list of records."""
    caller = threading.current_thread()
    records, inside = [], threading.local()
    solve, tagged, tagged_rows = (fstheta.solver.solve_spd,
                                  fstheta.solver.tagged_solve, StackedSolves.solve)

    def counting_solve(matrix, rhs):
        assert getattr(inside, "calls", None) is not None, \
            "solve_spd outside a tagged solve"
        inside.calls += 1
        return solve(matrix, rhs)

    def counted(solves, rows, least, most):
        on_caller = threading.current_thread() is caller
        records.extend(SolveRecord(on_caller, n, tag) for _, n, tag in rows)
        inside.calls = 0
        try:
            return solves()
        finally:
            assert least <= inside.calls <= most, (rows, inside.calls)
            del inside.calls

    def recording(matrix, rhs, n, tag):
        return counted(lambda: tagged(matrix, rhs, n, tag), [(rhs, n, tag)], 1, 1)

    def recording_rows(self, rows):
        rows = list(rows)
        return counted(lambda: tagged_rows(self, rows), rows, 0, len(rows))

    monkeypatch.setattr(fstheta.solver, "solve_spd", counting_solve)
    for module in (fstheta.scheme, fstheta.estimators):
        monkeypatch.setattr(module, "tagged_solve", recording)
    monkeypatch.setattr(StackedSolves, "solve", recording_rows)
    return records


def energy_estimator(scheme, U0: FeFunction) -> float:
    """The classical energy-type residual estimator of the run of
    ``scheme`` from U0, with unit constants:
    eta^2 = sum_n k_n [||h (f^n - (U^n - U^{n-1}) / k_n)||^2
    + jump_norm(U^n, 1/2)^2 + ||grad(U^n - U^{n-1})||^2], the forcing taken
    at the step's end (M. Picasso, Comput. Methods Appl. Mech. Engrg. 167
    (1998); R. Verfuerth, Calcolo 40 (2003)).  It bounds the energy error,
    L-infinity(L2) plus L2(H1), and uses only public ``P1Space`` norms."""
    sp_ = scheme.space
    total = 0.0
    for rec in scheme.iter_steps(U0):
        step = rec.U_new - rec.U_prev
        residual = (sp_.eval_field_q4(scheme.forcing, rec.t_new)
                    - sp_.eval_q4(step / rec.k))
        total += rec.k * (sp_.weighted_quad_norm(residual, 1.0) ** 2
                          + sp_.jump_norm(rec.U_new, 0.5) ** 2
                          + sp_.h1_seminorm(step) ** 2)
    return math.sqrt(total)


def time_weight(space, w: FeFunction, k: float, consts,
                lap: FeFunction | None = None) -> float:
    """Weight of one step in the quadratic-reconstruction time estimator:
    (k^2/sqrt(30)) (c1 |w|_1 + C11 ||h lap(w)||)."""
    if lap is None:
        lap = discrete_laplacian(space, w)
    return (k * k / math.sqrt(30.0)) * (
        consts.c1 * space.h1_seminorm(w)
        + consts.C11 * space.weighted_element_norm(lap, 1.0))


def composed_step_estimates(engine, rec: StepRecord,
                            prev_rec: StepRecord | None) -> StepEstimates:
    """``EstimatorEngine.step_estimates`` composed of single indicators
    (``time_weight`` and ``elliptic_estimator`` called apart, so each
    reconstruction Laplacian's norm is taken twice) and of ``FeFunction``
    arithmetic and allocating array expressions throughout."""
    sp_, cs, k = engine.space, engine.consts, rec.k

    def data_time_error():
        acc = 0.0
        for off, wq in zip((-math.sqrt(0.6), 0.0, math.sqrt(0.6)),
                           (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)):
            s = 0.5 * (rec.t_prev + rec.t_new) + 0.5 * k * off
            l1 = (s - rec.t_prev) / k
            phi_vals = (1.0 - l1) * rec.fq_prev + l1 * rec.fq_new
            f_vals = sp_.eval_field_q4(engine.forcing, s)
            acc += wq * sp_.quad_norm(f_vals - phi_vals)
        return 0.5 * acc

    def data_projection_error():
        fe_prev = sp_.eval_q4(rec.proj_f_prev + rec.proj_xi_phi)
        fe_new = sp_.eval_q4(rec.proj_f_new + rec.proj_xi_phi)
        return cs.c11 * max(
            sp_.weighted_quad_norm(rec.fq_prev + rec.xi_phi_q4 - fe_prev, 1.0),
            sp_.weighted_quad_norm(rec.fq_new + rec.xi_phi_q4 - fe_new, 1.0))

    def compact_residual():
        slope = (rec.U_new - rec.U_prev) / k
        theta_hat = 0.5 * (rec.lap_prev + rec.lap_new) - rec.xi_theta
        phi_hat = 0.5 * (rec.proj_f_prev + rec.proj_f_new) - rec.proj_xi_phi
        scale = max(sp_.l2_norm(slope), sp_.l2_norm(theta_hat),
                    sp_.l2_norm(phi_hat))
        return 0.0 if scale == 0.0 else \
            sp_.l2_norm(slope + theta_hat - phi_hat) / scale

    def coefficient(w, lap):
        return (time_weight(sp_, w, k, cs, lap=lap),
                elliptic_estimator(sp_, w, cs, lap=lap), sp_.l2_norm(w))

    w = ((rec.lap_new - rec.lap_prev) - (rec.proj_f_new - rec.proj_f_prev)) / k
    gamma2, eta_w2, norm_w2 = coefficient(w, discrete_laplacian(sp_, w))
    if prev_rec is None:
        k_prev, gamma3, eta_w3, norm_w3, z_norm, y_norm = \
            0.0, gamma2, eta_w2, norm_w2, 0.0, 0.0
    else:
        k_prev = prev_rec.k
        wt = (-2.0 / (k + k_prev)) * ((rec.U_new - rec.U_prev) / k
                                      - (prev_rec.U_new - prev_rec.U_prev) / k_prev)
        r = k_prev / k
        lap_dd = 0.5 * (r * rec.lap_new - (1.0 + r) * rec.lap_prev
                        + prev_rec.lap_prev)
        f_dd = 0.5 * (r * rec.proj_f_new - (1.0 + r) * rec.proj_f_prev
                      + prev_rec.proj_f_prev)
        gamma3, eta_w3, norm_w3 = coefficient(
            wt, (-4.0 / (k_prev * (k + k_prev))) * lap_dd)
        z_norm, y_norm = sp_.l2_norm(lap_dd), sp_.l2_norm(f_dd)
    delta = (cs.C12 * sp_.weighted_element_norm((rec.lap_new - rec.lap_prev) / k, 2.0)
             + cs.C22 * sp_.jump_norm(rec.U_new - rec.U_prev, 1.5))
    return StepEstimates(
        n=rec.n, k=k, k_prev=k_prev,
        eta_U=elliptic_estimator(sp_, rec.U_new, cs, lap=rec.lap_new),
        gamma_two=gamma2, gamma_three=gamma3,
        eta_w_two=eta_w2, eta_w_three=eta_w3,
        norm_w_two=norm_w2, norm_w_three=norm_w3,
        norm_xi_theta=sp_.l2_norm(rec.xi_theta),
        delta=delta, beta_coarsen=0.0,
        zeta1=data_time_error(), zeta2=data_projection_error(),
        norm_xi_phi=sp_.quad_norm(rec.xi_phi_q4),
        norm_proj_xi_phi=sp_.l2_norm(rec.proj_xi_phi),
        z_norm=z_norm, y_norm=y_norm,
        compact_residual=compact_residual())


def fresh_substep_matrices(space, params, k: float):
    """The substep pair (a_theta, a_tilde) for step size k, built afresh:
    each matrix the new bands M.data / (shift k) + K.data * weight at M's
    offsets.  The oracle of the pair a step loop holds and rewrites in
    place."""
    M, K = space.mass, space.stiffness
    return tuple(BandMatrix(M.data * (1.0 / (shift * k)) + K.data * weight,
                            M.offsets, M.shape)
                 for shift, weight in ((params.theta, params.alpha1),
                                       (params.theta_tilde, params.beta1)))


def flat_quad_norm(space, vals) -> float:
    """``P1Space.quad_norm`` as one flat sum over a fresh buffer of the
    weighted squares, weighted one cell row at a time."""
    weighted = np.square(vals, out=np.empty(vals.shape))
    rows = weighted.reshape(space.mesh.n_cells, -1)
    np.multiply(space._q4_wa[:rows.shape[1]], rows, out=rows)
    return float(np.sqrt(weighted.sum()))


def data_time_error(engine, rec: StepRecord) -> float:
    """zeta1 of ``rec``: (1/k) int ||f(s) - interp(s)|| ds by three-point
    Gauss in time, f(s) - interp(s) formed in two buffers held over the
    three times and each norm taken by ``flat_quad_norm``."""
    sp_ = engine.space
    t_mid = 0.5 * (rec.t_prev + rec.t_new)
    half = 0.5 * rec.k
    diff, part = np.empty(rec.fq_prev.shape), np.empty(rec.fq_new.shape)
    acc = 0.0
    for off, wq in zip((-math.sqrt(0.6), 0.0, math.sqrt(0.6)),
                       (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)):
        s = t_mid + half * off
        l1 = (s - rec.t_prev) / rec.k
        np.multiply(1.0 - l1, rec.fq_prev, out=diff)
        diff += np.multiply(l1, rec.fq_new, out=part)
        f_vals = sp_.eval_field_q4(engine.forcing, s)
        acc += wq * flat_quad_norm(sp_, np.subtract(f_vals, diff, out=diff))
    return 0.5 * acc


def data_projection_error(engine, rec: StepRecord) -> float:
    """zeta2 of ``rec``: c11 max over the endpoint forcings of
    ||h (I - P0)(f + xi)||, each defect formed in one buffer and its norm
    taken by ``flat_quad_norm``."""
    sp_ = engine.space
    diff = np.empty(rec.xi_phi_q4.shape)

    def defect(fq, proj_f):
        np.add(fq, rec.xi_phi_q4, out=diff)
        np.subtract(diff, sp_.eval_q4(proj_f + rec.proj_xi_phi), out=diff)
        return sp_._h ** 1.0 * flat_quad_norm(sp_, diff)

    return engine.consts.c11 * max(defect(rec.fq_prev, rec.proj_f_prev),
                                   defect(rec.fq_new, rec.proj_f_new))
