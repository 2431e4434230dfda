"""Shared test utilities: independent oracles kept deliberately separate
from the library code paths they check."""

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg as spla

from fstheta import CaseSpec, FeFunction, Mesh, ScalarField, StepRecord
from fstheta.scheme import correction_coeffs, substep_defect


def enumerate_edges(triangles):
    """Brute-force edge -> adjacent-triangle map (independent of the sorted
    construction in ``interior_facets``)."""
    edges = {}
    for t, (a, b, c) in enumerate(np.asarray(triangles)):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(int(u), int(v)), max(int(u), int(v)))
            edges.setdefault(key, []).append(t)
    return edges


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
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        ya = np.broadcast_to(np.asarray(y, dtype=float), xa.shape)
        out = np.empty(xa.shape)
        for idx in np.ndindex(xa.shape):
            out[idx] = eval_p1(mesh, vv, xa[idx], ya[idx])
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])

    return ScalarField("fe", fn)


def gathered_element_norm(space, v: FeFunction, power: float) -> float:
    """(sum_K ||h_K^power v||_K^2)^{1/2} element by element from the gathered
    vertex values: the exact P1 integral |K|/12 (sum_i v_i^2 + (sum_i v_i)^2)
    per triangle."""
    mesh = space.mesh
    loc = v.vertex_values()[mesh.triangles]                 # (nt, 3)
    integ = mesh.tri_areas / 12.0 * ((loc ** 2).sum(axis=1) + loc.sum(axis=1) ** 2)
    return float(np.sqrt((mesh.tri_diameters ** (2.0 * power) * integ).sum()))


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


def summed_weighted_quad_norm(space, vals, power: float) -> float:
    """(sum_K h_K^{2 power} ||.||_K^2)^{1/2} from degree-4 quadrature values,
    summed with the per-point weights h_K^{2 power} |K| w_q."""
    w = space.mesh.tri_diameters ** (2.0 * power)
    return float(np.sqrt((w[:, None] * space._q4_wa * vals ** 2).sum()))


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
        lap_prev=laps[0], lap_new=laps[1],
        proj_f_prev=projs[0], proj_f_new=projs[1],
        xi_theta=zero, proj_xi_phi=zero, xi_phi_q4=fq,
        fq_prev=fq, fq_new=fq,
    )


def nodal_interpolant(space, g: ScalarField, t: float) -> FeFunction:
    """FE function with the values of g(., t) at the interior vertices."""
    xy = space.mesh.vertices[space.mesh.interior_vertices]
    return space.function(g(xy[:, 0], xy[:, 1], t))


def project_quad_values(space, vals) -> FeFunction:
    """L2 projection of a field given by its degree-4 quadrature values."""
    return space.project_load(space.load_from_quad_values(vals))


def substep_states(scheme, rec: StepRecord):
    """The four substep states of ``rec``'s step, U^{n-1}, U_theta,
    U_{1-theta} and U^n, rebuilt by the scheme's substep stage from U^{n-1}
    and the forcing samples at t^{n-1}; U^n must equal ``rec.U_new`` bit
    for bit."""
    b0 = scheme.space.load_from_quad_values(rec.fq_prev)
    (u_a, u_m, u_1), _, _ = scheme._substeps(rec.U_prev, rec.n, rec.fq_prev, b0)
    assert np.array_equal(u_1, rec.U_new.coeffs)
    return rec.U_prev.coeffs, u_a, u_m, u_1


def four_laplacian_xi_theta(scheme, rec: StepRecord) -> FeFunction:
    """Substep-defect correction of the discrete Laplacians formed from one
    mass solve per substep state (weights alpha1/beta1)."""
    sp_, p = scheme.space, scheme.params
    laps = [sp_.discrete_laplacian(sp_.function(u))
            for u in substep_states(scheme, rec)]
    return substep_defect(p.theta, p.alpha1, *laps)


def direct_xi_theta(scheme, rec: StepRecord) -> FeFunction:
    """M^{-1} K applied to the substep-defect combination of the states, by a
    sparse LU factorization of the mass matrix instead of CG."""
    sp_, p = scheme.space, scheme.params
    defect = substep_defect(p.theta, p.alpha1, *substep_states(scheme, rec))
    lu = spla.splu(sp_.mass.tocsc())
    return sp_.function(lu.solve(sp_.stiffness @ defect))


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
    g(t) s(x, y), so no separable shortcut applies."""
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
