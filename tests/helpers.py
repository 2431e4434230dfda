"""Shared test utilities: independent oracles kept deliberately separate
from the library code paths they check."""

import math

import numpy as np

from fstheta import CaseSpec, FeFunction, Mesh, ScalarField, StepRecord
from fstheta.estimators import correction_coeffs


def enumerate_edges(triangles):
    """Brute-force edge -> adjacent-triangle map (independent of the mesh
    module's facet construction)."""
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


def gathered_jump_norm(space, v: FeFunction, power: float) -> float:
    """(sum_e h_e^{2 power} J_e^2 |e|)^{1/2} from the per-triangle gradients
    of the two triangles at each interior facet."""
    mesh = space.mesh
    grads = space.element_gradients(v)
    gl = grads[mesh.facet_tris[:, 0]]
    gr = grads[mesh.facet_tris[:, 1]]
    jump = ((gl - gr) * mesh.facet_normals).sum(axis=1)
    contrib = mesh.facet_lengths ** (2.0 * power) * jump ** 2 * mesh.facet_lengths
    return float(np.sqrt(contrib.sum()))


def synthetic_record(space, n, t_prev, t_new, states, laps=None, projs=None,
                     fqs=None) -> StepRecord:
    """StepRecord from prescribed endpoint data (interior substep slots
    reuse the endpoints; fine for quantities that ignore them)."""
    zero = space.function()
    laps = laps if laps is not None else (zero, zero)
    projs = projs if projs is not None else (zero, zero)
    fq = np.zeros_like(space.eval_q4(zero))
    fqs = fqs if fqs is not None else (fq, fq, fq, fq)
    return StepRecord(
        n=n, t_prev=t_prev, t_new=t_new,
        U_prev=states[0], U_theta=states[0], U_onemtheta=states[1],
        U_new=states[1],
        lap_prev=laps[0], lap_theta=laps[0], lap_onemtheta=laps[1],
        lap_new=laps[1],
        proj_f_prev=projs[0], proj_f_theta=projs[0],
        proj_f_onemtheta=projs[1], proj_f_new=projs[1],
        fq_prev=fqs[0], fq_theta=fqs[1], fq_onemtheta=fqs[2], fq_new=fqs[3],
    )


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
