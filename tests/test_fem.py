import numpy as np
import pytest
import scipy.linalg

from fstheta import (FeFunction, P1Space, ScalarField, SchemeParams, assemble_mass,
                     assemble_stiffness, build_uniform_mesh, eoc, make_case,
                     make_uniform_grid, zero_field)
from fstheta.fem import _values as fem_values

from helpers import (facet_jumps, fe_as_field, gathered_element_norm,
                     gathered_jump_norm, interior_facets, nodal_interpolant,
                     summed_weighted_quad_norm, sympy_local_matrices, varstep_case)

PI = np.pi
SIN2 = ScalarField("sin.sin", lambda x, y, t: np.sin(PI * x) * np.sin(PI * y))
SIN2_GRAD = (ScalarField("dx", lambda x, y, t: PI * np.cos(PI * x) * np.sin(PI * y)),
             ScalarField("dy", lambda x, y, t: PI * np.sin(PI * x) * np.cos(PI * y)))
LINEAR = ScalarField("x+2y", lambda x, y, t: x + 2.0 * y)


@pytest.fixture(scope="module")
def space3():
    return P1Space(build_uniform_mesh(3))


@pytest.fixture(scope="module")
def space4():
    return P1Space(build_uniform_mesh(4))


@pytest.fixture(scope="module")
def eig4(space4):
    lams, vecs = scipy.linalg.eigh(space4.stiffness.toarray(),
                                   space4.mass.toarray())
    return lams, vecs


def _random_fe(space, seed=0):
    rng = np.random.default_rng(seed)
    return space.function(rng.standard_normal(space.n_dofs))


# -- assembly against the symbolic oracle -----------------------------------

def test_reference_triangle_local_matrices_symbolic():
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    mass, stiff = sympy_local_matrices(coords)
    area = 0.5
    expected_mass = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    expected_stiff = 0.5 * np.array([[2.0, -1.0, -1.0],
                                     [-1.0, 1.0, 0.0],
                                     [-1.0, 0.0, 1.0]])
    assert np.abs(mass - expected_mass).max() <= 1e-13
    assert np.abs(stiff - expected_stiff).max() <= 1e-13


def test_global_assembly_matches_symbolic_oracle():
    mesh = build_uniform_mesh(1)
    nv = mesh.n_vertices
    m_oracle = np.zeros((nv, nv))
    k_oracle = np.zeros((nv, nv))
    for tri in mesh.triangles:
        mass, stiff = sympy_local_matrices(mesh.vertices[tri])
        for i in range(3):
            for j in range(3):
                m_oracle[tri[i], tri[j]] += mass[i, j]
                k_oracle[tri[i], tri[j]] += stiff[i, j]
    m = assemble_mass(mesh, dirichlet=False).toarray()
    k = assemble_stiffness(mesh, dirichlet=False).toarray()
    assert np.abs(m - m_oracle).max() <= 1e-13
    assert np.abs(k - k_oracle).max() <= 1e-13


def test_mass_row_sums_total_one(space3):
    m = assemble_mass(space3.mesh, dirichlet=False)
    assert abs(m.sum() - 1.0) <= 1e-13


def test_mass_symmetric_positive(space3):
    m = space3.mass.tocsr()
    asym = abs(m - m.T).max()
    assert asym <= 1e-13 * abs(m).max()
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = rng.standard_normal(space3.n_dofs)
        assert v @ (m @ v) > 0.0


def test_stiffness_annihilates_constants(space3):
    ones = np.ones(space3.mesh.n_vertices)
    k = assemble_stiffness(space3.mesh, dirichlet=False)
    assert np.abs(k @ ones).max() <= 1e-12


def test_first_eigenvalue_near_continuum(eig4):
    lams, _ = eig4
    assert abs(lams[0] - 2.0 * PI ** 2) <= 0.02 * 2.0 * PI ** 2


# -- loads and projections ---------------------------------------------------

def test_load_of_zero_field(space3):
    assert (space3.load_vector(zero_field(), 0.0) == 0.0).all()


def test_load_constant_one_level1():
    mesh = build_uniform_mesh(1)
    space = P1Space(mesh)
    b = space.load_vector(ScalarField("one", lambda x, y, t: np.ones_like(x)), 0.0)
    # oracle: integral of the center hat equals its support area / 3
    center = mesh.interior_vertices[0]
    support = [t for t, tri in enumerate(mesh.triangles) if center in tri]
    support_area = mesh.tri_areas[support].sum()
    assert len(support) == 6
    assert abs(b[0] - support_area / 3.0) <= 1e-14
    assert abs(b[0] - 0.25) <= 1e-14


def test_load_of_hat_equals_mass_column():
    space = P1Space(build_uniform_mesh(2))
    rng = np.random.default_rng(3)
    for j in rng.choice(space.n_dofs, size=3, replace=False):
        hat = space.function(np.eye(space.n_dofs)[j])
        b = space.load_vector(fe_as_field(hat), 0.0)
        col = space.mass.toarray()[:, j]
        assert np.abs(b - col).max() <= 1e-14


def test_project_zero_is_exact_zero(space3):
    p = space3.l2_project(zero_field(), 0.0)
    assert (p.coeffs == 0.0).all()


def test_projection_is_identity_on_the_space(space3):
    v = _random_fe(space3, seed=5)
    p = space3.l2_project(fe_as_field(v), 0.0)
    assert np.abs(p.coeffs - v.coeffs).max() <= 1e-10 * np.abs(v.coeffs).max()


def test_projection_error_second_order():
    errs, hs = [], []
    for level in (3, 4, 5, 6):
        space = P1Space(build_uniform_mesh(level))
        p = space.l2_project(SIN2, 0.0)
        errs.append(space.field_error_l2(SIN2, 0.0, p))
        hs.append(2.0 ** (-level))
    orders = eoc(errs, hs)
    assert all(o >= 1.85 for o in orders)
    assert abs(orders[-1] - 2.0) <= 0.1


# -- discrete laplacian -------------------------------------------------------

def test_discrete_laplacian_of_zero(space3):
    z = space3.function()
    assert (space3.discrete_laplacian(z).coeffs == 0.0).all()


def test_discrete_laplacian_on_eigenvector(space4, eig4):
    lams, vecs = eig4
    v = space4.function(vecs[:, 0])
    d = space4.discrete_laplacian(v)
    assert np.abs(d.coeffs - lams[0] * v.coeffs).max() <= 1e-8 * lams[0]


def test_discrete_laplacian_defining_identity(space3):
    v = _random_fe(space3, seed=1)
    d = space3.discrete_laplacian(v)
    rng = np.random.default_rng(2)
    for _ in range(20):
        chi = rng.standard_normal(space3.n_dofs)
        lhs = d.coeffs @ (space3.mass @ chi)
        rhs = v.coeffs @ (space3.stiffness @ chi)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


# -- norms ---------------------------------------------------------------------

def test_norms_vanish_on_zero(space3):
    z = space3.function()
    assert space3.l2_norm(z) == 0.0
    assert space3.h1_seminorm(z) == 0.0
    assert space3.weighted_element_norm(z, 2.0) == 0.0
    assert space3.jump_norm(z, 1.5) == 0.0


def test_poincare_with_first_eigenvalue(space3):
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = space3.function(rng.standard_normal(space3.n_dofs))
        # conforming elements give lambda_h >= 2 pi^2, so the continuum
        # constant bounds the discrete quotient
        assert space3.l2_norm(v) <= space3.h1_seminorm(v) / np.sqrt(2.0 * PI ** 2) \
            * (1.0 + 1e-12)


def test_norms_invariant_under_dof_permutation(space3):
    v = _random_fe(space3, seed=8)
    rng = np.random.default_rng(4)
    perm = rng.permutation(space3.n_dofs)
    m_perm = space3.mass.toarray()[np.ix_(perm, perm)]
    k_perm = space3.stiffness.toarray()[np.ix_(perm, perm)]
    vp = v.coeffs[perm]
    assert abs(np.sqrt(vp @ m_perm @ vp) - space3.l2_norm(v)) <= 1e-12
    assert abs(np.sqrt(vp @ k_perm @ vp) - space3.h1_seminorm(v)) <= 1e-12


def test_weighted_element_norm_uniform_h_factor():
    for level in (3, 4, 5, 6):
        space = P1Space(build_uniform_mesh(level))
        v = _random_fe(space, seed=11)
        vals = _random_quad_values(space, seed=12)
        h = space.mesh.tri_diameters[0]
        for power in (1.0, 2.0):
            got = space.weighted_element_norm(v, power)
            assert abs(got - h ** power * space.l2_norm(v)) <= 1e-12 * got
            got = space.weighted_quad_norm(vals, power)
            assert abs(got - h ** power * space.quad_norm(vals)) <= 1e-12 * got


def test_a_mesh_of_unequal_element_diameters_is_rejected():
    mesh = build_uniform_mesh(3)
    mesh.tri_diameters = mesh.tri_diameters.copy()
    mesh.tri_diameters[5] *= 1.5
    with pytest.raises(ValueError, match="uniform mesh"):
        P1Space(mesh)


def test_weighted_element_norm_against_quadrature_oracle():
    space = P1Space(build_uniform_mesh(2))
    v = _random_fe(space, seed=13)
    vals = space.eval_q4(v)
    # independent path: numerical quadrature element by element
    per_elem = (space._q4_wa * vals ** 2).sum(axis=1)
    for power in (0.0, 2.0):
        oracle = np.sqrt((space.mesh.tri_diameters ** (2 * power) * per_elem).sum())
        assert abs(space.weighted_element_norm(v, power) - oracle) <= 1e-12


def test_jump_norm_against_facet_oracle():
    space = P1Space(build_uniform_mesh(2))
    mesh = space.mesh
    v = _random_fe(space, seed=17)
    vv = v.vertex_values()
    # independent gradient computation per triangle
    grads = np.empty((mesh.n_triangles, 2))
    for t, tri in enumerate(mesh.triangles):
        p = mesh.vertices[tri]
        mat = np.column_stack([p[:, 0], p[:, 1], np.ones(3)])
        coeff = np.linalg.solve(mat, vv[tri])
        grads[t] = coeff[:2]
    facets = interior_facets(mesh)
    for power in (0.5, 1.5):
        total = 0.0
        for (left, right), normal, length in zip(
                facets.tris, facets.normals, facets.lengths):
            jump = (grads[left] - grads[right]) @ normal
            total += length ** (2.0 * power) * jump ** 2 * length
        oracle = np.sqrt(total)
        assert abs(space.jump_norm(v, power) - oracle) <= 1e-12 * max(oracle, 1.0)


def test_jump_norm_homogeneity(space3):
    v = _random_fe(space3, seed=19)
    base = space3.jump_norm(v, 1.5)
    for c in (-3.0, 0.5):
        assert abs(space3.jump_norm(c * v, 1.5) - abs(c) * base) <= 1e-12 * base


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6, 7])
def test_operator_norms_match_gathered_oracles(level):
    space = P1Space(build_uniform_mesh(level))
    v = _random_fe(space, seed=level)
    for power in (0, 1, 2):
        want = gathered_element_norm(space, v, power)
        assert abs(space.weighted_element_norm(v, power) - want) <= 1e-12 * want
    for w in (v, nodal_interpolant(space, LINEAR, 0.0)):
        for power in (0.5, 1.5):
            want = gathered_jump_norm(space, w, power)
            assert abs(space.jump_norm(w, power) - want) <= 1e-12 * want
    vals = _random_quad_values(space, seed=level)
    for power in (0.5, 1.0, 2.0):
        want = summed_weighted_quad_norm(space, vals, power)
        assert abs(space.weighted_quad_norm(vals, power) - want) <= 1e-12 * want
    z = space.function()
    assert space.weighted_element_norm(z, 2) == 0.0
    assert space.jump_norm(z, 1.5) == 0.0


@pytest.mark.parametrize("level", [3, 4, 5])
def test_jumps_of_a_linear_interpolant_vanish_away_from_the_boundary(level):
    space = P1Space(build_uniform_mesh(level))
    mesh = space.mesh
    v = nodal_interpolant(space, LINEAR, 0.0)
    facets = interior_facets(mesh)
    jumps = facet_jumps(space, v, facets)
    touches_boundary = mesh.boundary_vertex_flags[mesh.triangles].any(axis=1)
    away = ~touches_boundary[facets.tris].any(axis=1)
    assert away.sum() > 0 and np.abs(jumps[away]).max() <= 1e-12
    # near the boundary the zero trace bends the function, so jumps appear
    assert np.abs(jumps[~away]).max() > 1.0


def test_functions_from_another_mesh_are_rejected():
    space = P1Space(build_uniform_mesh(3))
    v = _random_fe(P1Space(build_uniform_mesh(4)))
    calls = [lambda: space.l2_norm(v), lambda: space.h1_seminorm(v),
             lambda: space.weighted_element_norm(v, 2.0),
             lambda: space.jump_norm(v, 1.5), lambda: space.element_gradients(v),
             lambda: space.eval_q4(v), lambda: space.discrete_laplacian(v),
             lambda: space.field_error_l2(SIN2, 0.0, v),
             lambda: space.field_error_h1(SIN2_GRAD, 0.0, v)]
    for call in calls:
        with pytest.raises(ValueError, match="different mesh"):
            call()


# -- norms and loads of quadrature values -------------------------------------------

def _random_quad_values(space, seed=0):
    return np.random.default_rng(seed).standard_normal(space._q4_wa.shape)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_weighted_quad_norm_equals_summed_oracle_bit_for_bit(level):
    # The weighted norm is h^p times the unweighted quadrature sum, formed in
    # the oracle's order; against the per-element weights of the oracle it
    # agrees to rounding (test_operator_norms_match_gathered_oracles).
    space = P1Space(build_uniform_mesh(level))
    vals = _random_quad_values(space, seed=level)
    h = float(space.mesh.tri_diameters[0])
    for power in (0.5, 1.0, 2.0):
        assert space.weighted_quad_norm(vals, power) == \
            h ** power * summed_weighted_quad_norm(space, vals, 0.0)


def test_quad_values_of_wrong_shape_are_rejected():
    space = P1Space(build_uniform_mesh(3))
    nt = space.mesh.n_triangles
    calls = (space.quad_norm, lambda v: space.weighted_quad_norm(v, 1.0),
             space.load_from_quad_values)
    for shape in ((6,), (nt, 1), (nt, 7), (6, nt), (nt * 6,)):
        bad = np.ones(shape)
        for call in calls:
            with pytest.raises(ValueError) as info:
                call(bad)
            assert f"({nt}, 6)" in str(info.value)
            assert str(shape) in str(info.value)
    good = _random_quad_values(space)
    assert space.quad_norm(good) > 0.0
    assert space.load_from_quad_values(good).shape == (space.n_dofs,)


# -- errors against exact fields ------------------------------------------------

def test_field_error_zero_case(space3):
    z = space3.function()
    assert space3.field_error_l2(zero_field(), 0.0, z) == 0.0
    assert space3.field_error_h1((zero_field(), zero_field()), 0.0, z) == 0.0


def test_field_error_l2_analytic(space4):
    # || sin sin || = 1/2
    z = space4.function()
    assert abs(space4.field_error_l2(SIN2, 0.0, z) - 0.5) <= 1e-6


def test_field_error_h1_analytic(space4):
    # | sin sin |_1 = pi / sqrt(2)
    z = space4.function()
    got = space4.field_error_h1(SIN2_GRAD, 0.0, z)
    assert abs(got - PI / np.sqrt(2.0)) <= 1e-6


def test_interpolant_error_orders():
    l2s, h1s, hs = [], [], []
    for level in (3, 4, 5, 6):
        space = P1Space(build_uniform_mesh(level))
        v = nodal_interpolant(space, SIN2, 0.0)
        l2s.append(space.field_error_l2(SIN2, 0.0, v))
        h1s.append(space.field_error_h1(SIN2_GRAD, 0.0, v))
        hs.append(2.0 ** (-level))
    assert abs(eoc(l2s, hs)[-1] - 2.0) <= 0.15
    assert abs(eoc(h1s, hs)[-1] - 1.0) <= 0.1


# -- fields with factors -----------------------------------------------------------

def _case_fields(case):
    return (case.exact_u, *case.exact_grad_u, case.forcing_f, case.u0)


def _direct(field):
    """The same field without its factors."""
    return ScalarField(field.name, field.fn)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_factored_evaluation_equals_fn_bit_for_bit(level):
    space = P1Space(build_uniform_mesh(level))
    params = SchemeParams(make_uniform_grid(2 ** level, 1.0))
    n = params.n_steps // 2 + 1
    times = (params.time(0), *params.intermediate_times(n), params.time(n))
    v = space.function(np.random.default_rng(level).standard_normal(space.n_dofs))
    (x4, y4), (x5, y5) = space._points("q4"), space._points("q5")
    for cid in (1, 2, 3):
        case = make_case(cid)
        for field in _case_fields(case):
            assert field.factors is not None
            for t in times:
                assert np.array_equal(space.eval_field_q4(field, t), field(x4, y4, t))
                assert np.array_equal(space._quad_field(field, "q5", t),
                                      field(x5, y5, t))
                assert space.field_error_l2(field, t, v) == \
                    space.field_error_l2(_direct(field), t, v)
        for t in times:
            assert space.field_error_h1(case.exact_grad_u, t, v) == \
                space.field_error_h1(tuple(map(_direct, case.exact_grad_u)), t, v)


def test_field_without_factors_takes_the_direct_path():
    space = P1Space(build_uniform_mesh(3))
    case = varstep_case()
    v = _random_fe(space)
    (x4, y4), (x5, y5) = space._points("q4"), space._points("q5")
    stored = dict(vars(space))
    for field in _case_fields(case):
        assert field.factors is None
        for t in (0.0, 0.3):
            assert np.array_equal(space.eval_field_q4(field, t),
                                  fem_values(field, x4, y4, t))
            assert np.array_equal(space._quad_field(field, "q5", t),
                                  fem_values(field, x5, y5, t))
            space.field_error_l2(field, t, v)
        space.field_error_h1(case.exact_grad_u, 0.3, v)
    # the full coordinates are broadcast on each call and never stored
    assert vars(space).keys() == stored.keys()
    assert all(vars(space)[name] is value for name, value in stored.items())


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_factors_see_each_line_coordinate_once(level):
    space = P1Space(build_uniform_mesh(level))
    n = space.mesh.n_cells
    sizes = []

    def counting(fn):
        def wrapped(s):
            sizes.append(np.size(s))
            return fn(s)
        return wrapped

    c, fx, fy = make_case(1).forcing_f.factors
    field = ScalarField.separable("f", c, counting(fx), counting(fy))
    space.eval_field_q4(field, 0.25)
    space.field_error_l2(field, 0.25, space.function())
    # X on one cell row's points, Y on one cell column's, for q4 then q5
    assert sizes == [n * 12, n * 12, n * 14, n * 14]


def test_distinct_indices_are_intp_and_gather_the_coordinates():
    # no index array is left to convert: the per-line tables are the distinct
    # coordinates themselves, float64 and contiguous, one row per cell column
    # (x) or cell row (y), and broadcasting them gives every point
    space = P1Space(build_uniform_mesh(4))
    for rule, n_points in (("q4", 6), ("q5", 7)):
        x, y = space._points(rule)
        xs, ys = space._lines[rule]
        for table in (xs, ys):
            assert table.dtype == np.float64 and table.flags.c_contiguous
            assert table.shape == (16, 2 * n_points)
        cells = (16, 16, 2 * n_points)
        assert np.array_equal(np.broadcast_to(xs[None], cells).reshape(x.shape), x)
        assert np.array_equal(np.broadcast_to(ys[:, None], cells).reshape(y.shape), y)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_gather_indices_follow_the_cell_columns_and_rows(level):
    # the per-line tables: x by cell column and y by cell row, broadcast over
    # the other axis, give every point's coordinates
    space = P1Space(build_uniform_mesh(level))
    n = space.mesh.n_cells
    for rule in ("q4", "q5"):
        x, y = space._points(rule)
        xs, ys = space._lines[rule]
        assert xs.shape == ys.shape == (n, 2 * x.shape[1])
        cells = (n, n, 2 * x.shape[1])
        assert np.array_equal(np.broadcast_to(xs[None], cells).reshape(x.shape), x)
        assert np.array_equal(np.broadcast_to(ys[:, None], cells).reshape(y.shape), y)


def test_gather_indices_reject_another_cell_layout(monkeypatch):
    # with x and y swapped, x follows the cell row: the table build refuses
    points = P1Space._points
    monkeypatch.setattr(P1Space, "_points", lambda space, rule: points(space, rule)[::-1])
    with pytest.raises(ValueError, match="row-major cell layout"):
        P1Space(build_uniform_mesh(3))


def test_separable_constructor_groups_the_products():
    field = ScalarField.separable("g", lambda t: 3.0 * t, np.exp, np.cos)
    x, y = np.linspace(0.0, 1.0, 7), np.linspace(1.0, 2.0, 7)
    assert np.array_equal(field(x, y, 0.7), ((3.0 * 0.7) * np.exp(x)) * np.cos(y))


# -- FeFunction plumbing ---------------------------------------------------------

def test_fefunction_length_validation(space3):
    with pytest.raises(ValueError):
        FeFunction(space3.mesh, np.zeros(space3.n_dofs + 1))


def test_fefunction_mesh_mismatch():
    a = P1Space(build_uniform_mesh(2)).function()
    b = P1Space(build_uniform_mesh(3)).function()
    with pytest.raises(ValueError):
        _ = a + b


def test_fefunction_arithmetic(space3):
    v = _random_fe(space3, seed=23)
    w = _random_fe(space3, seed=29)
    assert np.allclose((v + w).coeffs, v.coeffs + w.coeffs)
    assert np.allclose((v - w).coeffs, v.coeffs - w.coeffs)
    assert np.allclose((2.0 * v).coeffs, 2.0 * v.coeffs)
    assert np.allclose((v / 4.0).coeffs, v.coeffs / 4.0)
    assert np.allclose((-v).coeffs, -v.coeffs)
