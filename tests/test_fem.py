import numpy as np
import pytest
import scipy.linalg

from fstheta import (FeFunction, P1Space, ScalarField, assemble_mass,
                     assemble_stiffness, build_uniform_mesh, eoc, zero_field)

from helpers import fe_as_field, sympy_local_matrices

PI = np.pi
SIN2 = ScalarField("sin.sin", lambda x, y, t: np.sin(PI * x) * np.sin(PI * y))
SIN2_GRAD = (ScalarField("dx", lambda x, y, t: PI * np.cos(PI * x) * np.sin(PI * y)),
             ScalarField("dy", lambda x, y, t: PI * np.sin(PI * x) * np.cos(PI * y)))


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
    assert abs(space3.mass_full.sum() - 1.0) <= 1e-13


def test_mass_symmetric_positive(space3):
    m = space3.mass
    asym = abs(m - m.T).max()
    assert asym <= 1e-13 * abs(m).max()
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = rng.standard_normal(space3.n_dofs)
        assert v @ (m @ v) > 0.0


def test_stiffness_annihilates_constants(space3):
    ones = np.ones(space3.mesh.n_vertices)
    assert np.abs(space3.stiffness_full @ ones).max() <= 1e-12


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


def test_weighted_element_norm_uniform_h_factor(space3):
    v = _random_fe(space3, seed=11)
    h = space3.mesh.tri_diameters[0]
    for power in (1.0, 2.0):
        got = space3.weighted_element_norm(v, power)
        assert abs(got - h ** power * space3.l2_norm(v)) <= 1e-12 * got


def test_weighted_element_norm_against_quadrature_oracle():
    space = P1Space(build_uniform_mesh(2))
    v = _random_fe(space, seed=13)
    vals = space.eval_q4(v)
    # independent path: numerical quadrature element by element
    per_elem = (space._q4_wa * vals ** 2).sum(axis=1)
    for power in (0.0, 2.0):
        oracle = np.sqrt((space.mesh.tri_diameters ** (2 * power) * per_elem).sum())
        assert abs(space.weighted_element_norm(v, power) - oracle) <= 1e-12


def test_weighted_element_norm_piecewise_constant_input(space3):
    c = np.full(space3.mesh.n_triangles, 3.0)
    h = space3.mesh.tri_diameters[0]
    # constant field of value 3: norm is 3 h^p over the unit-area domain
    assert abs(space3.weighted_element_norm(c, 1.0) - 3.0 * h) <= 1e-13


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
    for power in (0.5, 1.5):
        total = 0.0
        for (left, right), normal, length in zip(
                mesh.facet_tris, mesh.facet_normals, mesh.facet_lengths):
            jump = (grads[left] - grads[right]) @ normal
            total += length ** (2.0 * power) * jump ** 2 * length
        oracle = np.sqrt(total)
        assert abs(space.jump_norm(v, power) - oracle) <= 1e-12 * max(oracle, 1.0)


def test_jump_norm_homogeneity(space3):
    v = _random_fe(space3, seed=19)
    base = space3.jump_norm(v, 1.5)
    for c in (-3.0, 0.5):
        assert abs(space3.jump_norm(c * v, 1.5) - abs(c) * base) <= 1e-12 * base


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
        v = space.nodal_interpolant(SIN2, 0.0)
        l2s.append(space.field_error_l2(SIN2, 0.0, v))
        h1s.append(space.field_error_h1(SIN2_GRAD, 0.0, v))
        hs.append(2.0 ** (-level))
    assert abs(eoc(l2s, hs)[-1] - 2.0) <= 0.15
    assert abs(eoc(h1s, hs)[-1] - 1.0) <= 0.1


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


def test_fefunction_save_text(tmp_path, space3):
    v = _random_fe(space3, seed=31)
    path = tmp_path / "vec.txt"
    v.save_text(path)
    assert np.allclose(np.loadtxt(path), v.coeffs)
