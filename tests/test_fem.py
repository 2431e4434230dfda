import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from fstheta import (ConstantsConfig, FeFunction, P1Space, ScalarField,
                     SchemeParams, build_uniform_mesh, elliptic_estimator, eoc,
                     make_case, make_uniform_grid)
from fstheta.fem import _Q4_W as fem_Q4_W
from fstheta.fem import BandMatrix
from fstheta.scheme import _SubstepPair

from helpers import (assemble_mass, assemble_stiffness, basis_gradients,
                     discrete_laplacian, facet_jumps, fe_as_field,
                     full_coordinate_field, gathered_element_norm,
                     gathered_jump_norm, grid_jump_norm, interior_facets,
                     l2_project,
                     nodal_interpolant, quadrature_points,
                     single_pass_h1_error,
                     summed_weighted_quad_norm, sympy_local_matrices,
                     triangle_geometry, varstep_case, zero_field)

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


@pytest.mark.parametrize("level", range(1, 10))
def test_stencil_operators_equal_the_assembled_band_bit_for_bit(level):
    # M and K are written from the stencil; the element-by-element assembly
    # restricted to the interior dofs is the oracle, band data and padding
    # included, so every product and solve keeps its bits.
    mesh = build_uniform_mesh(level)
    space = P1Space(mesh)
    x = np.random.default_rng(level).standard_normal(space.n_dofs)
    for got, oracle in ((space.mass, assemble_mass(mesh)),
                        (space.stiffness, assemble_stiffness(mesh))):
        want = oracle.todia()
        assert isinstance(got, sp.dia_matrix)
        assert got.offsets.tolist() == want.offsets.tolist()
        assert got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()
        assert got.nnz == want.nnz
        assert (got @ x).tobytes() == (oracle @ x).tobytes()


@pytest.mark.parametrize("level", range(1, 8))
def test_stencil_operators_equal_scipys_validated_build(level):
    # M and K are set from their bands without scipy's (data, offsets)
    # constructor; that constructor, given the same arrays, must accept them
    # and hold the same bytes, dtypes and attributes
    space = P1Space(build_uniform_mesh(level))
    for got in (space.mass, space.stiffness):
        want = BandMatrix((got.data, got.offsets), shape=got.shape)
        assert got.shape == want.shape
        for name in ("data", "offsets"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert a.flags.c_contiguous
        assert not np.shares_memory(space.mass.data, space.stiffness.data)
        extra = {"jacobi_spectrum"} if got is space.mass else set()
        assert set(vars(got)) == set(vars(want)) | extra
        assert repr(got) == repr(want) and got.nnz == want.nnz


def _band_operators(level):
    """M, K and the substep pairs at default parameters and at theta = 0.25
    with alpha1 = 0.6, with the space."""
    space = P1Space(build_uniform_mesh(level))
    operators = [space.mass, space.stiffness]
    for kw in ({}, {"theta": 0.25, "alpha1": 0.6}):
        params = SchemeParams(make_uniform_grid(2 ** level, 1.0), **kw)
        operators.extend(_SubstepPair(space, params).at(params.step_size(1)))
    return space, operators


def _scipy_dia(a):
    return sp.dia_matrix((a.data, a.offsets), shape=a.shape)


@pytest.mark.parametrize("level", range(1, 8))
def test_band_products_equal_scipys_dia_product_bit_for_bit(level):
    # the vector product calls scipy's DIA kernel directly; it must give the
    # bytes of scipy's own dia_matrix product (level 1 is the 1x1 band)
    space, operators = _band_operators(level)
    smooth = space.load_vector(make_case(1).forcing_f, 0.5)
    rand = np.random.default_rng(level).standard_normal(space.n_dofs)
    for a in operators:
        assert type(a) is BandMatrix and isinstance(a, sp.dia_matrix)
        for v in (smooth, rand):
            got = a @ v
            assert got.shape == v.shape and got.dtype == np.float64
            assert got.tobytes() == (_scipy_dia(a) @ v).tobytes()


@pytest.mark.parametrize("level", [1, 4])
def test_band_products_with_other_operands_are_scipys(level):
    space, operators = _band_operators(level)
    n = space.n_dofs
    rng = np.random.default_rng(level)
    other = (rng.standard_normal((n, 2)),                     # a block of vectors
             rng.standard_normal(2 * n)[::2],                 # a strided vector
             np.arange(n),                                    # integers
             rng.standard_normal(n).astype(np.float32),
             rng.standard_normal(n) * (1.0 + 2.0j))
    for a in operators:
        ref = _scipy_dia(a)
        for x in other:
            got, want = a @ x, ref @ x
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
        csr = sp.csr_matrix(rng.standard_normal((n, 3)))
        assert ((a @ csr) != (ref @ csr)).nnz == 0
        # the kernel reads a vector of the wrong length without complaint,
        # so the shape check must send it to scipy, which rejects it
        for x in (np.ones(n + 1), np.ones(n - 1)):
            with pytest.raises(ValueError):
                a @ x


@pytest.mark.parametrize("level", range(1, 8))
def test_band_diagonal_is_scipys_bit_for_bit(level):
    # diagonal() answers k = 0 from the held offset-0 band; it must give the
    # bytes and dtype of scipy's own (level 1 is the one-band 1x1 matrix)
    space, operators = _band_operators(level)
    if level == 1:
        assert [a.offsets.tolist() for a in operators] == [[0]] * 6
    for a in operators:
        want = _scipy_dia(a).diagonal()
        for got in (a.diagonal(), a.diagonal(0), a.diagonal(k=0)):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("level", [1, 4])
def test_band_diagonal_off_zero_goes_to_scipy(level, monkeypatch):
    space, operators = _band_operators(level)
    n, m = space.n_dofs, 2 ** level - 1
    calls = []
    scipys = sp.dia_matrix.diagonal

    def recorded(self, k=0):
        calls.append(k)
        return scipys(self, k)

    monkeypatch.setattr(sp.dia_matrix, "diagonal", recorded)
    offsets = (1, -1, m, -m, m + 1, -(m + 1), 2, -3, n, -n)
    for a in operators:
        a.diagonal()
        assert calls == []
        for k in offsets:
            got = a.diagonal(k)
            want = scipys(_scipy_dia(a), k)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
        assert calls == list(offsets)
        calls.clear()


def test_band_products_see_changes_to_the_bands():
    # the kernel with its arguments bound and the offset-0 band are held per
    # matrix; a product, by @ or by the held kernel into a zeroed buffer,
    # must see an in-place change to the bands, and a new data or offsets
    # array (scipy's setdiag assigns both for a new offset)
    space, (mass, *_) = _band_operators(4)
    a = BandMatrix((mass.data.copy(), mass.offsets.copy()), shape=mass.shape)
    v = np.random.default_rng(4).standard_normal(space.n_dofs)
    before = (a @ v).tobytes(), a.diagonal().tobytes()

    def check():
        assert (a @ v).tobytes() == (_scipy_dia(a) @ v).tobytes()
        out = np.zeros(space.n_dofs)
        a.matvec_add(v, out)
        assert out.tobytes() == (_scipy_dia(a) @ v).tobytes()
        assert a.diagonal().tobytes() == _scipy_dia(a).diagonal().tobytes()

    a.data *= 3.0
    assert ((a @ v).tobytes(), a.diagonal().tobytes()) != before
    check()
    a.data[3] = 7.0
    check()
    assert (a.diagonal() == 7.0).all()
    a.data = a.data * 0.5
    check()
    a.setdiag(np.full(space.n_dofs - 2, 0.25), k=2)
    assert 2 in a.offsets.tolist()
    check()


@pytest.mark.parametrize("level", range(1, 9))
def test_element_gradients_equal_the_basis_gradient_contraction_bit_for_bit(level):
    space = P1Space(build_uniform_mesh(level))
    v = _random_fe(space, seed=level)
    loc = v.vertex_values()[space.mesh.triangles]
    want = np.einsum("ti,tid->td", loc, basis_gradients(space.mesh))
    got = space.element_gradients(v)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
    support_area = triangle_geometry(mesh).areas[support].sum()
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
    p = l2_project(space3, zero_field(), 0.0)
    assert (p.coeffs == 0.0).all()


def test_projection_is_identity_on_the_space(space3):
    v = _random_fe(space3, seed=5)
    p = l2_project(space3, fe_as_field(v), 0.0)
    assert np.abs(p.coeffs - v.coeffs).max() <= 1e-10 * np.abs(v.coeffs).max()


def test_projection_error_second_order():
    errs, hs = [], []
    for level in (3, 4, 5, 6):
        space = P1Space(build_uniform_mesh(level))
        p = l2_project(space, SIN2, 0.0)
        errs.append(space.field_error_l2(SIN2, 0.0, p))
        hs.append(2.0 ** (-level))
    orders = eoc(errs, hs)
    assert all(o >= 1.85 for o in orders)
    assert abs(orders[-1] - 2.0) <= 0.1


# -- discrete laplacian -------------------------------------------------------

def test_discrete_laplacian_of_zero(space3):
    z = space3.function()
    assert (discrete_laplacian(space3, z).coeffs == 0.0).all()


def test_discrete_laplacian_on_eigenvector(space4, eig4):
    lams, vecs = eig4
    v = space4.function(vecs[:, 0])
    d = discrete_laplacian(space4, v)
    assert np.abs(d.coeffs - lams[0] * v.coeffs).max() <= 1e-8 * lams[0]


def test_discrete_laplacian_defining_identity(space3):
    v = _random_fe(space3, seed=1)
    d = discrete_laplacian(space3, v)
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
        h = triangle_geometry(space.mesh).diameters[0]
        for power in (1.0, 2.0):
            got = space.weighted_element_norm(v, power)
            assert abs(got - h ** power * space.l2_norm(v)) <= 1e-12 * got
            got = space.weighted_quad_norm(vals, power)
            assert abs(got - h ** power * space.quad_norm(vals)) <= 1e-12 * got


def test_weighted_element_norm_against_quadrature_oracle():
    space = P1Space(build_uniform_mesh(2))
    v = _random_fe(space, seed=13)
    vals = space.eval_q4(v)
    # independent path: numerical quadrature element by element
    geom = triangle_geometry(space.mesh)
    per_elem = geom.areas * (vals ** 2 @ fem_Q4_W)
    for power in (0.0, 2.0):
        oracle = np.sqrt((geom.diameters ** (2 * power) * per_elem).sum())
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


@pytest.mark.parametrize("level", range(1, 8))
def test_stacked_norms_equal_the_single_vector_norms_bit_for_bit(level):
    # step_estimates takes its norms in one stacked call per kind; each row,
    # wherever it sits in the stack, must give the bytes of the one-function
    # method and of the allocating expressions it replaced
    space = P1Space(build_uniform_mesh(level))
    n = space.n_dofs
    mass, stiffness = _scipy_dia(space.mass), _scipy_dia(space.stiffness)
    smooth = [nodal_interpolant(space, g, 0.3).coeffs
              for g in (SIN2, LINEAR, make_case(1).exact_u)]
    rows = np.array([*np.random.default_rng(level).standard_normal((10, n)),
                     *smooth, np.zeros(n)])
    assert rows.shape == (14, n)
    for stack in (rows[:1], rows[10:11], rows):
        functions = [space.function(row) for row in stack]
        for stacked, single, matrix in (
                (space.l2_norms(stack), space.l2_norm, mass),
                (space.h1_seminorms(stack), space.h1_seminorm, stiffness)):
            assert len(stacked) == len(stack)
            for got, v in zip(stacked, functions):
                want = float(np.sqrt(max(v.coeffs.dot(matrix @ v.coeffs), 0.0)))
                assert np.float64(got).tobytes() == np.float64(single(v)).tobytes()
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
        for power in (1.0, 1.5, 2.0):
            stacked = space.jump_norms(stack, power)
            assert len(stacked) == len(stack)
            for got, v in zip(stacked, functions):
                want = grid_jump_norm(space, v, power)
                assert np.float64(got).tobytes() == np.float64(
                    space.jump_norm(v, power)).tobytes()
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert space.l2_norms(rows[-1:]) == space.h1_seminorms(rows[-1:]) == [0.0]
    assert space.jump_norms(rows[-1:], 1.5) == [0.0]
    # a row of another length would make the kernel read past its end
    for bad in (rows[:, :-1], rows[0], rows[None]):
        for norms in (space.l2_norms, space.h1_seminorms):
            with pytest.raises(ValueError, match="coefficient rows"):
                norms(bad)
        with pytest.raises(ValueError, match="coefficient rows"):
            space.jump_norms(bad, 1.5)


@pytest.mark.parametrize("level", [3, 4, 5])
def test_jumps_of_a_linear_interpolant_vanish_away_from_the_boundary(level):
    space = P1Space(build_uniform_mesh(level))
    mesh = space.mesh
    v = nodal_interpolant(space, LINEAR, 0.0)
    facets = interior_facets(mesh)
    jumps = facet_jumps(space, v, facets)
    on_boundary = ((mesh.vertices == 0.0) | (mesh.vertices == 1.0)).any(axis=1)
    touches_boundary = on_boundary[mesh.triangles].any(axis=1)
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
             lambda: space.eval_q4(v),
             lambda: elliptic_estimator(space, v, ConstantsConfig()),
             lambda: space.field_error_l2(SIN2, 0.0, v),
             lambda: space.field_error_h1(SIN2_GRAD, 0.0, v)]
    for call in calls:
        with pytest.raises(ValueError, match="different mesh"):
            call()


# -- norms and loads of quadrature values -------------------------------------------

def _random_quad_values(space, seed=0):
    return np.random.default_rng(seed).standard_normal((space.mesh.n_triangles, 6))


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_weighted_quad_norm_equals_summed_oracle_bit_for_bit(level):
    # The weighted norm is h^p times the unweighted quadrature sum, formed in
    # the oracle's order; against the per-element weights of the oracle it
    # agrees to rounding (test_operator_norms_match_gathered_oracles).
    space = P1Space(build_uniform_mesh(level))
    vals = _random_quad_values(space, seed=level)
    h = float(triangle_geometry(space.mesh).diameters[0])
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


@pytest.mark.parametrize("level", [1, 2, 5, 7])
def test_blocked_h1_error_equals_one_pass_bit_for_bit(level):
    # level 7 takes several blocks of cell rows, the last one partial
    space = P1Space(build_uniform_mesh(level))
    v = space.function(np.random.default_rng(level).standard_normal(space.n_dofs))
    for g_grad in (SIN2_GRAD, make_case(2).exact_grad_u, varstep_case().exact_grad_u):
        for t in (0.0, 0.3):
            assert space.field_error_h1(g_grad, t, v) == \
                single_pass_h1_error(space, g_grad, t, v)


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


# -- fields on the per-line tables ----------------------------------------------

def _case_fields(case):
    return (case.exact_u, *case.exact_grad_u, case.forcing_f, case.u0)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_factored_evaluation_equals_fn_bit_for_bit(level):
    # every field is called once on the per-line tables, x by cell column and
    # y by cell row; its values, and the error norms read from them, equal
    # fn at the full coordinates of every point, for the separable built-in
    # cases and the non-separable varstep case alike
    space = P1Space(build_uniform_mesh(level))
    params = SchemeParams(make_uniform_grid(2 ** level, 1.0))
    n = params.n_steps // 2 + 1
    times = (params.time(0), *params.intermediate_times(n), params.time(n))
    v = space.function(np.random.default_rng(level).standard_normal(space.n_dofs))
    (x4, y4), (x5, y5) = (quadrature_points(space, rule) for rule in ("q4", "q5"))
    stored = dict(vars(space))
    for case in (make_case(1), make_case(2), make_case(3), varstep_case()):
        for field in _case_fields(case):
            full = full_coordinate_field(field)
            for t in times:
                assert np.array_equal(space.eval_field_q4(field, t), field(x4, y4, t))
                assert np.array_equal(space._quad_field(field, "q5", t),
                                      field(x5, y5, t))
                assert space.field_error_l2(field, t, v) == \
                    space.field_error_l2(full, t, v)
        for t in times:
            assert space.field_error_h1(case.exact_grad_u, t, v) == \
                space.field_error_h1(tuple(map(full_coordinate_field,
                                               case.exact_grad_u)), t, v)
    # the space stores nothing per call
    assert vars(space).keys() == stored.keys()
    assert all(vars(space)[name] is value for name, value in stored.items())


def test_field_without_factors_takes_the_direct_path():
    # the varstep fields are not products of 1-D parts; on the per-line tables
    # they give exactly what they give on the full coordinates, and no
    # coordinate array is kept on the space
    space = P1Space(build_uniform_mesh(3))
    case = varstep_case()
    v = _random_fe(space)
    (x4, y4), (x5, y5) = (quadrature_points(space, rule) for rule in ("q4", "q5"))
    stored = dict(vars(space))
    for field in _case_fields(case):
        full = full_coordinate_field(field)
        for t in (0.0, 0.3):
            assert np.array_equal(space.eval_field_q4(field, t), full(x4, y4, t))
            assert np.array_equal(space._quad_field(field, "q5", t),
                                  full(x5, y5, t))
            assert space.field_error_l2(field, t, v) == \
                space.field_error_l2(full, t, v)
    assert space.field_error_h1(case.exact_grad_u, 0.3, v) == \
        space.field_error_h1(tuple(map(full_coordinate_field, case.exact_grad_u)),
                             0.3, v)
    assert vars(space).keys() == stored.keys()
    assert all(vars(space)[name] is value for name, value in stored.items())


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_factors_see_each_line_coordinate_once(level):
    # the x-part and the y-part of a plain ScalarField run on the tables only
    space = P1Space(build_uniform_mesh(level))
    n = space.mesh.n_cells
    sizes = []

    def counting(fn):
        def wrapped(s):
            sizes.append(np.size(s))
            return fn(s)
        return wrapped

    sin_x, sin_y = counting(lambda s: np.sin(PI * s)), counting(lambda s: np.sin(PI * s))
    field = ScalarField("f", lambda x, y, t: (np.cos(PI * t) * sin_x(x)) * sin_y(y))
    space.eval_field_q4(field, 0.25)
    space.field_error_l2(field, 0.25, space.function())
    # X on one cell row's points, Y on one cell column's, for q4 then q5
    assert sizes == [n * 12, n * 12, n * 14, n * 14]


@pytest.mark.parametrize("field", [
    zero_field(), ScalarField("t", lambda x, y, t: 2.0 * t),
    ScalarField("x", lambda x, y, t: x), ScalarField("int", lambda x, y, t: 3)],
    ids=["zero", "t", "x", "int"])
def test_smaller_results_broadcast_to_full_writable_arrays(space3, field):
    for rule, n_points in (("q4", 6), ("q5", 7)):
        x, y = quadrature_points(space3, rule)
        vals = space3._quad_field(field, rule, 0.5)
        assert vals.shape == (space3.mesh.n_triangles, n_points)
        assert vals.dtype == np.float64 and vals.flags.writeable
        assert np.array_equal(vals, np.broadcast_to(field(x, y, 0.5), x.shape))


def test_badly_shaped_field_fails_fast(space3):
    field = ScalarField("flat", lambda x, y, t: x.ravel())
    with pytest.raises(ValueError, match=r"'flat'.*\(96,\).*q4.*\(8, 8, 12\)"):
        space3.eval_field_q4(field, 0.0)
    with pytest.raises(ValueError, match=r"'flat'.*\(112,\).*q5.*\(8, 8, 14\)"):
        space3.field_error_l2(field, 0.0, space3.function())


def test_distinct_indices_are_intp_and_gather_the_coordinates():
    # no index array is left to convert: the per-line tables are the distinct
    # coordinates themselves, float64 and contiguous, one row per cell column
    # (x) or cell row (y), and broadcasting them gives every point
    space = P1Space(build_uniform_mesh(4))
    for rule, n_points in (("q4", 6), ("q5", 7)):
        x, y = quadrature_points(space, rule)
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
        x, y = quadrature_points(space, rule)
        xs, ys = space._lines[rule]
        assert xs.shape == ys.shape == (n, 2 * x.shape[1])
        cells = (n, n, 2 * x.shape[1])
        assert np.array_equal(np.broadcast_to(xs[None], cells).reshape(x.shape), x)
        assert np.array_equal(np.broadcast_to(ys[:, None], cells).reshape(y.shape), y)


def test_gather_indices_reject_another_cell_layout():
    # with x and y swapped, x follows the cell row: the table build refuses
    mesh = build_uniform_mesh(3)
    mesh.vertices = mesh.vertices[:, ::-1].copy()
    with pytest.raises(ValueError, match="row-major cell layout"):
        P1Space(mesh)


def test_separable_constructor_groups_the_products():
    # the built-in cases form (c(t) * X(x)) * Y(y), grouped exactly so
    a, t = PI, 0.7
    x, y = np.linspace(0.0, 1.0, 7)[None], np.linspace(1.0, 2.0, 7)[:, None]
    case = make_case(1)
    c = PI * np.cos(PI * t) + 2.0 * a * a * np.sin(PI * t)
    assert np.array_equal(case.forcing_f(x, y, t),
                          (c * np.sin(a * x)) * np.sin(a * y))
    assert np.array_equal(case.exact_grad_u[0](x, y, t),
                          (a * np.sin(PI * t) * np.cos(a * x)) * np.sin(a * y))


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
