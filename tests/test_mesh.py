import numpy as np
import pytest

from fstheta import ConfigurationError, build_uniform_mesh

from helpers import enumerate_edges, interior_facets, triangle_geometry


@pytest.mark.parametrize("level", [0, -1, 13, 2.5, "3"])
def test_level_out_of_range_raises(level):
    with pytest.raises(ConfigurationError):
        build_uniform_mesh(level)


def test_level1_counts():
    m = build_uniform_mesh(1)
    assert m.n_cells == 2
    assert m.n_vertices == 9
    assert m.n_triangles == 2 * m.n_cells ** 2 == 8
    assert m.n_dofs == 1
    assert triangle_geometry(m).diameters.max() == np.sqrt(2.0) / 2.0


def test_level3_counts_by_grid_enumeration():
    # oracle: direct counting on the 8x8 cell grid
    m = build_uniform_mesh(3)
    n = 8
    assert m.n_vertices == (n + 1) ** 2 == 81
    assert m.n_triangles == 2 * n ** 2 == 128
    assert m.n_dofs == (n - 1) ** 2 == 49


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_triangle_areas_partition_unit_square(level):
    m = build_uniform_mesh(level)
    assert abs(triangle_geometry(m).areas.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("level", [1, 2, 3])
def test_facets_against_edge_enumeration_oracle(level):
    m = build_uniform_mesh(level)
    edges = enumerate_edges(m.triangles)
    interior = {e for e, tris in edges.items() if len(tris) == 2}
    boundary = {e for e, tris in edges.items() if len(tris) == 1}
    assert all(len(tris) in (1, 2) for tris in edges.values())
    assert interior | boundary == set(edges)
    facets = interior_facets(m)
    assert len(facets.vertices) == len(interior)
    assert facets.n_boundary == len(boundary)
    got = {tuple(sorted(map(int, ends))) for ends in facets.vertices}
    assert got == interior
    # every interior facet lists exactly the two triangles the oracle found
    for ends, tris in zip(facets.vertices, facets.tris):
        key = tuple(sorted(map(int, ends)))
        assert set(map(int, tris)) == set(edges[key])


def test_level1_interior_facet_count():
    # frozen from the enumeration oracle: 4 diagonals + 2 vertical + 2
    # horizontal interior edges
    facets = interior_facets(build_uniform_mesh(1))
    assert len(facets.vertices) == 8
    assert facets.tris.shape == (8, 2)
    assert (facets.tris >= 0).all()


def test_level2_interior_count_from_boundary_count():
    m = build_uniform_mesh(2)
    edges = enumerate_edges(m.triangles)
    n_boundary = sum(1 for tris in edges.values() if len(tris) == 1)
    assert n_boundary == 4 * m.n_cells == 16
    assert len(interior_facets(m).vertices) == len(edges) - n_boundary


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_euler_relation(level):
    m = build_uniform_mesh(level)
    n_edges = len(enumerate_edges(m.triangles))
    assert m.n_vertices - n_edges + m.n_triangles == 1


@pytest.mark.parametrize("level", [1, 3, 5])
def test_unit_normals_and_orientation(level):
    m = build_uniform_mesh(level)
    f = interior_facets(m)
    norms = np.hypot(f.normals[:, 0], f.normals[:, 1])
    assert np.abs(norms - 1.0).max() <= 1e-14
    # normal points from left_tri toward right_tri
    centroids = m.vertices[m.triangles].mean(axis=1)
    mid = 0.5 * (m.vertices[f.vertices[:, 0]] + m.vertices[f.vertices[:, 1]])
    to_right = ((centroids[f.tris[:, 1]] - mid) * f.normals).sum(1)
    to_left = ((centroids[f.tris[:, 0]] - mid) * f.normals).sum(1)
    assert (to_right > 0).all()
    assert (to_left < 0).all()


def test_facet_adjacency_symmetric():
    m = build_uniform_mesh(2)
    facets = interior_facets(m)
    for ends, tris in zip(facets.vertices, facets.tris):
        for tri in tris:
            assert set(ends) <= set(m.triangles[tri])


@pytest.mark.parametrize("level", [1, 2, 3, 6])
def test_max_diameter_exact(level):
    m = build_uniform_mesh(level)
    assert triangle_geometry(m).diameters.max() == np.sqrt(2.0) * 2.0 ** (-level)


def test_vertex_nesting():
    for level in (1, 2, 3):
        coarse = build_uniform_mesh(level)
        fine = build_uniform_mesh(level + 1)
        fine_set = {(round(x, 12), round(y, 12)) for x, y in fine.vertices}
        assert all((round(x, 12), round(y, 12)) in fine_set
                   for x, y in coarse.vertices)


def test_triangles_counterclockwise():
    m = build_uniform_mesh(3)
    pts = m.vertices[m.triangles]
    cross = ((pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1])
             - (pts[:, 2, 0] - pts[:, 0, 0]) * (pts[:, 1, 1] - pts[:, 0, 1]))
    assert (cross > 0).all()


def test_interior_vertices_are_the_vertices_off_the_boundary():
    for level in (1, 2, 3):
        m = build_uniform_mesh(level)
        on_boundary = ((m.vertices == 0.0) | (m.vertices == 1.0)).any(axis=1)
        assert m.interior_vertices.tolist() == np.flatnonzero(~on_boundary).tolist()
        assert m.n_dofs == (m.n_cells - 1) ** 2


def test_facet_arrays_agree_in_length_and_are_positive():
    f = interior_facets(build_uniform_mesh(2))
    nf = len(f.vertices)
    assert f.vertices.shape == f.tris.shape == (nf, 2)
    assert f.normals.shape == (nf, 2)
    assert f.lengths.shape == (nf,)
    assert (f.lengths > 0).all()
