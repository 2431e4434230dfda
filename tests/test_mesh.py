import numpy as np
import pytest

from fstheta import ConfigurationError, build_uniform_mesh

from helpers import enumerate_edges


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
    assert m.tri_diameters.max() == np.sqrt(2.0) / 2.0


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
    assert abs(m.tri_areas.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("level", [1, 2, 3])
def test_facets_against_edge_enumeration_oracle(level):
    m = build_uniform_mesh(level)
    edges = enumerate_edges(m.triangles)
    interior = {e for e, tris in edges.items() if len(tris) == 2}
    boundary = {e for e, tris in edges.items() if len(tris) == 1}
    assert all(len(tris) in (1, 2) for tris in edges.values())
    assert interior | boundary == set(edges)
    assert len(m.facet_vertices) == len(interior)
    assert m.n_boundary_facets == len(boundary)
    got = {tuple(sorted(map(int, ends))) for ends in m.facet_vertices}
    assert got == interior
    # every interior facet lists exactly the two triangles the oracle found
    for ends, tris in zip(m.facet_vertices, m.facet_tris):
        key = tuple(sorted(map(int, ends)))
        assert set(map(int, tris)) == set(edges[key])


def test_level1_interior_facet_count():
    # frozen from the enumeration oracle: 4 diagonals + 2 vertical + 2
    # horizontal interior edges
    m = build_uniform_mesh(1)
    assert len(m.facet_vertices) == 8
    assert m.facet_tris.shape == (8, 2)
    assert (m.facet_tris >= 0).all()


def test_level2_interior_count_from_boundary_count():
    m = build_uniform_mesh(2)
    edges = enumerate_edges(m.triangles)
    n_boundary = sum(1 for tris in edges.values() if len(tris) == 1)
    assert n_boundary == 4 * m.n_cells == 16
    assert len(m.facet_vertices) == len(edges) - n_boundary


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_euler_relation(level):
    m = build_uniform_mesh(level)
    n_edges = len(enumerate_edges(m.triangles))
    assert m.n_vertices - n_edges + m.n_triangles == 1


@pytest.mark.parametrize("level", [1, 3, 5])
def test_unit_normals_and_orientation(level):
    m = build_uniform_mesh(level)
    norms = np.hypot(m.facet_normals[:, 0], m.facet_normals[:, 1])
    assert np.abs(norms - 1.0).max() <= 1e-14
    # normal points from left_tri toward right_tri
    centroids = m.vertices[m.triangles].mean(axis=1)
    mid = 0.5 * (m.vertices[m.facet_vertices[:, 0]]
                 + m.vertices[m.facet_vertices[:, 1]])
    to_right = ((centroids[m.facet_tris[:, 1]] - mid) * m.facet_normals).sum(1)
    to_left = ((centroids[m.facet_tris[:, 0]] - mid) * m.facet_normals).sum(1)
    assert (to_right > 0).all()
    assert (to_left < 0).all()


def test_facet_adjacency_symmetric():
    m = build_uniform_mesh(2)
    for ends, tris in zip(m.facet_vertices, m.facet_tris):
        for tri in tris:
            assert set(ends) <= set(m.triangles[tri])


@pytest.mark.parametrize("level", [1, 2, 3, 6])
def test_max_diameter_exact(level):
    m = build_uniform_mesh(level)
    assert m.tri_diameters.max() == np.sqrt(2.0) * 2.0 ** (-level)


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


def test_dof_map_enumerates_interior_vertices():
    m = build_uniform_mesh(2)
    assert (m.dof_map[m.boundary_vertex_flags] == -1).all()
    inner = m.dof_map[~m.boundary_vertex_flags]
    assert sorted(inner) == list(range(m.n_dofs))


def test_facet_arrays_agree_in_length_and_are_positive():
    m = build_uniform_mesh(2)
    nf = len(m.facet_vertices)
    assert m.facet_vertices.shape == m.facet_tris.shape == (nf, 2)
    assert m.facet_normals.shape == (nf, 2)
    assert m.facet_lengths.shape == (nf,)
    assert (m.facet_lengths > 0).all()
