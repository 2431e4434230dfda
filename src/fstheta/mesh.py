"""Uniform triangulations of the unit square.

A mesh is built once per refinement level and treated as immutable
afterwards, so instances can be shared read-only between concurrent runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

MAX_LEVEL = 12


class Mesh:
    """Triangulation of [0,1]^2 with ``2**level`` square cells per side.

    Every cell is split into two triangles along its diagonal of positive
    slope (orientation fixed for reproducibility), so all elements share
    the diameter ``sqrt(2) / 2**level``.  ``dof_map`` enumerates interior
    vertices only; boundary vertices carry the value zero (homogeneous
    Dirichlet data).
    """

    def __init__(self, level: int):
        if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
            raise ConfigurationError(f"mesh level must be an integer, got {level!r}")
        if not 1 <= level <= MAX_LEVEL:
            raise ConfigurationError(
                f"mesh level must lie in [1, {MAX_LEVEL}], got {level}")

        n = 2 ** int(level)
        self.level = int(level)
        self.n_cells = n

        xs = np.arange(n + 1) / n
        X, Y = np.meshgrid(xs, xs, indexing="xy")
        self.vertices = np.column_stack([X.ravel(), Y.ravel()])

        # two counterclockwise triangles per cell, lower one first
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        v00 = (jj * (n + 1) + ii).ravel()
        v10 = v00 + 1
        v01 = v00 + (n + 1)
        v11 = v01 + 1
        tris = np.empty((2 * n * n, 3), dtype=np.int64)
        tris[0::2] = np.column_stack([v00, v10, v11])
        tris[1::2] = np.column_stack([v00, v11, v01])
        self.triangles = tris

        cell = 1.0 / n
        nt = tris.shape[0]
        self.tri_areas = np.full(nt, 0.5 * cell * cell)
        self.tri_diameters = np.full(nt, np.sqrt(2.0) * cell)

        gi = np.arange((n + 1) ** 2)
        col = gi % (n + 1)
        row = gi // (n + 1)
        self.boundary_vertex_flags = (col == 0) | (col == n) | (row == 0) | (row == n)
        self.interior_vertices = np.flatnonzero(~self.boundary_vertex_flags)
        self.dof_map = np.full((n + 1) ** 2, -1, dtype=np.int64)
        self.dof_map[self.interior_vertices] = np.arange(self.interior_vertices.size)
        self.n_dofs = int(self.interior_vertices.size)

        self._build_facets()

    def _build_facets(self):
        """Interior facets as arrays: ``facet_vertices`` (endpoints),
        ``facet_lengths``, ``facet_normals`` (unit length, pointing from
        ``facet_tris[:, 0]`` toward ``facet_tris[:, 1]``)."""
        tris = self.triangles
        nt = tris.shape[0]
        edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        tri_of_edge = np.tile(np.arange(nt), 3)
        edges = np.sort(edges, axis=1)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        tri_of_edge = tri_of_edge[order]

        # interior edges occur exactly twice and end up adjacent after sorting
        dup = np.flatnonzero((edges[1:] == edges[:-1]).all(axis=1))
        verts = edges[dup]
        left = tri_of_edge[dup].copy()
        right = tri_of_edge[dup + 1].copy()
        self.n_boundary_facets = int(edges.shape[0] - 2 * dup.size)

        pa = self.vertices[verts[:, 0]]
        pb = self.vertices[verts[:, 1]]
        d = pb - pa
        lengths = np.hypot(d[:, 0], d[:, 1])
        normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]

        # orient so the normal points from the left triangle toward the right
        mid = 0.5 * (pa + pb)
        centroids = self.vertices[tris].mean(axis=1)
        side = ((centroids[left] - mid) * normals).sum(axis=1)
        swap = side > 0
        left[swap], right[swap] = right[swap], left[swap]

        self.facet_vertices = verts
        self.facet_lengths = lengths
        self.facet_normals = normals
        self.facet_tris = np.column_stack([left, right])

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def __repr__(self):
        return (f"Mesh(level={self.level}, vertices={self.n_vertices}, "
                f"triangles={self.n_triangles}, dofs={self.n_dofs})")


def build_uniform_mesh(level: int) -> Mesh:
    """Mesh of 2**level cells per side, each split along its positive-slope
    diagonal."""
    return Mesh(level)

