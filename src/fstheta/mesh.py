"""Uniform triangulations of the unit square.

A mesh is built once per refinement level and treated as immutable
afterwards, so instances can be shared read-only between concurrent runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

MAX_LEVEL = 12


def check_level(level) -> None:
    """Raise ``ConfigurationError`` unless ``level`` is an integer in
    [1, MAX_LEVEL]."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise ConfigurationError(f"mesh level must be an integer, got {level!r}")
    if not 1 <= level <= MAX_LEVEL:
        raise ConfigurationError(
            f"mesh level must lie in [1, {MAX_LEVEL}], got {level}")


class Mesh:
    """Triangulation of [0,1]^2 with ``2**level`` square cells per side.

    Every cell is split into two triangles along its diagonal of positive
    slope (orientation fixed for reproducibility), so all elements share
    the diameter ``sqrt(2) / 2**level``.  Vertex ``row * (n + 1) + column``
    lies at (column / n, row / n), and cell (row, column) holds triangles
    ``2 * (row * n + column)`` (lower) and ``+ 1`` (upper): ``P1Space``
    reads its operators, quadrature tables, gradients and facet jumps off
    this row-major layout, so the mesh stores no per-triangle geometry and
    no facet data.  The dofs are the ``interior_vertices`` in ascending
    order; boundary vertices carry the value zero (homogeneous Dirichlet
    data).
    """

    def __init__(self, level: int):
        check_level(level)
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

        inner = (np.arange(n + 1) > 0) & (np.arange(n + 1) < n)
        self.interior_vertices = np.flatnonzero(inner[:, None] & inner)
        self.n_dofs = int(self.interior_vertices.size)

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

