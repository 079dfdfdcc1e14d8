"""Structured meshes and subdomain partitions for the two idealized geometries.

The domain is always the unit square, tessellated by ``nh x nh`` grid cells,
each split into two right triangles by the lower-left to upper-right diagonal.
Two cell layouts are supported:

* model A (nervous tissue): N square cells embedded in extracellular space,
  never touching each other, N of the form ((2^(2k)-1)/3)^2;
* model B (cardiac tissue): a sqrt(N) x sqrt(N) grid of square cells in
  direct contact filling (1/8, 7/8)^2, surrounded by an extracellular frame.

Potentials may jump across membranes, so a vertex on an interface owns one
degree of freedom per incident subdomain; the :class:`DofMap` realizes that
duplication with membrane dofs ordered last inside every subdomain block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GeometryError",
    "StructuredMesh",
    "SubdomainLabeling",
    "DofMap",
    "build_mesh",
    "label_model_a",
    "label_model_b",
    "build_dofmap",
    "check_compatible",
    "model_a_scale",
    "admissible_cells_model_a",
]


class GeometryError(ValueError):
    """Raised for inadmissible mesh sizes or incompatible (nh, N) pairs."""


@dataclass(frozen=True)
class StructuredMesh:
    """Uniform right-triangular tessellation of the unit square.

    Vertices are numbered row-by-row (x fastest), triangles cell-by-cell with
    the lower triangle (right angle at the south-east vertex) first.
    """

    nh: int
    vertices: np.ndarray  # ((nh+1)^2, 2)
    triangles: np.ndarray  # (2*nh^2, 3) vertex indices, positively oriented
    h: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class SubdomainLabeling:
    """Assignment of triangles to subdomains plus the membrane edge list.

    ``membrane_edges`` has one row ``(v0, v1, i, j)`` per mesh edge lying on
    an interface, with ``v0 < v1`` the vertex pair and ``i < j`` the two
    incident subdomains.  Edges on the outer boundary are never membranes.
    """

    model: str
    n_cells: int
    cell_of: np.ndarray  # (n_triangles,) values in 0..N
    membrane_edges: np.ndarray  # (n_membrane_edges, 4)

    @property
    def n_subdomains(self) -> int:
        return self.n_cells + 1


@dataclass(frozen=True)
class DofMap:
    """Per-subdomain dof enumeration with membrane dofs ordered last.

    Global dofs are grouped subdomain-major (extracellular block first).
    Within each block, interior dofs come first and membrane dofs occupy the
    trailing index range; both groups are sorted by mesh vertex id.
    """

    n_subdomains: int
    subdomain: np.ndarray  # (n,) owning subdomain per dof
    vertex: np.ndarray  # (n,) mesh vertex per dof
    is_membrane: np.ndarray  # (n,) bool
    block_start: np.ndarray  # (n_subdomains + 1,) block offsets
    n_gamma_per: np.ndarray  # (n_subdomains,) membrane dof count per block

    @property
    def n(self) -> int:
        return int(self.block_start[-1])

    @property
    def block_sizes(self) -> np.ndarray:
        return np.diff(self.block_start)

    @property
    def n0(self) -> int:
        return int(self.block_start[1])

    @property
    def n_in(self) -> int:
        return self.n - self.n0

    @property
    def n_gamma(self) -> int:
        """Total membrane dof count over the cell blocks (block 0 excluded)."""
        return int(self.n_gamma_per[1:].sum())

    def block_range(self, i: int) -> tuple[int, int]:
        return int(self.block_start[i]), int(self.block_start[i + 1])

    def block(self, a, i: int, j: int | None = None):
        """Block i of a global vector, or block (i, j) of a global matrix.

        ``j`` defaults to ``i``, the diagonal block.
        """
        si, ei = self.block_range(i)
        if a.ndim == 1:
            return a[si:ei]
        sj, ej = self.block_range(i if j is None else j)
        return a[si:ei, sj:ej]

    @cached_property
    def _key_order(self) -> tuple[int, np.ndarray, np.ndarray]:
        # (stride, sorted subdomain*stride + vertex keys, dofs in key order)
        stride = int(self.vertex.max()) + 1
        keys = self.subdomain * stride + self.vertex
        order = np.argsort(keys)
        return stride, keys[order], order

    def global_dofs(self, subdomain, verts: np.ndarray) -> np.ndarray:
        """Global dofs of the (subdomain, vertex) pairs, broadcast together.

        Raises ``KeyError`` if a vertex owns no dof in its subdomain.
        """
        stride, keys, order = self._key_order
        verts = np.asarray(verts)
        want = np.asarray(subdomain) * stride + verts
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        missing = (verts < 0) | (verts >= stride) | (keys[pos] != want)
        if missing.any():
            i = np.broadcast_to(subdomain, missing.shape)[missing][0]
            raise KeyError(f"vertex not present in subdomain {i}")
        return order[pos]

    def local_dofs(self, i: int, verts: np.ndarray) -> np.ndarray:
        """Local indices (within block i) of the dofs at the given vertices."""
        return self.global_dofs(i, verts) - self.block_start[i]

    def coords(self, mesh: StructuredMesh) -> np.ndarray:
        """Coordinates of every global dof."""
        return mesh.vertices[self.vertex]


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def build_mesh(nh: int) -> StructuredMesh:
    """Tessellate the unit square with ``nh`` elements per side.

    ``nh`` must be a power of two and at least 4 so that the model geometries
    can align with grid lines.
    """
    check_compatible(None, nh, 0)  # a bare mesh: nh alone
    ticks = np.arange(nh + 1) / nh
    x, y = np.meshgrid(ticks, ticks, indexing="xy")
    vertices = np.column_stack([x.ravel(), y.ravel()])

    cx, cy = np.meshgrid(np.arange(nh), np.arange(nh), indexing="xy")
    cx, cy = cx.ravel(), cy.ravel()
    sw = cy * (nh + 1) + cx
    se = sw + 1
    ne = se + nh + 1
    nw = sw + nh + 1
    triangles = np.empty((2 * nh * nh, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([sw, se, ne])  # below the diagonal
    triangles[1::2] = np.column_stack([sw, ne, nw])  # above the diagonal
    return StructuredMesh(nh=nh, vertices=vertices, triangles=triangles, h=1.0 / nh)


def model_a_scale(n_cells: int) -> int:
    """Partition scale 3*sqrt(N)+1 for an admissible model-A cell count."""
    root = int(round(np.sqrt(n_cells)))
    if root * root != n_cells:
        raise GeometryError(f"model A requires a square cell count, got {n_cells}")
    scale = 3 * root + 1
    # admissible N = ((2^(2k)-1)/3)^2  <=>  scale = 4^k
    k = scale.bit_length() - 1
    if scale != 1 << k or k % 2 != 0:
        raise GeometryError(
            f"model A cell count must be of the form ((4^k-1)/3)^2; got N={n_cells}"
        )
    return scale


def _layout(model: str | None, nh: int, n_cells: int) -> tuple[int, int, int, int]:
    """Cell layout ``(root, origin, pitch, side)`` of N > 0 cells, in mesh squares.

    The cells form a root x root grid, root = sqrt(N); cell column c covers
    the squares ``origin + pitch*c + [0, side)`` along x, and likewise along
    y.  Model A has ``unit = nh/(3*sqrt(N)+1)``, origin ``unit``, pitch
    ``3*unit`` and side ``2*unit``; model B fills (1/8, 7/8) with origin
    ``nh/8`` and pitch = side = ``(3*nh/4)/sqrt(N)``.  A layout that is not
    whole squares is inadmissible.
    """
    if model == "A":
        scale = model_a_scale(n_cells)
        if nh % scale != 0:
            raise GeometryError(
                f"model A with N={n_cells} needs scale {scale} | nh, got nh={nh}"
            )
        unit = nh // scale
        return (scale - 1) // 3, unit, 3 * unit, 2 * unit
    if model != "B":
        raise GeometryError(f"unknown model {model!r} for N={n_cells}; expected 'A' or 'B'")
    root = int(round(np.sqrt(n_cells)))
    if root * root != n_cells:
        raise GeometryError(f"model B requires a square cell count, got {n_cells}")
    if nh % 8 != 0:
        raise GeometryError(f"model B needs 8 | nh, got nh={nh}")
    side_cells = 3 * nh // 4  # mesh squares across the intracellular block
    if side_cells % root != 0:
        raise GeometryError(
            f"model B with N={n_cells} needs sqrt(N) | 3*nh/4 = {side_cells}"
        )
    return root, nh // 8, side_cells // root, side_cells // root


def check_compatible(model: str | None, nh: int, n_cells: int) -> None:
    """Reject an inadmissible (model, nh, N) triple without building a mesh.

    nh must be a power of two >= 4; that is all N = 0 (or a bare mesh,
    ``model=None``) needs.  For N > 0 the model's cell layout must consist of
    whole mesh squares (see ``_layout``).
    """
    if nh < 4 or not _is_power_of_two(nh):
        raise GeometryError(f"nh must be a power of two >= 4, got {nh}")
    if n_cells < 0:
        raise GeometryError(f"the cell count must not be negative, got {n_cells}")
    if n_cells > 0:
        _layout(model, nh, n_cells)


def admissible_cells_model_a(nh: int) -> list[int]:
    """Model-A cell counts compatible with an nh-element tessellation."""
    counts = []
    k = 1
    while (1 << (2 * k)) <= nh:
        root = ((1 << (2 * k)) - 1) // 3
        counts.append(root * root)
        k += 1
    return counts


def _label(model: str, mesh: StructuredMesh, n_cells: int) -> tuple[np.ndarray, SubdomainLabeling]:
    """The (nh, nh) grid of mesh-square labels and the labeling it gives.

    Square (x, y) is ``grid[y, x]``: ``1 + r*root + c`` inside cell (r, c)
    of the model's layout, 0 in the extracellular space.  Both triangles of a
    square take its label.  Membranes are the label jumps across the grid
    lines, sorted by (v0, v1).
    """
    nh = mesh.nh
    check_compatible(model, nh, n_cells)
    # N = 0: an empty layout, no square is covered
    root, origin, pitch, side = _layout(model, nh, n_cells) if n_cells else (0, 0, 1, 0)
    offset = np.arange(nh) - origin
    cell = offset // pitch  # cell row or column of each row or column of squares
    covered = (offset >= 0) & (cell < root) & (offset % pitch < side)
    grid = np.where(covered[:, None] & covered, 1 + cell[:, None] * root + cell, 0)

    stride = nh + 1
    # a vertical line between squares (x, y) and (x+1, y): vertices v, v + nh + 1
    y, x = np.nonzero(grid[:, :-1] != grid[:, 1:])
    v = y * stride + x + 1
    vertical = v, v + stride, grid[y, x], grid[y, x + 1]
    # a horizontal line between squares (x, y) and (x, y+1): vertices v, v + 1
    y, x = np.nonzero(grid[:-1] != grid[1:])
    v = (y + 1) * stride + x
    horizontal = v, v + 1, grid[y, x], grid[y + 1, x]
    v0, v1, a, b = (np.concatenate(pair) for pair in zip(vertical, horizontal))
    edges = np.column_stack([v0, v1, np.minimum(a, b), np.maximum(a, b)])
    cell_of = np.repeat(grid.ravel(), 2)
    return grid, SubdomainLabeling(model, n_cells, cell_of, edges[np.lexsort((v1, v0))])


def label_model_a(mesh: StructuredMesh, n_cells: int) -> SubdomainLabeling:
    """Partition for the nervous-system layout: isolated square cells.

    With ``unit = nh/(3*sqrt(N)+1)`` mesh squares, the N cells are squares of
    side ``2*unit`` at pitch ``3*unit``, starting ``unit`` from the lower-left
    corner, numbered row-major from the lower-left; ``unit`` must be whole.
    """
    grid, labeling = _label("A", mesh, n_cells)
    counts = np.bincount(grid.ravel())
    if len(counts) != n_cells + 1 or not counts.all():
        raise GeometryError("model A labeling did not produce N cells")
    membrane = labeling.membrane_edges
    if membrane.size and membrane[:, 2].max() != 0:
        raise GeometryError("model A cells must touch only the extracellular space")
    return labeling


def label_model_b(mesh: StructuredMesh, n_cells: int) -> SubdomainLabeling:
    """Partition for the cardiac layout: a cell grid filling (1/8, 7/8)^2.

    The sqrt(N) x sqrt(N) cells are in direct contact, so interior interfaces
    are gap junctions between pairs of cells; the scale must align every cell
    edge with mesh lines.
    """
    return _label("B", mesh, n_cells)[1]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of an integer array, by one sort and an adjacent-difference mask."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def build_dofmap(mesh: StructuredMesh, labeling: SubdomainLabeling) -> DofMap:
    """Enumerate dofs subdomain-major, duplicating membrane vertices.

    A vertex incident to triangles of k distinct subdomains owns k dofs, one
    per subdomain.  Membrane dofs of subdomain i are exactly the vertices
    incident to a membrane edge of its interface.
    """
    n_sub = labeling.n_subdomains
    nv = mesh.n_vertices
    tri = mesh.triangles
    # (subdomain, vertex) incidence, encoded to sort/unique quickly
    keys = _sorted_unique(np.repeat(labeling.cell_of, 3) * nv + tri.ravel())
    sub = keys // nv
    vert = keys % nv

    me = labeling.membrane_edges
    if len(me):
        mkeys = _sorted_unique(
            np.concatenate(
                [
                    me[:, 2] * nv + me[:, 0],
                    me[:, 2] * nv + me[:, 1],
                    me[:, 3] * nv + me[:, 0],
                    me[:, 3] * nv + me[:, 1],
                ]
            )
        )
        is_mem = np.isin(keys, mkeys, assume_unique=True)
    else:
        is_mem = np.zeros(len(keys), dtype=bool)

    order = np.lexsort((vert, is_mem.astype(np.int8), sub))
    sub, vert, is_mem = sub[order], vert[order], is_mem[order]
    counts = np.bincount(sub, minlength=n_sub)
    block_start = np.concatenate([[0], np.cumsum(counts)])
    n_gamma_per = np.bincount(sub[is_mem], minlength=n_sub)
    return DofMap(
        n_subdomains=n_sub,
        subdomain=sub,
        vertex=vert,
        is_membrane=is_mem,
        block_start=block_start,
        n_gamma_per=n_gamma_per,
    )
