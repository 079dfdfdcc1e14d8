"""Geometry tests: mesh counts, partition oracles, dof bookkeeping."""

import numpy as np
import pytest

from emilab.meshgen import (
    GeometryError,
    admissible_cells_model_a,
    build_dofmap,
    build_mesh,
    check_compatible,
    label_model_a,
    label_model_b,
    model_a_scale,
)

# dof table for the finest grid, one row per admissible cell count:
# N -> (n0, n_in, n_gamma, n)
MODEL_A_TABLE_NH1024 = {
    1: (789504, 263169, 2048, 1052673),
    25: (647400, 416025, 12800, 1063425),
    441: (626824, 480249, 56448, 1107073),
}


def test_mesh_counts_small():
    mesh = build_mesh(4)
    assert mesh.n_vertices == 25
    assert mesh.n_triangles == 32
    assert mesh.h == 0.25


def test_mesh_counts_large():
    mesh = build_mesh(1024)
    assert mesh.n_vertices == 1050625
    assert mesh.n_triangles == 2 * 1024 * 1024


@pytest.mark.parametrize("bad", [0, 1, 2, 3, 5, 17, 100, -8])
def test_mesh_rejects_bad_sizes(bad):
    with pytest.raises(GeometryError):
        build_mesh(bad)


def test_mesh_triangle_geometry():
    mesh = build_mesh(8)
    p = mesh.vertices[mesh.triangles]
    # positive orientation and area h^2/2 everywhere
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.all(area > 0)
    assert np.allclose(area, mesh.h ** 2 / 2, rtol=0, atol=1e-16)
    # every triangle is a right triangle with legs of length h
    edges = np.stack([e1, e2, p[:, 2] - p[:, 1]], axis=1)
    lengths = np.sort(np.linalg.norm(edges, axis=2), axis=1)
    assert np.allclose(lengths[:, :2], mesh.h, rtol=1e-14)
    assert np.allclose(lengths[:, 2], mesh.h * np.sqrt(2), rtol=1e-14)
    assert mesh.vertices.min() == 0.0 and mesh.vertices.max() == 1.0


def test_admissible_cells():
    assert admissible_cells_model_a(64) == [1, 25, 441]
    assert model_a_scale(1) == 4
    assert model_a_scale(25) == 16
    assert model_a_scale(441) == 64
    with pytest.raises(GeometryError):
        model_a_scale(3)
    with pytest.raises(GeometryError):
        model_a_scale(49)  # square, but 3*7+1 is not a power of 4


def test_model_a_single_cell_against_integer_oracle():
    """Brute-force oracle: with scale 4 the only cell is [1/4, 3/4]^2.

    The oracle works in exact integer arithmetic on vertex indices: a
    triangle is intracellular iff the tripled barycenter index sum lies
    strictly inside (3*nh/4, 9*nh/4) in both coordinates.
    """
    nh = 16
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, 1)
    ix = mesh.triangles % (nh + 1)
    iy = mesh.triangles // (nh + 1)
    sx, sy = ix.sum(axis=1), iy.sum(axis=1)
    lo, hi = 3 * nh // 4, 9 * nh // 4  # tripled index bounds for (1/4, 3/4)
    inside = (sx > lo) & (sx < hi) & (sy > lo) & (sy < hi)
    expected = inside.astype(np.int64)
    assert np.array_equal(labeling.cell_of, expected)
    # membranes: only cell/extracellular interfaces, lying on the square edge
    me = labeling.membrane_edges
    assert np.all(me[:, 2] == 0) and np.all(me[:, 3] == 1)
    coords = mesh.vertices[me[:, :2]]
    on_boundary = (
        np.isin(coords[..., 0], (0.25, 0.75)).all(axis=1)
        | np.isin(coords[..., 1], (0.25, 0.75)).all(axis=1)
    )
    assert on_boundary.all()
    assert len(me) == 4 * (nh // 2)


@pytest.fixture(scope="module")
def mesh1024():
    return build_mesh(1024)


@pytest.mark.parametrize("n_cells", sorted(MODEL_A_TABLE_NH1024))
def test_model_a_dof_table(mesh1024, n_cells):
    labeling = label_model_a(mesh1024, n_cells)
    dofmap = build_dofmap(mesh1024, labeling)
    n0, n_in, n_gamma, n = MODEL_A_TABLE_NH1024[n_cells]
    assert dofmap.n0 == n0
    assert dofmap.n_in == n_in
    assert dofmap.n_gamma == n_gamma
    assert dofmap.n == n


def test_model_a_membrane_fraction_densest(mesh1024):
    labeling = label_model_a(mesh1024, 116281)
    dofmap = build_dofmap(mesh1024, labeling)
    assert round(dofmap.n_gamma / dofmap.n, 3) == 0.470


def test_model_a_equal_cell_sizes(mesh1024):
    labeling = label_model_a(mesh1024, 25)
    dofmap = build_dofmap(mesh1024, labeling)
    sizes = dofmap.block_sizes[1:]
    assert np.all(sizes == sizes[0])


@pytest.mark.parametrize(
    "nh,n_cells",
    [(8, 25), (16, 441), (8, 3), (16, 2)],
)
def test_model_a_incompatible(nh, n_cells):
    mesh = build_mesh(nh)
    with pytest.raises(GeometryError):
        label_model_a(mesh, n_cells)


def test_model_b_cell_dof_formula():
    # every cell owns (1 + 3*nh/(4*sqrt(N)))^2 dofs and the extracellular
    # frame n0 = (7/2)*nh*(nh/8 + 1)
    mesh = build_mesh(512)
    labeling = label_model_b(mesh, 16)
    dofmap = build_dofmap(mesh, labeling)
    assert np.all(dofmap.block_sizes[1:] == 97 * 97)
    assert dofmap.n_in == 150544
    assert dofmap.n0 == 116480


def test_model_b_single_cell_direct_count():
    """Independent dof-count oracle: unique vertices of intracellular triangles."""
    mesh = build_mesh(512)
    labeling = label_model_b(mesh, 1)
    dofmap = build_dofmap(mesh, labeling)
    direct = len(np.unique(mesh.triangles[labeling.cell_of == 1]))
    assert dofmap.n_in == direct == 385 * 385 == 148225
    assert dofmap.n0 == (7 * 512 // 2) * (512 // 8 + 1)


def test_model_b_gap_junctions_exist():
    mesh = build_mesh(64)
    labeling = label_model_b(mesh, 16)
    me = labeling.membrane_edges
    gap = me[me[:, 2] >= 1]
    assert len(gap) > 0
    # each 4x4 grid has 2*4*3 internal interfaces of 3nh/16 edges each
    per_side = 3 * 64 // 16
    assert len(gap) == 24 * per_side


def test_model_b_invalid():
    mesh = build_mesh(512)
    with pytest.raises(GeometryError):
        label_model_b(mesh, 7)  # not a perfect square
    mesh4 = build_mesh(4)
    with pytest.raises(GeometryError):
        label_model_b(mesh4, 1)  # 1/8 not on the grid
    # sqrt(9)=3 divides 384, so N=9 at nh=512 is admissible
    labeling = label_model_b(mesh, 9)
    assert labeling.n_cells == 9


def test_model_b_cell_area_exact():
    mesh = build_mesh(64)
    labeling = label_model_b(mesh, 16)
    n_cell_tris = int(np.count_nonzero(labeling.cell_of > 0))
    # areas are exact dyadic rationals, so the comparison is exact
    assert n_cell_tris * mesh.h ** 2 / 2 == 0.75 ** 2


@pytest.mark.parametrize("model,nh,n_cells", [("A", 16, 1), ("A", 32, 25), ("B", 32, 4), ("B", 64, 16)])
def test_duplication_consistency(model, nh, n_cells):
    """Each membrane vertex owns one dof per incident subdomain."""
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    # oracle: incident subdomain count per vertex, straight from the triangles
    pairs = np.unique(
        np.column_stack([mesh.triangles.ravel(), np.repeat(labeling.cell_of, 3)]),
        axis=0,
    )
    incident = np.bincount(pairs[:, 0], minlength=mesh.n_vertices)
    dof_count = np.bincount(dofmap.vertex, minlength=mesh.n_vertices)
    assert np.array_equal(dof_count, incident)
    # and a vertex with k incident subdomains appears k times
    assert dof_count.sum() == dofmap.n


def _admissible_cases(nh_max):
    """Every admissible (model, nh, N) with nh <= nh_max, N = 0 included.

    Model A takes N = ((4^k - 1)/3)^2 while 4^k <= nh; model B takes a square N
    with 8 | nh and sqrt(N) | 3*nh/4.
    """
    cases = []
    nh = 4
    while nh <= nh_max:
        cases += [("A", nh, n) for n in [0] + admissible_cells_model_a(nh)]
        cases.append(("B", nh, 0))
        if nh % 8 == 0:
            side = 3 * nh // 4
            cases += [("B", nh, r * r) for r in range(1, side + 1) if side % r == 0]
        nh *= 2
    return cases


def _paired_membrane_edges(mesh, cell_of):
    """Reference membranes: pair up all triangle edges, keep the pairs whose labels differ."""
    tri = mesh.triangles
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    edges.sort(axis=1)
    owner = np.tile(np.arange(len(tri)), 3)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges, owner = edges[order], owner[order]
    paired = (edges[:-1] == edges[1:]).all(axis=1)
    lab_a, lab_b = cell_of[owner[:-1][paired]], cell_of[owner[1:][paired]]
    cross = lab_a != lab_b
    out = np.column_stack(
        [edges[:-1][paired][cross], np.minimum(lab_a, lab_b)[cross], np.maximum(lab_a, lab_b)[cross]]
    )
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def _barycenter_cell_of(mesh, model, n_cells):
    """Reference labels from each triangle's barycenter (x, y).

    Model A: inside a cell iff ``min(x*s mod 3, y*s mod 3) >= 1`` with
    ``s = 3*sqrt(N)+1``.  Model B: inside iff (x, y) lies in (1/8, 7/8)^2,
    in cell columns of width 0.75/sqrt(N).  Cells are numbered row-major.
    """
    if n_cells == 0:
        return np.zeros(mesh.n_triangles, dtype=np.int64)
    root = int(round(np.sqrt(n_cells)))
    bary = mesh.vertices[mesh.triangles].mean(axis=1)
    if model == "A":
        scale = 3 * root + 1
        inside = np.mod(bary * scale, 3.0).min(axis=1) >= 1.0
        col, row = np.floor((bary.T * scale - 1.0) / 3.0).astype(np.int64)
    else:
        inside = ((bary > 0.125) & (bary < 0.875)).all(axis=1)
        col, row = np.floor((bary.T - 0.125) / (0.75 / root)).astype(np.int64)
    return np.where(inside, 1 + row * root + col, 0)


@pytest.mark.parametrize("model,nh,n_cells", _admissible_cases(128))
def test_membrane_edges_two_sided(model, nh, n_cells):
    """The membranes are exactly the mesh edges between differently labelled triangles."""
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    expected = _paired_membrane_edges(mesh, labeling.cell_of)
    assert labeling.membrane_edges.dtype == expected.dtype == np.int64
    assert labeling.membrane_edges.shape == expected.shape
    assert np.array_equal(labeling.membrane_edges, expected)


@pytest.mark.parametrize("model,nh,n_cells", _admissible_cases(128))
def test_cell_of_matches_barycenter_rules(model, nh, n_cells):
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    expected = _barycenter_cell_of(mesh, model, n_cells)
    assert labeling.cell_of.dtype == expected.dtype == np.int64
    assert np.array_equal(labeling.cell_of, expected)


@pytest.mark.parametrize("model,nh,n_cells", [("C", 64, 16), (None, 16, 4), ("a", 64, 441)])
def test_check_compatible_rejects_unknown_model(model, nh, n_cells):
    with pytest.raises(GeometryError, match="unknown model"):
        check_compatible(model, nh, n_cells)
    check_compatible(model, nh, 0)  # no cells: nh alone decides, as for a bare mesh


@pytest.mark.parametrize("model,nh,n_cells", [("A", 16, 1), ("A", 64, 25), ("B", 64, 16), ("B", 32, 1)])
def test_dof_identities(model, nh, n_cells):
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    assert dofmap.n == dofmap.n0 + dofmap.n_in
    assert dofmap.n_gamma == int(dofmap.n_gamma_per[1:].sum())
    # membrane dofs occupy the trailing range of every block
    for i in range(dofmap.n_subdomains):
        s, e = dofmap.block_range(i)
        flags = dofmap.is_membrane[s:e]
        n_mem = int(dofmap.n_gamma_per[i])
        assert not flags[: len(flags) - n_mem].any()
        assert flags[len(flags) - n_mem :].all()
    if model == "A" and n_cells > 0:
        # every membrane vertex pairs a cell with the extracellular space
        assert dofmap.n_gamma_per[0] == dofmap.n_gamma


def test_membrane_share_shrinks_under_refinement():
    """2*nGamma/n decreases when nh doubles at a fixed cell count."""
    shares = []
    for nh in (16, 32, 64):
        mesh = build_mesh(nh)
        dofmap = build_dofmap(mesh, label_model_a(mesh, 1))
        shares.append(2 * dofmap.n_gamma / dofmap.n)
    assert shares[0] > shares[1] > shares[2]


def test_degenerate_no_cells():
    mesh = build_mesh(16)
    for label in (label_model_a, label_model_b):
        labeling = label(mesh, 0)
        dofmap = build_dofmap(mesh, labeling)
        assert dofmap.n == 17 * 17
        assert dofmap.n_gamma == 0
        assert dofmap.n_in == 0


def test_local_dof_lookup_roundtrip():
    mesh = build_mesh(16)
    labeling = label_model_a(mesh, 1)
    dofmap = build_dofmap(mesh, labeling)
    for i in range(2):
        s, e = dofmap.block_range(i)
        verts = dofmap.vertex[s:e]
        assert np.array_equal(dofmap.global_dofs(i, verts), np.arange(s, e))
    with pytest.raises(KeyError):
        # vertex strictly inside the cell does not belong to block 0
        inner = dofmap.vertex[(dofmap.subdomain == 1) & ~dofmap.is_membrane][0]
        dofmap.local_dofs(0, np.array([inner]))


def test_dof_lookup_broadcasts_over_subdomains():
    mesh = build_mesh(16)
    dofmap = build_dofmap(mesh, label_model_b(mesh, 4))
    got = dofmap.global_dofs(dofmap.subdomain, dofmap.vertex)
    assert np.array_equal(got, np.arange(dofmap.n))
    pairs = np.stack([dofmap.vertex[:5], dofmap.vertex[-5:]])
    subs = np.array([[dofmap.subdomain[0]], [dofmap.subdomain[-1]]])
    assert np.array_equal(
        dofmap.global_dofs(subs, pairs), [np.arange(5), np.arange(dofmap.n - 5, dofmap.n)]
    )
    # vertex ids outside the mesh must not alias a neighbouring subdomain's key
    for bad in (-1, mesh.n_vertices):
        with pytest.raises(KeyError, match="subdomain 1"):
            dofmap.global_dofs(np.array([1, 1]), np.array([dofmap.vertex[-1], bad]))


def _ref_dofmap_arrays(mesh, labeling):
    """The dof map's arrays from the ``np.unique`` formulation of the key sets."""
    nv = mesh.n_vertices
    keys = np.unique(np.repeat(labeling.cell_of, 3) * nv + mesh.triangles.ravel())
    sub, vert = keys // nv, keys % nv
    me = labeling.membrane_edges
    mkeys = np.unique(np.concatenate([me[:, a] * nv + me[:, b] for a in (2, 3) for b in (0, 1)]))
    is_mem = np.isin(keys, mkeys, assume_unique=True)
    order = np.lexsort((vert, is_mem.astype(np.int8), sub))
    sub, vert, is_mem = sub[order], vert[order], is_mem[order]
    block_start = np.concatenate([[0], np.cumsum(np.bincount(sub, minlength=labeling.n_subdomains))])
    n_gamma_per = np.bincount(sub[is_mem], minlength=labeling.n_subdomains)
    return {"subdomain": sub, "vertex": vert, "is_membrane": is_mem,
            "block_start": block_start, "n_gamma_per": n_gamma_per}


@pytest.mark.parametrize(
    "model,nh,n_cells", [("A", 16, 1), ("B", 32, 16), ("A", 64, 441), ("B", 64, 576)]
)
def test_dofmap_matches_unique_formulation(model, nh, n_cells):
    mesh = build_mesh(nh)
    labeling = (label_model_a if model == "A" else label_model_b)(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    for name, expected in _ref_dofmap_arrays(mesh, labeling).items():
        got = getattr(dofmap, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name
