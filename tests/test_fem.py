"""Assembly tests against hand computations and slow reference oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from emilab.fem import (
    AssemblyError,
    ProblemConfig,
    assemble_bulk_mass,
    assemble_coupling,
    assemble_membrane_mass,
    assemble_operators,
    assemble_rhs,
    assemble_stiffness,
    default_stimulus,
)
from emilab.meshgen import (
    SubdomainLabeling,
    build_dofmap,
    build_mesh,
    label_model_a,
    label_model_b,
)
from emilab.solvers import blockdiag_prec
from emilab.system import build_system, pin_nullspace


def _case(model, nh, n_cells):
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    return mesh, labeling, dofmap


def test_interior_stiffness_stencil():
    """Interior rows reduce to the dimensionless 5-point stencil."""
    mesh, labeling, dofmap = _case("A", 8, 0)
    A = dofmap.block(assemble_stiffness(mesh, labeling, dofmap), 0)
    nh = 8
    center = 4 * (nh + 1) + 4
    dof = int(dofmap.local_dofs(0, np.array([center]))[0])
    row = A[dof].toarray().ravel()
    assert row[dof] == 4.0
    for nbr in (center - 1, center + 1, center - (nh + 1), center + (nh + 1)):
        j = int(dofmap.local_dofs(0, np.array([nbr]))[0])
        assert row[j] == -1.0
    # diagonal mesh neighbors carry no stiffness coupling on this tessellation
    for nbr in (center + nh + 2, center - nh - 2):
        j = int(dofmap.local_dofs(0, np.array([nbr]))[0])
        assert row[j] == 0.0
    assert row.sum() == 0.0


def _reference_stiffness(mesh, labeling, dofmap, i):
    """Element-by-element scalar-loop assembly, independent of the vectorized path."""
    n_i = int(dofmap.block_sizes[i])
    out = np.zeros((n_i, n_i))
    for tri, lab in zip(mesh.triangles, labeling.cell_of):
        if lab != i:
            continue
        p = mesh.vertices[tri]
        grads = np.zeros((3, 2))
        area2 = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[2, 0] - p[0, 0]) * (
            p[1, 1] - p[0, 1]
        )
        for k in range(3):
            a, b = p[(k + 1) % 3], p[(k + 2) % 3]
            grads[k] = np.array([a[1] - b[1], b[0] - a[0]]) / area2
        dofs = dofmap.local_dofs(i, tri)
        for k in range(3):
            for l in range(3):
                out[dofs[k], dofs[l]] += 0.5 * abs(area2) * grads[k] @ grads[l]
    return out


@pytest.mark.parametrize("i", [0, 1])
def test_stiffness_matches_reference(i):
    mesh, labeling, dofmap = _case("A", 8, 1)
    A = dofmap.block(assemble_stiffness(mesh, labeling, dofmap), i).toarray()
    ref = _reference_stiffness(mesh, labeling, dofmap, i)
    assert np.allclose(A, ref, rtol=1e-14, atol=1e-15)


def test_stiffness_constant_nullspace():
    mesh, labeling, dofmap = _case("A", 16, 1)
    for i in range(2):
        A = dofmap.block(assemble_stiffness(mesh, labeling, dofmap), i)
        resid = np.abs(A @ np.ones(A.shape[0])).max()
        norm = np.abs(A).sum(axis=1).max()
        assert resid <= 1e-12 * norm


def test_stiffness_symmetric_bitwise():
    mesh, labeling, dofmap = _case("B", 32, 4)
    for i in range(5):
        A = dofmap.block(assemble_stiffness(mesh, labeling, dofmap), i)
        assert abs(A - A.T).max() == 0.0


def test_empty_subdomain_rejected():
    mesh = build_mesh(8)
    base = label_model_a(mesh, 0)
    fake = SubdomainLabeling("A", 1, base.cell_of, np.empty((0, 4), dtype=np.int64))
    dofmap = build_dofmap(mesh, fake)
    with pytest.raises(AssemblyError, match="subdomain 1 contains no triangles"):
        assemble_stiffness(mesh, fake, dofmap)


def test_membrane_mass_two_edge_side():
    """At nh=4 the single cell's side is two edges of length 1/4."""
    mesh, labeling, dofmap = _case("A", 4, 1)
    M = dofmap.block(assemble_membrane_mass(mesh, labeling, dofmap), 1)
    h = 0.25
    # midpoint vertex of the bottom side at (1/2, 1/4)
    mid = int(np.flatnonzero(
        (mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.25)
    )[0])
    left = int(np.flatnonzero(
        (mesh.vertices[:, 0] == 0.25) & (mesh.vertices[:, 1] == 0.25)
    )[0])
    right = int(np.flatnonzero(
        (mesh.vertices[:, 0] == 0.75) & (mesh.vertices[:, 1] == 0.25)
    )[0])
    d_mid, d_l, d_r = (int(dofmap.local_dofs(1, np.array([v]))[0]) for v in (mid, left, right))
    row = M[d_mid].toarray().ravel()
    assert row[d_mid] == pytest.approx(2 * h / 3, rel=1e-15)
    assert row[d_l] == pytest.approx(h / 6, rel=1e-15)
    assert row[d_r] == pytest.approx(h / 6, rel=1e-15)
    assert row.sum() == pytest.approx(h, rel=1e-14)


def test_membrane_mass_total_is_perimeter():
    mesh, labeling, dofmap = _case("A", 16, 1)
    M = dofmap.block(assemble_membrane_mass(mesh, labeling, dofmap), 1)
    ones = np.ones(M.shape[0])
    # the cell is [1/4, 3/4]^2, perimeter 2
    assert ones @ (M @ ones) == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("nh", [16, 32, 64])
def test_membrane_mass_refinement_invariant(nh):
    mesh, labeling, dofmap = _case("A", nh, 1)
    M = dofmap.block(assemble_membrane_mass(mesh, labeling, dofmap), 1)
    ones = np.ones(M.shape[0])
    assert ones @ (M @ ones) == pytest.approx(2.0, rel=1e-13)


def test_membrane_mass_row_pattern():
    mesh, labeling, dofmap = _case("A", 8, 1)
    M = dofmap.block(assemble_membrane_mass(mesh, labeling, dofmap), 1)
    rows = np.asarray(M.sum(axis=1)).ravel()
    mem = dofmap.is_membrane[dofmap.subdomain == 1]
    # every membrane dof touches two edges: row sum h; interior rows vanish
    assert np.allclose(rows[mem], mesh.h, rtol=1e-13)
    assert np.all(rows[~mem] == 0.0)
    # nonzeros confined to membrane rows and columns
    coo = M.tocoo()
    assert mem[coo.row].all() and mem[coo.col].all()


def test_membrane_mass_empty_interface():
    mesh, labeling, dofmap = _case("A", 8, 0)
    M = dofmap.block(assemble_membrane_mass(mesh, labeling, dofmap), 0)
    assert M.nnz == 0


def test_coupling_transpose_and_sign():
    mesh, labeling, dofmap = _case("B", 32, 4)
    C = assemble_coupling(mesh, labeling, dofmap)
    B12, B21 = dofmap.block(C, 1, 2), dofmap.block(C, 2, 1)
    assert abs(B12 - B21.T).max() == 0.0
    assert B12.data.max() <= 0.0
    # negated edge-mass contributions: -h/6 off-pair, -h/3 per incident edge
    h = mesh.h
    expected = (-h / 6, -h / 3, -2 * h / 3)
    assert np.isclose(np.unique(B12.data)[:, None], expected, rtol=1e-14).any(axis=1).all()


def test_coupling_trace_identity():
    """Row sums of the membrane mass equal row sums of the negated coupling."""
    mesh, labeling, dofmap = _case("A", 8, 1)
    M1 = dofmap.block(assemble_membrane_mass(mesh, labeling, dofmap), 1)
    B10 = dofmap.block(assemble_coupling(mesh, labeling, dofmap), 1, 0)
    left = np.asarray(M1.sum(axis=1)).ravel()
    right = -np.asarray(B10.sum(axis=1)).ravel()
    assert np.allclose(left, right, rtol=1e-14, atol=1e-17)


def test_rhs_vanishes_at_tau_one():
    mesh, labeling, dofmap = _case("A", 8, 1)
    f = assemble_rhs(mesh, labeling, dofmap, ProblemConfig(tau=1.0))
    fvec = [dofmap.block(f, i) for i in range(dofmap.n_subdomains)]
    assert all(np.all(f == 0.0) for f in fvec)


def test_rhs_antisymmetric_across_interface():
    mesh, labeling, dofmap = _case("A", 8, 1)
    f = assemble_rhs(mesh, labeling, dofmap, ProblemConfig(tau=0.01))
    fvec = [dofmap.block(f, i) for i in range(dofmap.n_subdomains)]
    me = labeling.membrane_edges
    verts = np.unique(me[:, :2])
    f0 = fvec[0][dofmap.local_dofs(0, verts)]
    f1 = fvec[1][dofmap.local_dofs(1, verts)]
    assert np.array_equal(f0, -f1)
    # entries vanish off the membrane
    inner = ~dofmap.is_membrane[dofmap.subdomain == 0]
    assert np.all(fvec[0][inner] == 0.0)


def test_rhs_brute_force_quadrature():
    """Scalar-loop 2-point Gauss oracle for the cell-side source vector."""
    mesh, labeling, dofmap = _case("A", 16, 1)
    tau = 0.01
    f = assemble_rhs(mesh, labeling, dofmap, ProblemConfig(tau=tau))
    fvec = [dofmap.block(f, i) for i in range(dofmap.n_subdomains)]
    n1 = int(dofmap.block_sizes[1])
    expected = np.zeros(n1)
    for v0, v1, i, j in labeling.membrane_edges:
        p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
        length = np.linalg.norm(p1 - p0)
        for t in (0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)):
            q = p0 + t * (p1 - p0)
            g = 0.5 * np.sin(10 * (q[0] ** 2 + q[1] ** 2)) * (1 - tau)
            d0 = int(dofmap.local_dofs(1, np.array([v0]))[0])
            d1 = int(dofmap.local_dofs(1, np.array([v1]))[0])
            expected[d0] += 0.5 * length * g * (1 - t)  # + side: cell index above 0
            expected[d1] += 0.5 * length * g * t
    assert np.allclose(fvec[1], expected, rtol=1e-14, atol=1e-18)


def test_diagonal_blocks_positive_definite():
    """Measured smallest eigenvalues of tau*A_i + M_i stay positive."""
    for nh in (8, 16):
        mesh, labeling, dofmap = _case("A", nh, 1)
        config = ProblemConfig(tau=0.01)
        for i in range(2):
            A = dofmap.block(assemble_stiffness(mesh, labeling, dofmap), i)
            M = dofmap.block(assemble_membrane_mass(mesh, labeling, dofmap), i)
            D = (config.tau * A + M).toarray()
            lam_min = np.linalg.eigvalsh(D)[0]
            assert lam_min > 0.0
            print(f"nh={nh} block {i}: lambda_min(D_i) = {lam_min:.6e}")


def test_bulk_mass_total_area():
    mesh, labeling, dofmap = _case("A", 16, 1)
    areas = {0: 0.75, 1: 0.25}
    for i, area in areas.items():
        Mb = dofmap.block(assemble_bulk_mass(mesh, labeling, dofmap), i)
        ones = np.ones(Mb.shape[0])
        assert ones @ (Mb @ ones) == pytest.approx(area, rel=1e-14)


def test_operator_set_complete():
    mesh, labeling, dofmap = _case("B", 32, 4)
    ops = assemble_operators(mesh, labeling, dofmap, ProblemConfig(tau=0.01))
    for mat in (ops.stiffness, ops.membrane_mass, ops.bulk_mass, ops.coupling):
        assert mat.shape == (dofmap.n, dofmap.n)
    assert ops.rhs.shape == (dofmap.n,)
    coupling = {
        (i, j): dofmap.block(ops.coupling, i, j) for i in range(5) for j in range(5)
    }
    assert {pair for pair, b in coupling.items() if b.nnz} == {
        (i, j) for i in range(5) for j in range(5)
        if i != j and len(_shared_edges(labeling, i, j))
    }
    for (i, j), b in coupling.items():
        assert abs(b - coupling[(j, i)].T).max() == 0.0


def _shared_edges(labeling, i, j):
    me = labeling.membrane_edges
    lo, hi = min(i, j), max(i, j)
    return me[(me[:, 2] == lo) & (me[:, 3] == hi)]


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(tau=0.0)
    with pytest.raises(ValueError):
        ProblemConfig(tau=0.01, sigma=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        ProblemConfig(tau=0.01, epsilon=0.0)
    cfg = ProblemConfig(tau=0.5, sigma=np.array([2.0, 3.0]))
    assert np.array_equal(cfg.tau_per_dof(np.array([2, 3])), [1.0, 1.0, 1.5, 1.5, 1.5])


def test_default_stimulus_shape():
    x = np.linspace(0, 1, 5)
    out = default_stimulus(x, x)
    assert out.shape == x.shape
    assert np.abs(out).max() <= 0.5


# ---------------------------------------------------------------------------
# Per-block reference assembly: one matrix per subdomain and per interface
# pair, placed into the global system block by block.  The global assemblers
# must reproduce it bit for bit.

_GAUSS_T = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def _ref_local_dofs(dofmap, i, verts):
    s, e = dofmap.block_range(i)
    idx = np.lexsort((dofmap.vertex, dofmap.subdomain))[s:e]
    pos = np.searchsorted(dofmap.vertex[idx], verts)
    assert np.array_equal(dofmap.vertex[idx][pos], verts)
    return idx[pos] - s


def _ref_element_blocks(mesh, labeling, dofmap, i):
    tris = mesh.triangles[labeling.cell_of == i]
    p = mesh.vertices[tris]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    stiff = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area
    )[:, None, None]
    mass = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :]
    n_i = int(dofmap.block_sizes[i])
    dofs = _ref_local_dofs(dofmap, i, tris.ravel()).reshape(tris.shape)
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    return tuple(
        sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n_i, n_i)).tocsr()
        for local in (stiff, mass)
    )


def _ref_edge_block(rows0, rows1, cols0, cols1, value, shape):
    m = len(rows0)
    r = np.concatenate([rows0, rows1, rows0, rows1])
    c = np.concatenate([cols0, cols1, cols1, cols0])
    vals = np.concatenate([np.full(m, value[0]), np.full(m, value[0]),
                           np.full(m, value[1]), np.full(m, value[1])])
    return sp.coo_matrix((vals, (r, c)), shape=shape).tocsr()


def _ref_operators(mesh, labeling, dofmap, config):
    """(stiffness, membrane, bulk, coupling, rhs) as per-block lists and dict."""
    me, h = labeling.membrane_edges, mesh.h
    stiffness, membrane, bulk, rhs = [], [], [], []
    for i in range(labeling.n_subdomains):
        a_i, mb_i = _ref_element_blocks(mesh, labeling, dofmap, i)
        stiffness.append(a_i)
        bulk.append(mb_i)
        n_i = int(dofmap.block_sizes[i])
        edges = me[(me[:, 2] == i) | (me[:, 3] == i)]
        d0 = _ref_local_dofs(dofmap, i, edges[:, 0])
        d1 = _ref_local_dofs(dofmap, i, edges[:, 1])
        membrane.append(_ref_edge_block(d0, d1, d0, d1, (h / 3, h / 6), (n_i, n_i)))
        rhs.append(np.zeros(n_i))
    coupling = {}
    for i, j in (np.unique(me[:, 2:4], axis=0) if len(me) else []):
        i, j = int(i), int(j)
        edges = me[(me[:, 2] == i) & (me[:, 3] == j)]
        gi = [_ref_local_dofs(dofmap, i, edges[:, k]) for k in (0, 1)]
        gj = [_ref_local_dofs(dofmap, j, edges[:, k]) for k in (0, 1)]
        shape = (int(dofmap.block_sizes[i]), int(dofmap.block_sizes[j]))
        bij = _ref_edge_block(gi[0], gi[1], gj[0], gj[1], (-h / 3, -h / 6), shape)
        coupling[(i, j)] = bij
        coupling[(j, i)] = bij.T.tocsr()
    if len(me):
        p0, p1 = mesh.vertices[me[:, 0]], mesh.vertices[me[:, 1]]
        w0, w1 = np.zeros(len(me)), np.zeros(len(me))
        for t in _GAUSS_T:
            q = p0 + t * (p1 - p0)
            g = default_stimulus(q[:, 0], q[:, 1]) * (1.0 - config.tau)
            w0 += 0.5 * h * g * (1.0 - t)
            w1 += 0.5 * h * g * t
        for side, sign in ((2, -1.0), (3, 1.0)):
            for i in np.unique(me[:, side]):
                sel = me[:, side] == i
                np.add.at(rhs[i], _ref_local_dofs(dofmap, i, me[sel, 0]), sign * w0[sel])
                np.add.at(rhs[i], _ref_local_dofs(dofmap, i, me[sel, 1]), sign * w1[sel])
    return stiffness, membrane, bulk, coupling, rhs


def _ref_system(ref, dofmap, config):
    """Global matrix and rhs placed from the reference blocks."""
    stiffness, membrane, _, coupling, rhs = ref
    starts, n = dofmap.block_start, dofmap.n
    sigma = np.broadcast_to(config.sigma, (dofmap.n_subdomains,))
    rows, cols, vals = [], [], []
    for i in range(dofmap.n_subdomains):
        d_i = (config.tau * sigma[i] * stiffness[i] + membrane[i]).tocoo()
        rows.append(d_i.row + starts[i])
        cols.append(d_i.col + starts[i])
        vals.append(d_i.data)
    for (i, j), b_ij in coupling.items():
        b = b_ij.tocoo()
        rows.append(b.row + starts[i])
        cols.append(b.col + starts[j])
        vals.append(b.data)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix, np.concatenate(rhs)


def _ref_blockdiag(ref, dofmap, config, eps):
    stiffness, _, bulk, _, _ = ref
    n_sub = dofmap.n_subdomains
    P = sp.block_diag([stiffness[i] + eps * bulk[i] for i in range(n_sub)], format="csr")
    sigma = np.broadcast_to(config.sigma, (n_sub,))
    row_tau = np.repeat([config.tau * sigma[i] for i in range(n_sub)], dofmap.block_sizes)
    P.data *= np.repeat(row_tau, np.diff(P.indptr))
    return P


def _assert_same_csr(got, want):
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def _check_against_reference(model, nh, n_cells, config):
    mesh, labeling, dofmap = _case(model, nh, n_cells)
    ops = assemble_operators(mesh, labeling, dofmap, config)
    system = build_system(ops)
    ref = _ref_operators(mesh, labeling, dofmap, config)
    ref_matrix, ref_rhs = _ref_system(ref, dofmap, config)
    _assert_same_csr(system.matrix, ref_matrix)
    assert np.array_equal(system.rhs, ref_rhs)
    pinned = pin_nullspace(system)
    ref_pinned = pin_nullspace(dataclasses.replace(system, matrix=ref_matrix, rhs=ref_rhs))
    _assert_same_csr(pinned.matrix, ref_pinned.matrix)
    assert np.array_equal(pinned.rhs, ref_pinned.rhs)
    assert pinned.pinned_dof == ref_pinned.pinned_dof
    eps = config.epsilon
    _assert_same_csr(blockdiag_prec(ops).matrix, _ref_blockdiag(ref, dofmap, config, eps))


@pytest.mark.parametrize("tau", [1e-2, 1e-5])
@pytest.mark.parametrize(
    "model,nh,n_cells", [("A", 16, 1), ("A", 32, 25), ("B", 32, 4), ("B", 64, 144)]
)
def test_global_assembly_matches_per_block_reference(model, nh, n_cells, tau):
    _check_against_reference(model, nh, n_cells, ProblemConfig(tau=tau))


def test_global_assembly_matches_per_block_reference_with_sigma():
    _check_against_reference("A", 16, 1, ProblemConfig(tau=0.01, sigma=[2.0, 3.0]))
