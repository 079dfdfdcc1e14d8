"""Global system tests: block layout, pinning, Woodbury paths, scaling."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from emilab.fem import ProblemConfig, assemble_operators
from emilab.meshgen import (
    admissible_cells_model_a,
    build_dofmap,
    build_mesh,
    label_model_a,
    label_model_b,
)
from emilab.solvers import blockdiag_prec
from emilab.system import (
    ArrowheadError,
    SmwError,
    block_diagonal,
    build_arrowhead_factors,
    build_scaled,
    build_system,
    interface_basis,
    pin_nullspace,
    solve_direct,
    solve_smw_eps,
    solve_smw_exact,
    vertex_channels,
)


def _system(model, nh, n_cells, tau=0.01, pin=False):
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    ops = assemble_operators(mesh, labeling, dofmap, ProblemConfig(tau=tau))
    system = build_system(ops)
    if pin:
        return pin_nullspace(system), ops, mesh
    return system, ops, mesh


def _assert_same_csr(got, want):
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def test_block_structure():
    system, ops, _ = _system("A", 16, 1)
    cfg = ops.config
    dofmap = ops.dofmap
    d1 = (
        cfg.tau * cfg.sigma * dofmap.block(ops.stiffness, 1)
        + dofmap.block(ops.membrane_mass, 1)
    ).tocsr()
    assert abs(dofmap.block(system.matrix, 1) - d1).max() == 0.0
    b01 = dofmap.block(system.matrix, 0, 1)
    assert abs(b01 - dofmap.block(ops.coupling, 0, 1)).max() == 0.0
    assert abs(system.matrix - system.matrix.T).max() == 0.0


def test_model_a_blocks_are_arrowhead():
    system, _, _ = _system("A", 32, 25)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert system.dofmap.block(system.matrix, i, j).nnz == 0


def test_block_diagonal_model_b_gap_junctions():
    system, _, _ = _system("B", 16, 4)
    dofmap = system.dofmap
    diag = block_diagonal(system)
    rest = (system.matrix - diag).tocsr()
    for i in range(dofmap.n_subdomains):
        _assert_same_csr(dofmap.block(diag, i), dofmap.block(system.matrix, i))
        assert dofmap.block(rest, i).nnz == 0
    assert rest.nnz > 0


def test_dimension_mismatch_rejected():
    system, ops, _ = _system("A", 8, 1)
    ops.stiffness = sp.eye(3, format="csr")
    with pytest.raises(ValueError):
        build_system(ops)


def test_degenerate_single_block():
    system, ops, _ = _system("A", 8, 0, tau=0.37)
    expected = (0.37 * ops.dofmap.block(ops.stiffness, 0)).tocsr()
    assert abs(system.matrix - expected).max() == 0.0


def test_per_subdomain_conductivities():
    mesh = build_mesh(16)
    labeling = label_model_a(mesh, 1)
    dofmap = build_dofmap(mesh, labeling)
    config = ProblemConfig(tau=0.5, sigma=np.array([2.0, 3.0]))
    ops = assemble_operators(mesh, labeling, dofmap, config)
    system = build_system(ops)
    d1 = (1.5 * dofmap.block(ops.stiffness, 1) + dofmap.block(ops.membrane_mass, 1)).tocsr()
    assert abs(dofmap.block(system.matrix, 1) - d1).max() == 0.0
    # tau_i = tau * sigma_i = (1.0, 1.5): the cell block is divided by 1.5
    scaled = build_scaled(system)
    assert abs(dofmap.block(scaled, 0) - dofmap.block(system.matrix, 0)).max() == 0.0
    d1_scaled = dofmap.block(system.matrix, 1) / 1.5
    assert abs(dofmap.block(scaled, 1) - d1_scaled).max() <= 1e-15 * abs(d1_scaled).max()


def test_global_constant_nullspace_unpinned():
    system, _, _ = _system("A", 8, 1)
    resid = np.abs(system.matrix @ np.ones(system.n)).max()
    assert resid <= 1e-12 * np.abs(system.matrix).sum(axis=1).max()


def test_unpinned_smallest_eigenvalue_measured():
    system, _, _ = _system("A", 8, 1)
    eigs = np.linalg.eigvalsh(system.matrix.toarray())
    scale = np.abs(eigs).max()
    # constants are in the kernel; the rest of the spectrum is well separated
    assert abs(eigs[0]) <= 1e-12 * scale
    assert eigs[1] > 1e-8 * scale
    print(f"unpinned spectrum: lambda_0 = {eigs[0]:.3e}, lambda_1 = {eigs[1]:.6e}")


def test_pin_zeroes_the_origin_dof():
    system, _, mesh = _system("A", 16, 1, pin=True)
    p = system.pinned_dof
    assert p is not None
    coords = system.dofmap.coords(mesh)[p]
    assert np.array_equal(coords, (0.0, 0.0))
    row = system.matrix[p].toarray().ravel()
    e_p = np.zeros(system.n)
    e_p[p] = 1.0
    assert np.array_equal(row, e_p)
    col = system.matrix[:, p].toarray().ravel()
    assert np.array_equal(col, e_p)
    x = solve_direct(system)
    assert x[p] == 0.0
    resid = np.linalg.norm(system.matrix @ x - system.rhs)
    assert resid <= 1e-10 * np.linalg.norm(system.rhs)


def test_pinned_zero_rhs_gives_zero():
    system, _, _ = _system("A", 16, 1, pin=True)
    x = solve_direct(system, np.zeros(system.n))
    assert np.all(x == 0.0)


def _assert_direct_solve_residual(pinned):
    """The pinned matrix factors, and the direct solve leaves a residual
    of at most 1e-8 * |rhs|."""
    x = solve_direct(pinned)
    residual = np.linalg.norm(pinned.matrix @ x - pinned.rhs)
    assert residual <= 1e-8 * np.linalg.norm(pinned.rhs)


def test_pinned_system_solves_directly():
    system, ops, mesh = _system("A", 8, 1)
    pinned = pin_nullspace(system)
    assert pinned.pinned_dof is not None
    _assert_direct_solve_residual(pinned)


@pytest.mark.parametrize("nh,n_cells", [(16, 1), (32, 25)])
def test_arrowhead_reconstruction_exact(nh, n_cells):
    system, _, _ = _system("A", nh, n_cells, pin=True)
    f = build_arrowhead_factors(system)
    n0 = system.dofmap.n0
    assert f.outer.shape == (system.n, 2 * n0)
    assert f.inner.shape == (2 * n0, system.n)
    low_rank = (f.outer @ f.inner).tocsr()
    assert abs(f.base + low_rank - system.matrix).max() == 0.0
    assert f.outer_aug.shape == (system.n, 2 * n0 + n_cells)
    aug = (f.outer_aug @ f.inner_aug).tocsr()
    # the +1/-1 unit correction cancels only to round-off at the N touched entries
    assert abs(f.base_full + aug - system.matrix).max() <= 1e-15
    assert f.unit_correction.nnz == n_cells
    assert np.all(f.unit_correction.data == 1.0)


def test_arrowhead_low_rank_measured():
    """The off-diagonal part has rank at most twice the membrane dof count."""
    system, _, _ = _system("A", 16, 1, pin=True)
    f = build_arrowhead_factors(system)
    lr = (f.outer @ f.inner).toarray()
    svals = np.linalg.svd(lr, compute_uv=False)
    tol = svals.max() * 1e-10
    rank = int(np.count_nonzero(svals > tol))
    n_gamma = system.dofmap.n_gamma
    assert rank <= 2 * n_gamma
    print(f"rank(U V) = {rank}, 2*n_gamma = {2 * n_gamma}")


def test_arrowhead_model_b_rejected():
    system, _, _ = _system("B", 32, 4)
    with pytest.raises(ArrowheadError):
        build_arrowhead_factors(system)


def test_smw_eps_solves_regularized_system():
    system, _, _ = _system("A", 16, 1, pin=True)
    f = build_arrowhead_factors(system)
    for eps in (1e-2, 1e-6):
        x = solve_smw_eps(f, system.rhs, eps)
        shifted = system.matrix + eps * sp.eye(system.n, format="csr")
        resid = np.linalg.norm(shifted @ x - system.rhs)
        assert resid <= 1e-10 * np.linalg.norm(system.rhs)


def test_smw_eps_limit_monotone():
    system, _, _ = _system("A", 16, 1, pin=True)
    f = build_arrowhead_factors(system)
    norm_b = np.linalg.norm(system.rhs)
    residuals = []
    for eps in (1e-2, 1e-4, 1e-6):
        x = solve_smw_eps(f, system.rhs, eps)
        residuals.append(np.linalg.norm(system.matrix @ x - system.rhs) / norm_b)
    assert residuals[0] > residuals[1] > residuals[2]


def test_smw_eps_rejects_zero():
    system, _, _ = _system("A", 16, 1, pin=True)
    f = build_arrowhead_factors(system)
    with pytest.raises(SmwError):
        solve_smw_eps(f, system.rhs, 0.0)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_smw_eps_rejects_bad_eps(eps):
    system, _, _ = _system("A", 8, 1, pin=True)
    f = build_arrowhead_factors(system)
    with pytest.raises(SmwError, match="positive and finite"):
        solve_smw_eps(f, system.rhs, eps)


def test_smw_exact_matches_direct():
    system, _, _ = _system("A", 16, 1, pin=True)
    f = build_arrowhead_factors(system)
    x = solve_smw_exact(f, system.rhs)
    x_ref = solve_direct(system)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
    resid = np.linalg.norm(system.matrix @ x - system.rhs)
    assert resid <= 1e-8 * np.linalg.norm(system.rhs)


def test_smw_exact_zero_rhs():
    system, _, _ = _system("A", 16, 1, pin=True)
    f = build_arrowhead_factors(system)
    x = solve_smw_exact(f, np.zeros(system.n))
    assert np.allclose(x, 0.0, atol=1e-14)


def test_smw_capacitance_width():
    system, _, _ = _system("A", 16, 1, pin=True)
    f = build_arrowhead_factors(system)
    n0 = system.dofmap.n0
    assert f.outer_aug.shape[1] == 2 * n0 + 1
    assert f.inner_aug.shape[0] == 2 * n0 + 1


def test_all_direct_paths_agree():
    # the eps-regularized solution differs from the exact one by O(eps / lambda_min),
    # so a tiny eps is needed for 1e-8 pairwise agreement
    system, _, _ = _system("A", 16, 1, pin=True)
    f = build_arrowhead_factors(system)
    x_direct = solve_direct(system)
    x_exact = solve_smw_exact(f, system.rhs)
    x_eps = solve_smw_eps(f, system.rhs, 1e-13)
    for a, b in ((x_direct, x_exact), (x_direct, x_eps), (x_exact, x_eps)):
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)


def test_scaled_default_is_symbol_normalized():
    """Scaling divides by sqrt(tau): bulk becomes the plain stiffness."""
    system, ops, _ = _system("A", 8, 1)
    scaled = build_scaled(system)
    dofmap = system.dofmap
    bulk = dofmap.block(scaled, 0)
    interior = ~dofmap.block(dofmap.is_membrane, 0)
    a0 = dofmap.block(ops.stiffness, 0)
    diff = (bulk - a0).toarray()[np.ix_(interior, interior)]
    assert np.abs(diff).max() <= 1e-12
    assert abs(scaled - scaled.T).max() == 0.0


def test_scaled_spectrum_split():
    """Eigenvalues stay within the stencil range plus the membrane perturbation."""
    system, _, _ = _system("A", 8, 1)
    scaled = build_scaled(system)
    dense = scaled.toarray()
    eigs = np.linalg.eigvalsh(dense)
    # split off the block-diagonal bulk part
    bulk = _same_block(system, dense)
    pert_norm = np.linalg.norm(dense - bulk, 2)
    mem_norm = np.abs(
        np.linalg.eigvalsh(bulk - _pure_stiffness_blockdiag(system))
    ).max()
    assert eigs.min() >= -1e-12 * max(eigs.max(), 1.0)
    assert eigs.max() <= 8.0 + 1.05 * (pert_norm + mem_norm)
    print(f"scaled spectrum: [{eigs.min():.3e}, {eigs.max():.6f}]")


def _same_block(system, dense):
    """The entries of a dense n x n array whose row and column share a block."""
    sub = system.dofmap.subdomain
    return np.where(sub[:, None] == sub[None, :], dense, 0.0)


def _pure_stiffness_blockdiag(system):
    out = _same_block(system, build_scaled(system).toarray())
    # remove the scaled membrane mass by zeroing membrane-membrane couplings
    mem = system.dofmap.is_membrane
    out[np.ix_(mem, mem)] = 0.0
    return out


def test_scaled_preserves_inertia():
    system, _, _ = _system("A", 8, 1, pin=True)
    scaled = build_scaled(system)
    e1 = np.linalg.eigvalsh(system.matrix.toarray())
    e2 = np.linalg.eigvalsh(scaled.toarray())
    tol1 = 1e-12 * np.abs(e1).max()
    tol2 = 1e-12 * np.abs(e2).max()

    def inertia(e, tol):
        return (int((e < -tol).sum()), int((np.abs(e) <= tol).sum()), int((e > tol).sum()))

    assert inertia(e1, tol1) == inertia(e2, tol2)


def _coo_build_scaled(system):
    """Reference scaling through a COO round trip, one factor per block."""
    sizes = system.dofmap.block_sizes
    scale_factors = 1.0 / np.sqrt(system.config.tau_per_dof(np.ones_like(sizes)))
    per_dof = np.repeat(scale_factors, sizes)
    coo = system.matrix.tocoo()
    data = coo.data * (per_dof[coo.row] * per_dof[coo.col])
    matrix = sp.coo_matrix((data, (coo.row, coo.col)), shape=coo.shape).tocsr()
    matrix.sort_indices()
    return matrix


@pytest.mark.parametrize("tau", [1e-2, 1e-5])
@pytest.mark.parametrize(
    "model,nh,n_cells",
    [("A", 16, 1), ("A", 32, 25), ("A", 64, 441), ("B", 64, 144), ("B", 128, 16), ("A", 16, 0)],
)
def test_build_scaled_matches_coo_reference(model, nh, n_cells, tau):
    unpinned, _, _ = _system(model, nh, n_cells, tau=tau)
    for system in (unpinned, pin_nullspace(unpinned)):
        _assert_same_csr(build_scaled(system), _coo_build_scaled(system))


def _coo_pin(system, pinned):
    """The COO formulation of the pin, kept as the oracle: drop every entry
    of the pinned row and column, append the unit diagonal, convert back."""
    coo = system.matrix.tocoo()
    keep = (coo.row != pinned) & (coo.col != pinned)
    matrix = sp.coo_matrix(
        (
            np.concatenate([coo.data[keep], [1.0]]),
            (np.concatenate([coo.row[keep], [pinned]]), np.concatenate([coo.col[keep], [pinned]])),
        ),
        shape=coo.shape,
    ).tocsr()
    matrix.sort_indices()
    rhs = system.rhs.copy()
    rhs[pinned] = 0.0
    return matrix, rhs


def _assert_pin_matches_coo(system):
    pinned = pin_nullspace(system)
    want, want_rhs = _coo_pin(system, pinned.pinned_dof)
    for attr in ("indptr", "indices", "data"):
        got, ref = getattr(pinned.matrix, attr), getattr(want, attr)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), attr
    assert pinned.matrix.has_sorted_indices == want.has_sorted_indices
    assert pinned.rhs.dtype == want_rhs.dtype and np.array_equal(pinned.rhs, want_rhs)
    return pinned


@pytest.mark.parametrize(
    "model,nh,n_cells,tau",
    [
        ("A", 64, 441, 1e-2),
        ("A", 64, 441, 1e-5),
        ("B", 64, 144, 1e-2),
        ("B", 64, 576, 1e-2),
        ("B", 128, 16, 1e-2),
        ("A", 16, 1, 1e-2),
        ("B", 16, 4, 1e-2),
        ("A", 256, 7225, 1e-5),
    ],
)
def test_pin_nullspace_matches_coo_reference(model, nh, n_cells, tau):
    system, _, _ = _system(model, nh, n_cells, tau=tau)
    _assert_pin_matches_coo(system)


def test_pin_nullspace_keeps_other_stored_zeros():
    system, _, _ = _system("A", 16, 1)
    pinned_dof = pin_nullspace(system).pinned_dof
    matrix = system.matrix.copy()
    rows = np.repeat(np.arange(system.n), np.diff(matrix.indptr))
    away = np.flatnonzero((rows != pinned_dof) & (matrix.indices != pinned_dof))[0]
    matrix.data[away] = 0.0
    pinned = _assert_pin_matches_coo(replace(system, matrix=matrix))
    assert np.count_nonzero(pinned.matrix.data == 0.0) == 1


def test_interface_basis_invertible_and_constant_preserving():
    system, _, _ = _system("A", 8, 1)
    Q = interface_basis(system.dofmap)
    n = system.n
    assert Q.shape == (n, n)
    assert np.linalg.matrix_rank(Q.toarray()) == n
    # the global constant is spanned by the average channels alone
    avg_cols = np.zeros(n)
    col_counts = np.asarray((Q != 0).sum(axis=0)).ravel()
    col_sums = np.asarray(Q.sum(axis=0)).ravel()
    avg_cols[(col_sums == col_counts) & (col_counts >= 1)] = 1.0
    assert np.allclose(Q @ avg_cols, 1.0)


@pytest.mark.parametrize("model, nh, n_cells", [("A", 16, 1), ("A", 16, 25), ("B", 16, 4)])
def test_vertex_channels_mark_one_average_per_vertex(model, nh, n_cells):
    """One True per vertex that owns dofs; the marked columns of the interface
    basis are all ones over their vertex group, the others one +1 and one -1."""
    system, _, _ = _system(model, nh, n_cells)
    dofmap = system.dofmap
    order, first = vertex_channels(dofmap)
    assert first.dtype == bool and first.shape == (system.n,)
    assert np.array_equal(np.sort(dofmap.vertex[order][first]), np.unique(dofmap.vertex))
    Q = interface_basis(dofmap).tocsc()
    Q.sort_indices()
    for j in range(system.n):
        rows = Q.indices[Q.indptr[j]:Q.indptr[j + 1]]
        vals = Q.data[Q.indptr[j]:Q.indptr[j + 1]]
        if first[j]:
            group = np.flatnonzero(dofmap.vertex == dofmap.vertex[rows[0]])
            assert np.array_equal(rows, group) and np.all(vals == 1.0)
        else:
            assert np.array_equal(np.sort(vals), [-1.0, 1.0])
            assert len(set(dofmap.vertex[rows])) == 1


def test_interface_basis_exposes_tau_scale():
    """Trace-average channels see tau-scale curvature once mass dominates."""
    tau = 1e-5
    system, _, _ = _system("A", 16, 1, tau=tau)
    Q = interface_basis(system.dofmap)
    transformed = (Q.T @ system.matrix @ Q).tocsr()
    assert abs(transformed - transformed.T).max() <= 1e-14
    diag = transformed.diagonal()
    # channels: one average per vertex; membrane vertices own an extra jump
    dofmap = system.dofmap
    order = np.argsort(dofmap.vertex, kind="stable")
    verts = dofmap.vertex[order]
    starts = np.flatnonzero(np.concatenate([[True], verts[1:] != verts[:-1]]))
    sizes = np.diff(np.concatenate([starts, [system.n]]))
    channel_of_group = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    membrane_groups = sizes > 1
    avg_diag = diag[channel_of_group[membrane_groups]]
    jump_diag = diag[channel_of_group[membrane_groups] + 1]
    assert avg_diag.max() <= 50 * tau  # tau-scale, not mass-scale
    assert jump_diag.min() >= 0.1 * (1.0 / 16)  # jump channels keep the mass scale


def _interface_basis_loop(dofmap):
    """Reference: the per-vertex-group loop the vectorized basis replaces."""
    n = dofmap.n
    order = np.argsort(dofmap.vertex, kind="stable")
    verts_sorted = dofmap.vertex[order]
    group_start = np.flatnonzero(
        np.concatenate([[True], verts_sorted[1:] != verts_sorted[:-1]])
    )
    group_end = np.concatenate([group_start[1:], [n]])
    rows, cols, vals = [], [], []
    col = 0
    for s, e in zip(group_start, group_end):
        dofs = order[s:e]
        k = e - s
        rows.extend(dofs.tolist())
        cols.extend([col] * k)
        vals.extend([1.0] * k)
        col += 1
        for m in range(1, k):
            rows.extend([dofs[0], dofs[m]])
            cols.extend([col, col])
            vals.extend([1.0, -1.0])
            col += 1
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize(
    "model,nh,n_cells", [("A", 16, 1), ("A", 64, 441), ("B", 64, 576), ("B", 128, 16)]
)
def test_interface_basis_matches_loop(model, nh, n_cells):
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    got, want = interface_basis(dofmap), _interface_basis_loop(dofmap)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))


@pytest.mark.parametrize(
    "sigma", [[2.0, 3.0, 4.0], [2.0], [[2.0, 3.0]]], ids=["too-long", "too-short", "2-d"]
)
def test_sigma_length_must_match_subdomains(sigma):
    mesh = build_mesh(16)
    labeling = label_model_a(mesh, 1)
    dofmap = build_dofmap(mesh, labeling)
    ops = assemble_operators(mesh, labeling, dofmap, ProblemConfig(sigma=sigma))
    match = rf"\(2,\).*got shape {re.escape(str(np.shape(sigma)))}"
    with pytest.raises(ValueError, match=match):
        build_system(ops)
    with pytest.raises(ValueError, match=match):
        blockdiag_prec(ops)


def _admissible_cells(model, nh):
    if model == "A":
        return [0] + admissible_cells_model_a(nh)
    side = 3 * nh // 4
    return [r * r for r in range(1, 13) if side % r == 0]


@st.composite
def _random_case(draw):
    model = draw(st.sampled_from(["A", "B"]))
    nh = draw(st.sampled_from([8, 16, 32]))
    n_cells = draw(st.sampled_from(_admissible_cells(model, nh)))
    tau = draw(st.floats(1e-6, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    sigma = np.random.default_rng(seed).uniform(0.1, 10.0, n_cells + 1)
    return model, nh, n_cells, ProblemConfig(tau=tau, sigma=sigma)


@settings(max_examples=25, deadline=None)
@given(case=_random_case())
def test_global_system_properties(case):
    model, nh, n_cells, config = case
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    system = build_system(assemble_operators(mesh, labeling, dofmap, config))
    A = system.matrix
    # bitwise symmetric
    assert (A != A.T).nnz == 0
    # the constant is in the kernel of the unpinned system
    row_norms = np.asarray(abs(A).sum(axis=1)).ravel()
    assert np.all(np.abs(A @ np.ones(system.n)) <= 1e-12 * row_norms)
    # the pinned system factors, and its direct solve meets the residual check
    _assert_direct_solve_residual(pin_nullspace(system))
    if model == "A":
        f = build_arrowhead_factors(system)
        assert (f.base + f.outer @ f.inner != A).nnz == 0


# ---------------------------------------------------------------------------
# Block-by-block references: sp.block_diag over the N+1 diagonal blocks and
# the arrowhead split sliced one cell at a time.  The masked block diagonal
# and the one-slice split must reproduce them bitwise.


def _block_diag_reference(system):
    dofmap = system.dofmap
    blocks = [dofmap.block(system.matrix, i) for i in range(dofmap.n_subdomains)]
    return sp.block_diag(blocks, format="csr")


def _arrowhead_reference(system):
    dofmap = system.dofmap
    n, n0, n_sub = system.n, dofmap.n0, dofmap.n_subdomains
    n_cells = n_sub - 1
    base = _block_diag_reference(system)
    o_rows, o_cols, o_vals = [np.arange(n0)], [np.arange(n0)], [np.ones(n0)]
    i_rows, i_cols, i_vals = [np.arange(n0) + n0], [np.arange(n0)], [np.ones(n0)]
    for i in range(1, n_sub):
        si, ei = dofmap.block_range(i)
        b_i = system.matrix[:n0, si:ei].tocoo()
        o_rows.append(b_i.col + si)
        o_cols.append(b_i.row + n0)
        o_vals.append(b_i.data)
        i_rows.append(b_i.row)
        i_cols.append(b_i.col + si)
        i_vals.append(b_i.data)
    outer = sp.coo_matrix(
        (np.concatenate(o_vals), (np.concatenate(o_rows), np.concatenate(o_cols))),
        shape=(n, 2 * n0),
    ).tocsr()
    inner = sp.coo_matrix(
        (np.concatenate(i_vals), (np.concatenate(i_rows), np.concatenate(i_cols))),
        shape=(2 * n0, n),
    ).tocsr()
    first = np.array([dofmap.block_range(i)[0] for i in range(1, n_sub)], dtype=np.int64)
    unit = sp.coo_matrix((np.ones(n_cells), (first, first)), shape=(n, n)).tocsr()
    extra = np.arange(n_cells) + 2 * n0
    o2, i2 = outer.tocoo(), inner.tocoo()
    outer_aug = sp.coo_matrix(
        (
            np.concatenate([o2.data, np.ones(n_cells)]),
            (np.concatenate([o2.row, first]), np.concatenate([o2.col, extra])),
        ),
        shape=(n, 2 * n0 + n_cells),
    ).tocsr()
    inner_aug = sp.coo_matrix(
        (
            np.concatenate([i2.data, -np.ones(n_cells)]),
            (np.concatenate([i2.row, extra]), np.concatenate([i2.col, first])),
        ),
        shape=(2 * n0 + n_cells, n),
    ).tocsr()
    return {
        "base": base,
        "outer": outer,
        "inner": inner,
        "unit_correction": unit,
        "base_full": (base + unit).tocsr(),
        "outer_aug": outer_aug,
        "inner_aug": inner_aug,
    }


def _unpinned_and_pinned(model, nh, n_cells, config):
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    system = build_system(assemble_operators(mesh, labeling, dofmap, config))
    return system, pin_nullspace(system)


@pytest.mark.parametrize(
    "model,nh,n_cells",
    [
        ("A", 16, 1),
        ("A", 32, 25),
        ("A", 64, 441),
        ("B", 64, 144),
        ("B", 128, 16),
        ("A", 256, 7225),
    ],
)
def test_block_diagonal_matches_block_diag_reference(model, nh, n_cells):
    for system in _unpinned_and_pinned(model, nh, n_cells, ProblemConfig(tau=1e-5)):
        _assert_same_csr(block_diagonal(system), _block_diag_reference(system))


_ARROWHEAD_CASES = [
    (nh, n_cells, ProblemConfig(tau=tau))
    for nh, n_cells in ((16, 1), (32, 25), (64, 441))
    for tau in (1e-2, 1e-5)
] + [(16, 1, ProblemConfig(tau=1e-2, sigma=[2.0, 3.0]))]


@pytest.mark.parametrize(
    "nh,n_cells,config",
    _ARROWHEAD_CASES,
    ids=[f"A-{nh}-{n}-{c.tau:g}-{np.size(c.sigma)}" for nh, n, c in _ARROWHEAD_CASES],
)
def test_arrowhead_factors_match_per_cell_reference(nh, n_cells, config):
    for system in _unpinned_and_pinned("A", nh, n_cells, config):
        _assert_same_csr(block_diagonal(system), _block_diag_reference(system))
        got = build_arrowhead_factors(system)
        for name, want in _arrowhead_reference(system).items():
            _assert_same_csr(getattr(got, name), want)
