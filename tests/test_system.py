"""Global system tests: block layout, pinning, Woodbury paths, scaling."""

import numpy as np
import pytest
import scipy.sparse as sp

from emilab.fem import ProblemConfig, assemble_operators
from emilab.meshgen import build_dofmap, build_mesh, label_model_a, label_model_b
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


def test_block_structure():
    system, ops, _ = _system("A", 16, 1)
    cfg = ops.config
    d1 = (cfg.tau_i(1) * ops.stiffness[1] + ops.membrane_mass[1]).tocsr()
    assert abs(system.block(1, 1) - d1).max() == 0.0
    assert abs(system.block(0, 1) - ops.coupling[(0, 1)]).max() == 0.0
    assert abs(system.matrix - system.matrix.T).max() == 0.0


def test_model_a_blocks_are_arrowhead():
    system, _, _ = _system("A", 32, 25)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert system.block(i, j).nnz == 0


def test_block_diagonal_model_b_gap_junctions():
    system, _, _ = _system("B", 16, 4)
    diag = block_diagonal(system)
    for i, (s, length) in enumerate(system.block_ranges):
        got, want = diag[s : s + length, s : s + length], system.block(i, i)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
    rest = (system.matrix - diag).tocsr()
    for s, length in system.block_ranges:
        assert rest[s : s + length, s : s + length].nnz == 0
    assert rest.nnz > 0


def test_dimension_mismatch_rejected():
    system, ops, _ = _system("A", 8, 1)
    ops.stiffness[1] = sp.eye(3, format="csr")
    with pytest.raises(ValueError):
        build_system(ops)


def test_degenerate_single_block():
    system, ops, _ = _system("A", 8, 0, tau=0.37)
    expected = (0.37 * ops.stiffness[0]).tocsr()
    assert abs(system.matrix - expected).max() == 0.0


def test_per_subdomain_conductivities():
    mesh = build_mesh(16)
    labeling = label_model_a(mesh, 1)
    dofmap = build_dofmap(mesh, labeling)
    config = ProblemConfig(tau=0.5, sigma=np.array([2.0, 3.0]))
    ops = assemble_operators(mesh, labeling, dofmap, config)
    system = build_system(ops)
    d1 = (1.5 * ops.stiffness[1] + ops.membrane_mass[1]).tocsr()
    assert abs(system.block(1, 1) - d1).max() == 0.0
    scaled = build_scaled(system)
    assert np.allclose(scaled.scale_factors, [1 / np.sqrt(1.0), 1 / np.sqrt(1.5)])


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


def test_pin_probe_reports_nonsingular():
    system, ops, mesh = _system("A", 8, 1)
    pinned = pin_nullspace(system, probe=True)
    assert pinned.pinned_dof is not None


@pytest.mark.parametrize("nh,n_cells", [(16, 1), (32, 25)])
def test_arrowhead_reconstruction_exact(nh, n_cells):
    system, _, _ = _system("A", nh, n_cells, pin=True)
    f = build_arrowhead_factors(system)
    n0 = system.block_ranges[0][1]
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
    n0 = system.block_ranges[0][1]
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


def test_scaled_uniform_factors():
    system, _, mesh = _system("A", 8, 1)
    tau = system.config.tau
    factors = np.full(2, mesh.h / np.sqrt(tau))
    scaled = build_scaled(system, factors)
    expected = (mesh.h ** 2 / tau) * system.matrix
    assert abs(scaled.matrix - expected).max() <= 1e-15 * abs(expected).max()
    assert abs(scaled.matrix - scaled.matrix.T).max() == 0.0


def test_scaled_default_is_symbol_normalized():
    """Default scaling divides by sqrt(tau): bulk becomes the plain stiffness."""
    system, ops, _ = _system("A", 8, 1)
    scaled = build_scaled(system)
    s0, l0 = system.block_ranges[0]
    bulk = scaled.matrix[s0 : s0 + l0, s0 : s0 + l0]
    interior = ~system.dofmap.is_membrane[s0 : s0 + l0]
    a0 = ops.stiffness[0]
    diff = (bulk - a0).toarray()[np.ix_(interior, interior)]
    assert np.abs(diff).max() <= 1e-12


def test_scaled_spectrum_split():
    """Eigenvalues stay within the stencil range plus the membrane perturbation."""
    system, _, _ = _system("A", 8, 1)
    scaled = build_scaled(system)
    dense = scaled.matrix.toarray()
    eigs = np.linalg.eigvalsh(dense)
    # split off the block-diagonal bulk part
    bulk = np.zeros_like(dense)
    for s, l in system.block_ranges:
        tau_blk = system.config.tau
        bulk[s : s + l, s : s + l] = dense[s : s + l, s : s + l]
    pert_norm = np.linalg.norm(dense - bulk, 2)
    mem_norm = np.abs(
        np.linalg.eigvalsh(bulk - _pure_stiffness_blockdiag(system))
    ).max()
    assert eigs.min() >= -1e-12 * max(eigs.max(), 1.0)
    assert eigs.max() <= 8.0 + 1.05 * (pert_norm + mem_norm)
    print(f"scaled spectrum: [{eigs.min():.3e}, {eigs.max():.6f}]")


def _pure_stiffness_blockdiag(system):
    out = np.zeros((system.n, system.n))
    scaled = build_scaled(system)
    dense = scaled.matrix.toarray()
    for idx, (s, l) in enumerate(system.block_ranges):
        blk = dense[s : s + l, s : s + l].copy()
        out[s : s + l, s : s + l] = blk
    # remove the scaled membrane mass by zeroing membrane-membrane couplings
    mem = system.dofmap.is_membrane
    out[np.ix_(mem, mem)] = 0.0
    return out


def test_scaled_preserves_inertia():
    system, _, _ = _system("A", 8, 1, pin=True)
    scaled = build_scaled(system)
    e1 = np.linalg.eigvalsh(system.matrix.toarray())
    e2 = np.linalg.eigvalsh(scaled.matrix.toarray())
    tol1 = 1e-12 * np.abs(e1).max()
    tol2 = 1e-12 * np.abs(e2).max()

    def inertia(e, tol):
        return (int((e < -tol).sum()), int((np.abs(e) <= tol).sum()), int((e > tol).sum()))

    assert inertia(e1, tol1) == inertia(e2, tol2)


def test_scaled_wrong_factor_count():
    system, _, _ = _system("A", 8, 1)
    with pytest.raises(ValueError):
        build_scaled(system, np.ones(5))


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
