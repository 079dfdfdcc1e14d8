"""Solver stack tests: CG behavior, ILU(0) exactness, AMG hierarchy checks."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import SuperLU, splu, spsolve_triangular

from emilab import harness, solvers
from emilab.fem import ProblemConfig, assemble_operators
from emilab.meshgen import build_dofmap, build_mesh, label_model_a, label_model_b
from emilab.solvers import (
    AmgError,
    AmgPreconditioner,
    BAND_MAX,
    CELL_RHS_ENTRIES,
    DENSE_BLOCK_MAX,
    SolverConfig,
    _aggregate,
    _ilu0_numeric,
    _ilu0_schedule,
    _strength_graph,
    _triangle_factor,
    amg_build,
    amg_vcycle,
    blockdiag_prec,
    cg_solve,
    ilu0_factor,
)
from emilab.system import build_system, interface_basis, pin_nullspace, solve_direct


def dirichlet_laplacian_2d(m):
    """Standard SPD 5-point Laplacian on an m x m interior grid."""
    main = np.full(m, 2.0)
    off = np.full(m - 1, -1.0)
    T = sp.diags([off, main * 2, off], [-1, 0, 1])
    I = sp.eye(m)
    E = sp.diags([off, off], [-1, 1])
    return (sp.kron(I, T) + sp.kron(E, I)).tocsr()


def tridiag_laplacian(n):
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1]
    ).tocsr()


def _emi_case(nh, n_cells, tau=0.01, model="A"):
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells) if model == "A" else label_model_b(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    ops = assemble_operators(mesh, labeling, dofmap, ProblemConfig(tau=tau))
    return pin_nullspace(build_system(ops)), ops


def test_cg_identity_one_iteration():
    A = sp.eye(7, format="csr")
    b = np.arange(1.0, 8.0)
    x, report = cg_solve(A, b)
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(x, b, rtol=1e-14)


def test_cg_matches_direct_solve():
    A = dirichlet_laplacian_2d(7)
    b = np.sin(np.arange(A.shape[0], dtype=float))
    x, report = cg_solve(A, b, SolverConfig(tol=1e-12))
    x_ref = la.solve(A.toarray(), b)
    assert report.converged
    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_cg_true_residual_on_success():
    A = dirichlet_laplacian_2d(9)
    b = np.ones(A.shape[0])
    x, report = cg_solve(A, b)
    true_rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert report.converged
    assert true_rel <= 1e-9
    assert report.final_rel_residual == pytest.approx(true_rel, rel=1e-12)


def test_cg_energy_error_monotone():
    A = dirichlet_laplacian_2d(8)
    b = np.cos(np.arange(A.shape[0], dtype=float))
    x_star = la.solve(A.toarray(), b)
    iterates = []
    cg_solve(A, b, SolverConfig(tol=1e-12), callback=lambda x: iterates.append(x.copy()))
    energies = [float((x - x_star) @ (A @ (x - x_star))) for x in iterates]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * max(energies))


def test_cg_breakdown_on_indefinite():
    A = sp.diags([1.0, -1.0]).tocsr()
    b = np.array([1.0, 1.0])
    x, report = cg_solve(A, b)
    assert report.breakdown and report.iterations == 1
    assert not report.converged


def test_cg_zero_rhs():
    A = dirichlet_laplacian_2d(4)
    x, report = cg_solve(A, np.zeros(A.shape[0]))
    assert report.iterations == 0
    assert report.converged
    assert np.all(x == 0.0)


def test_cg_deterministic():
    A = dirichlet_laplacian_2d(8)
    b = np.sin(np.arange(A.shape[0], dtype=float))
    _, r1 = cg_solve(A, b)
    _, r2 = cg_solve(A, b)
    assert r1.iterations == r2.iterations
    assert r1.residual_history == r2.residual_history


def test_cg_nan_rhs_breaks_down_at_first_iteration():
    A = dirichlet_laplacian_2d(4)
    b = np.ones(A.shape[0])
    b[3] = np.nan
    _, report = cg_solve(A, b, SolverConfig(maxiter=300))
    assert report.breakdown
    assert report.iterations == 1
    assert not report.converged


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(maxiter=0)


# ---------------------------------------------------------------------------
# ILU(0)


def test_ilu0_tridiagonal_is_exact():
    """With no fill possible, ILU(0) reproduces the full factorization."""
    A = tridiag_laplacian(20)
    prec = ilu0_factor(A)
    assert prec.shift == 0.0
    LU = (prec.lower @ prec.upper).tocsr()
    assert abs(LU - A).max() <= 1e-14
    r = np.sin(np.arange(20, dtype=float))
    assert np.allclose(prec(r), la.solve(A.toarray(), r), rtol=1e-12)


def test_ilu0_pattern_is_preserved():
    A = dirichlet_laplacian_2d(6)
    prec = ilu0_factor(A)
    combined = (sp.tril(prec.lower, -1) + prec.upper).tocsr()
    combined.sort_indices()
    a_sorted = A.copy()
    a_sorted.sort_indices()
    assert np.array_equal(combined.indices, a_sorted.indices)
    assert np.array_equal(combined.indptr, a_sorted.indptr)


def test_ilu0_zero_pivot_shifted():
    A = sp.csr_matrix(np.array([[1e-30, 1.0], [1.0, 1e-30]]))
    prec = ilu0_factor(A)
    assert prec.shift > 0.0
    z = prec(np.array([1.0, 2.0]))
    assert np.all(np.isfinite(z))


def test_ilu0_missing_diagonal_rejected():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    A.eliminate_zeros()
    with pytest.raises(ValueError, match=r"row 0$"):
        ilu0_factor(A)


@pytest.mark.parametrize("rows, first", [((3, 5), 3), ((7,), 7), ((0, 7), 0)])
def test_ilu0_names_first_row_without_diagonal(rows, first):
    """The middle, the last and the first row of a tridiagonal pattern; the
    last row's diagonal key would be searched past the end of the keys."""
    A = tridiag_laplacian(8).tolil()
    for i in rows:
        A[i, i] = 0.0
    A = A.tocsr()
    A.eliminate_zeros()
    with pytest.raises(ValueError, match=rf"row {first}$"):
        ilu0_factor(A)


def test_ilu0_stored_zero_pivot_shifted():
    """An exactly zero stored pivot ends the sweep with min |pivot| 0, as the
    reference sweep reports, and the factorization retries with a shift."""
    A = sp.csr_matrix((np.array([0.0, 1.0, 1.0, 0.0]), [0, 1, 0, 1], [0, 2, 4]), shape=(2, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        _, ref_piv = _ref_ilu0_sweep(A.copy())
    piv = _ilu0_numeric(_ilu0_schedule(A), A.data.copy())
    assert piv == ref_piv == 0.0
    prec = ilu0_factor(A)
    assert prec.shift > 0.0
    assert np.all(np.isfinite(prec(np.array([1.0, 2.0]))))


def test_ilu0_accelerates_cg():
    A = dirichlet_laplacian_2d(32)
    b = np.ones(A.shape[0])
    _, plain = cg_solve(A, b)
    _, prec = cg_solve(A, b, M=ilu0_factor(A))
    assert prec.converged and plain.converged
    assert prec.iterations <= plain.iterations / 2


def test_ilu0_action_symmetric_on_spd_input():
    """On an SPD matrix ILU(0) factors satisfy U = diag(U) L^T, so the action
    is symmetric and valid inside CG."""
    A = dirichlet_laplacian_2d(12)
    prec = ilu0_factor(A)
    rng = np.random.default_rng(29)
    for _ in range(5):
        r1, r2 = rng.standard_normal((2, A.shape[0]))
        assert r2 @ prec(r1) == pytest.approx(r1 @ prec(r2), rel=1e-10)


# ---------------------------------------------------------------------------
# Block-diagonal preconditioner


def test_blockdiag_exact_block_solve():
    system, ops = _emi_case(16, 1)
    prec = blockdiag_prec(ops, eps=1e-4)
    rng = np.random.default_rng(3)
    r = rng.standard_normal(system.n)
    z = prec(r)
    assert np.linalg.norm(prec.matrix @ z - r) <= 1e-10 * np.linalg.norm(r)


def test_blockdiag_symmetric_linear_action():
    system, ops = _emi_case(16, 1)
    prec = blockdiag_prec(ops, eps=1e-4)
    rng = np.random.default_rng(11)
    r1, r2 = rng.standard_normal((2, system.n))
    lhs = r2 @ prec(r1)
    rhs = r1 @ prec(r2)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    combo = prec(2.0 * r1 + 3.0 * r2)
    assert np.allclose(combo, 2.0 * prec(r1) + 3.0 * prec(r2), rtol=1e-10)


def test_blockdiag_large_eps_stays_spd():
    system, ops = _emi_case(16, 1)
    prec = blockdiag_prec(ops, eps=1.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(system.n)
        assert v @ prec(v) > 0.0


def test_blockdiag_scales_each_block_by_its_tau_i():
    mesh = build_mesh(16)
    labeling = label_model_a(mesh, 1)
    dofmap = build_dofmap(mesh, labeling)
    config = ProblemConfig(tau=0.01, sigma=[1.0, 3.0])
    ops = assemble_operators(mesh, labeling, dofmap, config)
    prec = blockdiag_prec(ops, eps=1e-4)
    s1, e1 = dofmap.block_range(1)
    expected = (3.0 * 0.01) * (
        dofmap.block(ops.stiffness, 1) + 1e-4 * dofmap.block(ops.bulk_mass, 1)
    )
    assert np.array_equal(prec.matrix[s1:e1, s1:e1].toarray(), expected.toarray())


def test_blockdiag_rejects_nonpositive_eps():
    _, ops = _emi_case(16, 1)
    with pytest.raises(ValueError):
        blockdiag_prec(ops, eps=0.0)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_blockdiag_rejects_bad_eps(eps):
    _, ops = _emi_case(8, 1)
    with pytest.raises(ValueError, match="positive and finite"):
        blockdiag_prec(ops, eps=eps)


def _assert_symmetric_positive(prec, n, rng):
    for _ in range(5):
        v = rng.standard_normal(n)
        assert v @ prec(v) > 0.0
    r1, r2 = rng.standard_normal((2, n))
    assert r2 @ prec(r1) == pytest.approx(r1 @ prec(r2), rel=1e-10)


def _assert_backward_stable(prec, r):
    """Normwise backward error of ``prec(r)``, within 10 u of ||P||_1 ||z||_1."""
    z = prec(r)
    norm_p = float(abs(prec.matrix).sum(axis=0).max())
    residual = np.abs(prec.matrix @ z - r).sum()
    assert residual <= 10 * np.finfo(float).eps / 2 * norm_p * np.abs(z).sum()


@pytest.mark.parametrize("model,nh,n_cells", [("A", 32, 25), ("B", 64, 576), ("A", 64, 441)])
def test_blockdiag_split_path_backward_error(model, nh, n_cells):
    """Normwise backward error of the split path, within 10 u of ||P||_1 ||z||_1."""
    system, ops = _emi_case(nh, n_cells, model=model)
    prec = blockdiag_prec(ops, eps=1e-4)
    assert all(isinstance(group.factor, np.ndarray) for group in prec._cells)
    _assert_backward_stable(prec, np.random.default_rng(17).standard_normal(system.n))


def test_blockdiag_split_path_symmetric_positive():
    system, ops = _emi_case(64, 576, model="B")
    prec = blockdiag_prec(ops, eps=1e-4)
    n0 = ops.dofmap.n0
    assert prec._lu.shape == (n0, n0)  # the extracellular factor only
    # every cell block is the same, so one W serves all 576 cells: lower
    # triangular with a positive diagonal, and the inverse Cholesky factor
    # of any member's block bit for bit
    [group] = prec._cells
    W = group.factor
    assert W.shape == (group.size, group.size)
    assert not np.triu(W, 1).any()
    assert np.all(np.diag(W) > 0)
    for cell in (1, 300, 576):
        s, e = ops.dofmap.block_range(cell)
        block = prec.matrix[s:e, s:e].toarray()
        assert np.array_equal(W, np.linalg.inv(np.linalg.cholesky(block)))
    rng = np.random.default_rng(23)
    r = rng.standard_normal(system.n)
    R = r[n0:].reshape(576, group.size)
    assert np.array_equal(prec(r)[n0:], ((R @ W.T) @ W).ravel())
    _assert_symmetric_positive(prec, system.n, rng)


def _band(B, kd, lower=False):
    """LAPACK's band storage of B's lower or upper triangle within kd of the diagonal."""
    band = np.zeros((kd + 1, B.shape[0]))
    for k in range(kd + 1):
        if lower:
            band[k, : B.shape[0] - k] = B.diagonal(-k)
        else:
            band[kd - k, k:] = B.diagonal(k)
    return band


def _rcm_band(A):
    """Reverse Cuthill-McKee order of A and its upper band storage in that order."""
    order = reverse_cuthill_mckee(sp.csr_matrix(A), symmetric_mode=True)
    B = A[order][:, order]
    upper = sp.triu(B).tocoo()
    return order, _band(B, int((upper.col - upper.row).max()))


def _rcm_cholesky_band(A):
    """Reverse Cuthill-McKee order of A and, in upper band storage, ``U = L^T``
    for scipy's lower-storage banded Cholesky factor L of A in that order."""
    order, band = _rcm_band(A)
    kd, n = band.shape[0] - 1, band.shape[1]
    L = la.cholesky_banded(_band(A[order][:, order], kd, lower=True), lower=True)
    U = sp.diags([L[k, : n - k] for k in range(kd + 1)], list(range(kd + 1)))
    return order, _band(U, kd)


def _rcm_banded_solve(A, b):
    order, band = _rcm_cholesky_band(A)
    z = np.empty_like(b)
    z[order] = la.cho_solve_banded((band, False), b[order])
    return z


@pytest.mark.parametrize("model,nh,n_cells,banded", [("A", 64, 441, True),
                                                     ("A", 128, 441, False)])
def test_blockdiag_extracellular_factor_follows_its_bandwidth(model, nh, n_cells, banded):
    """The extracellular block is factored banded iff its RCM half-bandwidth
    is at most BAND_MAX (A/64/441: kd 65; A/128/441: kd 127, SuperLU), and
    either factor keeps the normwise backward-error bound."""
    system, ops = _emi_case(nh, n_cells, model=model)
    n0 = ops.dofmap.n0
    prec = blockdiag_prec(ops, eps=1e-4)
    _, band = _rcm_band(prec.matrix[:n0, :n0])
    assert (band.shape[0] - 1 <= BAND_MAX) == banded
    assert isinstance(prec._lu, SuperLU) != banded
    assert prec._lu.shape == (n0, n0)
    _assert_backward_stable(prec, np.random.default_rng(37).standard_normal(system.n))


def _synthetic_band(kd, n=400):
    """An SPD matrix whose every entry within kd of the diagonal is stored."""
    rng = np.random.default_rng(kd)
    offsets = np.arange(-kd, kd + 1)
    A = sp.diags([-rng.uniform(0.5, 1.0, n - abs(k)) for k in offsets], offsets)
    A = (A + A.T).tocsr()
    A.setdiag(abs(A).sum(axis=1).A1 + 1.0)
    return A


@pytest.mark.parametrize(
    "case,kd",
    [(("B", 64, 576), 19), (("B", 128, 16), 35), (("A", 32, 25), 31), (("A", 64, 441), 65),
     (64, 64), (65, 65), (100, 100)],
    ids=["B-64-576", "B-128-16", "A-32-25", "A-64-441", "synthetic-64", "synthetic-65",
         "synthetic-100"],
)
def test_extracellular_band_is_the_upper_storage_cholesky(case, kd):
    """The banded factor, held in upper band storage, is bitwise scipy's
    lower-storage Cholesky of the block in reverse Cuthill-McKee order,
    copied to upper storage, up to BAND_MAX (100).  Up to kd 64 that is also
    bitwise scipy's upper-storage Cholesky; from kd 65 the two storages round
    differently.  An int case is a synthetic band of that half-bandwidth."""
    if isinstance(case, int):
        A = _synthetic_band(case)
    else:
        model, nh, n_cells = case
        ops = _emi_case(nh, n_cells, model=model)[1]
        A = blockdiag_prec(ops, eps=1e-4).matrix[: ops.dofmap.n0, : ops.dofmap.n0]
    order, band = _rcm_band(A)
    assert band.shape[0] - 1 == kd <= BAND_MAX
    factor = solvers._extracellular_factor(A)
    assert np.array_equal(factor.order, order)
    assert factor.band.flags.f_contiguous
    assert np.array_equal(factor.band, _rcm_cholesky_band(A)[1])
    if kd <= 64:
        assert np.array_equal(factor.band, la.cholesky_banded(band))


@pytest.mark.parametrize("model,nh,n_cells", [("A", 16, 1), ("B", 64, 576)])
def test_blockdiag_banded_factor_reads_back_like_superlu(model, nh, n_cells):
    """The banded factor's L, U, perm_r and perm_c satisfy SuperLU's
    Pr A Pc = L U, with L = U^T, and count every band position."""
    _, ops = _emi_case(nh, n_cells, model=model)
    n0 = ops.dofmap.n0
    prec = blockdiag_prec(ops, eps=1e-4)
    lu, A = prec._lu, prec.matrix[:n0, :n0]
    assert not isinstance(lu, SuperLU)
    kd = lu.band.shape[0] - 1
    assert lu.U.nnz == lu.L.nnz == (kd + 1) * n0 - kd * (kd + 1) // 2
    assert (sp.triu(lu.U) != lu.U).nnz == 0 and (lu.L.T != lu.U).nnz == 0
    ones, at = np.ones(n0), np.arange(n0)
    Pr = sp.csc_matrix((ones, (lu.perm_r, at)), shape=(n0, n0))
    Pc = sp.csc_matrix((ones, (at, lu.perm_c)), shape=(n0, n0))
    scale = abs(A).max()
    assert abs(Pr @ A @ Pc - lu.L @ lu.U).max() <= 1e-14 * scale


def test_blockdiag_indefinite_extracellular_block_raises():
    _, ops = _emi_case(16, 4, model="B")
    stiffness = ops.stiffness.copy()
    rows = np.repeat(np.arange(ops.dofmap.n), np.diff(stiffness.indptr))
    stiffness.data[rows < ops.dofmap.n0] *= -1.0
    bad = dataclasses.replace(ops, stiffness=stiffness)
    with pytest.raises(RuntimeError, match="block preconditioner factorization failed"):
        blockdiag_prec(bad, eps=1e-4)


def _chunked_cell_solve(block, R):
    """Solves of the cells ``R`` (one per row) with a fresh SuperLU factor of
    ``block``, ``CELL_RHS_ENTRIES // size`` cells per solve, flattened."""
    lu = splu(block.tocsc())
    k = max(1, CELL_RHS_ENTRIES // block.shape[0])
    return np.concatenate([lu.solve(R[a : a + k].T).T.ravel() for a in range(0, len(R), k)])


@pytest.mark.parametrize("model,nh,n_cells", [("A", 16, 1), ("A", 32, 1), ("B", 32, 4),
                                              ("B", 128, 16), ("B", 256, 16)])
def test_blockdiag_large_cells_match_whole_matrix_factor(model, nh, n_cells):
    """Cells above DENSE_BLOCK_MAX dofs share one SuperLU factor, solved
    ``CELL_RHS_ENTRIES // size`` cells at a time (B/256/16: 4 solves of 4
    cells).  Their rows of the action are bitwise those chunked solves with a
    fresh SuperLU factor of one member's block, and within 16 u of the largest
    entry of one SuperLU factor of the whole matrix (2.4 u measured at
    B/128/16, where a multi-column solve rounds differently); the
    extracellular rows are bitwise scipy's banded solve with the lower-storage
    Cholesky factor of the block in reverse Cuthill-McKee order, copied to
    upper storage.  The action keeps the normwise
    backward-error bound of the split path."""
    system, ops = _emi_case(nh, n_cells, model=model)
    assert ops.dofmap.block_sizes[1:].min() > DENSE_BLOCK_MAX
    prec = blockdiag_prec(ops, eps=1e-4)
    [group] = prec._cells
    assert isinstance(group.factor, SuperLU)
    r = np.random.default_rng(29).standard_normal(system.n)
    z, n0 = prec(r), ops.dofmap.n0
    s, e = ops.dofmap.block_range(1)
    cells = _chunked_cell_solve(prec.matrix[s:e, s:e], r[n0:].reshape(-1, e - s))
    assert np.array_equal(z[n0:], cells)
    whole = splu(prec.matrix.tocsc()).solve(r)[n0:]
    assert np.abs(z[n0:] - whole).max() <= 16 * np.finfo(float).eps * np.abs(whole).max()
    assert np.array_equal(z[:n0], _rcm_banded_solve(prec.matrix[:n0, :n0], r[:n0]))
    _assert_backward_stable(prec, r)


def _with_cell_rows_changed(ops, cell, change):
    """A copy of ``ops`` whose stiffness rows of ``cell`` are ``change``d."""
    s, e = ops.dofmap.block_range(cell)
    stiffness = ops.stiffness.copy()
    at = slice(stiffness.indptr[s], stiffness.indptr[e])
    stiffness.data[at] = change(stiffness.data[at], stiffness.indices[at] - s)
    return dataclasses.replace(ops, stiffness=stiffness)


def _one_ulp_up_on_first_diagonal(data, local_cols):
    out = data.copy()
    k = int(np.flatnonzero(local_cols == 0)[0])  # the (0, 0) entry of the block
    out[k] = np.nextafter(out[k], np.inf)
    return out


@pytest.mark.parametrize(
    "change", [_one_ulp_up_on_first_diagonal, lambda data, _: 2.0 * data],
    ids=["one-ulp", "rows-times-2"],
)
def test_blockdiag_one_differing_cell_gets_its_own_factor(change):
    """B/16/4 with cell 2 changed: cells 1, 3 and 4 share a factor, cell 2 has its own."""
    system, ops = _emi_case(16, 4, model="B")
    changed = _with_cell_rows_changed(ops, 2, change)
    prec = blockdiag_prec(changed, eps=1e-4)
    (s1, e1), (s2, e2) = ops.dofmap.block_range(1), ops.dofmap.block_range(2)
    assert (prec.matrix[s1:e1, s1:e1] != prec.matrix[s2:e2, s2:e2]).nnz > 0
    assert len(prec._cells) == 2
    members = {frozenset(np.arange(system.n)[g.dofs].tolist()) for g in prec._cells}
    cells = [frozenset(range(*ops.dofmap.block_range(i))) for i in (1, 2, 3, 4)]
    assert members == {cells[0] | cells[2] | cells[3], cells[1]}
    # the normwise backward-error bound of the split path still holds
    rng = np.random.default_rng(31)
    _assert_backward_stable(prec, rng.standard_normal(system.n))
    _assert_symmetric_positive(prec, system.n, rng)


def test_blockdiag_superlu_group_gathers_non_consecutive_cells():
    """B/32/4 (169-dof cells) with cell 2 one ulp off: cells 1, 3 and 4 share
    one SuperLU factor through a gathered dof array and cell 2 has its own;
    each group's rows are bitwise the chunked solve of a fresh factor of its
    block, and the action stays backward stable, symmetric and positive."""
    system, ops = _emi_case(32, 4, model="B")
    changed = _with_cell_rows_changed(ops, 2, _one_ulp_up_on_first_diagonal)
    prec = blockdiag_prec(changed, eps=1e-4)
    shared, single = sorted(prec._cells, key=lambda g: -np.arange(system.n)[g.dofs].size)
    cell = [np.arange(*ops.dofmap.block_range(i)) for i in (1, 2, 3, 4)]
    assert isinstance(shared.dofs, np.ndarray)
    assert np.array_equal(shared.dofs, np.concatenate([cell[0], cell[2], cell[3]]))
    assert np.array_equal(np.arange(system.n)[single.dofs], cell[1])
    assert isinstance(shared.factor, SuperLU) and isinstance(single.factor, SuperLU)
    rng = np.random.default_rng(41)
    r = rng.standard_normal(system.n)
    z = prec(r)
    for group, first in ((shared, cell[0]), (single, cell[1])):
        block = prec.matrix[first[0] : first[-1] + 1, first[0] : first[-1] + 1]
        R = r[group.dofs].reshape(-1, group.size)
        assert np.array_equal(z[group.dofs], _chunked_cell_solve(block, R))
    _assert_backward_stable(prec, rng.standard_normal(system.n))
    _assert_symmetric_positive(prec, system.n, rng)


def test_blockdiag_indefinite_cell_block_raises():
    _, ops = _emi_case(16, 4, model="B")
    s1, e1 = ops.dofmap.block_range(1)
    stiffness = ops.stiffness.copy()
    rows = np.repeat(np.arange(ops.dofmap.n), np.diff(stiffness.indptr))
    stiffness.data[(rows >= s1) & (rows < e1)] *= -1.0
    bad = dataclasses.replace(ops, stiffness=stiffness)
    with pytest.raises(RuntimeError, match="block preconditioner factorization failed"):
        blockdiag_prec(bad, eps=1e-4)


# ---------------------------------------------------------------------------
# AMG


def test_amg_1d_poisson_model_problem(monkeypatch):
    A = tridiag_laplacian(64)
    monkeypatch.setattr(solvers, "AMG_COARSE_N", 8)
    h = amg_build(A)
    assert len(h.levels) >= 2
    assert all(a > b for a, b in zip(h.sizes, h.sizes[1:]))
    assert h.sizes[-1] <= 8
    b = np.ones(64)
    _, plain = cg_solve(A, b)
    _, prec = cg_solve(A, b, M=AmgPreconditioner(h))
    assert prec.converged
    assert prec.iterations <= 15
    assert plain.iterations >= 30  # the unpreconditioned count is far larger


def test_amg_identity_is_identity_action():
    A = sp.eye(64, format="csr")
    h = amg_build(A)
    assert len(h.levels) == 0
    r = np.sin(np.arange(64, dtype=float))
    assert np.allclose(amg_vcycle(h, r), r, rtol=1e-13)


def test_amg_galerkin_identity(monkeypatch):
    A = dirichlet_laplacian_2d(24)
    monkeypatch.setattr(solvers, "AMG_COARSE_N", 50)
    h = amg_build(A)
    rng = np.random.default_rng(17)
    norm_a = np.abs(A).sum(axis=1).max()
    for lvl, nxt in zip(h.levels, h.levels[1:] + [None]):
        coarse = nxt.matrix if nxt is not None else None
        if coarse is None:
            break
        P = lvl.prolong
        for _ in range(5):
            v = rng.standard_normal(P.shape[1])
            gap = np.linalg.norm((P.T @ (lvl.matrix @ (P @ v))) - coarse @ v)
            assert gap <= 1e-12 * norm_a * np.linalg.norm(v)


def test_amg_vcycle_zero_input(monkeypatch):
    A = dirichlet_laplacian_2d(16)
    monkeypatch.setattr(solvers, "AMG_COARSE_N", 50)
    h = amg_build(A)
    z = amg_vcycle(h, np.zeros(A.shape[0]))
    assert np.all(z == 0.0)


def test_amg_vcycle_symmetric(monkeypatch):
    A = dirichlet_laplacian_2d(24)
    monkeypatch.setattr(solvers, "AMG_COARSE_N", 50)
    h = amg_build(A)
    rng = np.random.default_rng(23)
    for _ in range(5):
        r1, r2 = rng.standard_normal((2, A.shape[0]))
        lhs = r2 @ amg_vcycle(h, r1)
        rhs = r1 @ amg_vcycle(h, r2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_amg_level_sizes():
    A = dirichlet_laplacian_2d(64)
    h = amg_build(A)
    assert all(a > b for a, b in zip(h.sizes, h.sizes[1:]))
    assert h.sizes[-1] <= 200


def test_amg_stagnation_aborts(monkeypatch):
    A = sp.eye(500, format="csr")  # no strong couplings anywhere
    monkeypatch.setattr(solvers, "AMG_COARSE_N", 100)
    with pytest.raises(AmgError):
        amg_build(A)


def test_amg_singular_coarse_grid_is_an_amg_error():
    """A coarse grid SuperLU cannot factor raises AmgError, not SuperLU's RuntimeError."""
    A = sp.csr_matrix(np.ones((3, 3)))  # positive diagonal, rank one, below AMG_COARSE_N
    with pytest.raises(AmgError, match="coarse grid of size 3"):
        amg_build(A)


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_amg_rejects_bad_diagonal_before_aggregating(monkeypatch, bad):
    """A NaN or negative diagonal entry is an AmgError, raised before aggregation."""
    A = tridiag_laplacian(400).tolil()
    A[137, 137] = bad
    A = A.tocsr()

    def unreachable(S, A):
        raise AssertionError("aggregated a matrix with a bad diagonal")

    monkeypatch.setattr(solvers, "_aggregate", unreachable)
    with pytest.raises(AmgError, match="nonpositive or non-finite diagonal"):
        amg_build(A)
    cover = np.arange(400) % 2 == 0
    with pytest.raises(AmgError, match="nonpositive or non-finite diagonal"):
        amg_build(A, cover=cover)


def _assert_same_hierarchy(got, want):
    assert got.sizes == want.sizes
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        for name in ("matrix", "prolong"):
            for attr in ("data", "indices", "indptr"):
                x, y = getattr(getattr(a, name), attr), getattr(getattr(b, name), attr)
                assert x.dtype == y.dtype and np.array_equal(x, y), (name, attr)
    for name in ("L", "U"):
        for attr in ("data", "indices", "indptr"):
            x = getattr(getattr(got.coarse_lu, name), attr)
            y = getattr(getattr(want.coarse_lu, name), attr)
            assert x.dtype == y.dtype and np.array_equal(x, y), ("coarse", name, attr)
    for name in ("perm_r", "perm_c"):
        assert np.array_equal(getattr(got.coarse_lu, name), getattr(want.coarse_lu, name))


@pytest.mark.parametrize("which", ["nodal-A/64/441", "dirichlet-2d"])
def test_amg_cover_of_every_row_is_the_default(which):
    """``cover`` marking every row builds the default hierarchy bit for bit."""
    if which == "dirichlet-2d":
        A = dirichlet_laplacian_2d(40)
    else:
        case = harness.build_case("A", 64, 441, 1e-2)
        assert harness._build_preconditioner(case, "amg", 1e-4).basis is None
        A = case.system.matrix
    default = amg_build(A)
    assert len(default.levels) >= 1
    _assert_same_hierarchy(amg_build(A, cover=np.ones(A.shape[0], dtype=bool)), default)


def test_amg_cover_restricts_the_first_aggregates():
    """Uncovered rows get zero rows in the first tentative prolongator only."""
    A = dirichlet_laplacian_2d(24)
    cover = np.arange(A.shape[0]) % 3 != 0
    h = amg_build(A, cover=cover)
    n = A.shape[0]
    covered = A[cover][:, cover]
    agg, n_agg = _aggregate(_strength_graph(covered, solvers.AMG_THETA), covered)
    assert h.sizes[1] == n_agg
    P_t = sp.csr_matrix((np.ones(agg.size), (np.flatnonzero(cover), agg)), shape=(n, n_agg))
    d_inv = sp.diags(1.0 / A.diagonal())
    P = P_t - solvers.AMG_OMEGA * (d_inv @ (A @ P_t))
    assert abs(h.levels[0].prolong - P).max() <= 1e-15
    with pytest.raises(ValueError, match="boolean mask"):
        amg_build(A, cover=cover[:-1])
    with pytest.raises(ValueError, match="boolean mask"):
        amg_build(A, cover=np.zeros(n, dtype=bool))


def test_amg_level_factors_hold_one_triangle():
    """The SuperLU factors a level stores are one factor of tril(A_k):
    nnz(tril A_k) + n_k entries."""
    case = harness.build_case("A", 64, 441, 1e-5)
    prec = harness._build_preconditioner(case, "amg", 1e-4)
    assert prec.basis is not None
    levels = prec.hierarchy.levels
    stored = sum(
        f.L.nnz + f.U.nnz for lvl in levels for f in vars(lvl).values() if isinstance(f, SuperLU)
    )
    assert stored == sum(lvl.lower.nnz + lvl.matrix.shape[0] for lvl in levels)


@pytest.mark.parametrize("tau, interface", [(1e-2, False), (1e-5, True)])
def test_amg_preconditioner_symmetric_positive_on_emi(tau, interface):
    """The preconditioner CG gets is symmetric and positive, in the nodal basis
    and in the interface basis, where Q^T A Q is symmetric only to rounding."""
    case = harness.build_case("A", 16, 1, tau)
    prec = harness._build_preconditioner(case, "amg", 1e-4)
    assert (prec.basis is not None) == interface
    _assert_symmetric_positive(prec, case.system.n, np.random.default_rng(29))


def test_amg_on_pinned_system():
    system, _ = _emi_case(32, 1)
    h = amg_build(system.matrix)
    _, report = cg_solve(system.matrix, system.rhs, M=AmgPreconditioner(h))
    assert report.converged
    assert report.iterations <= 40


def test_amg_converges_on_dense_model_a_at_moderate_tau():
    """A/256/7225 at tau 0.3: from the second level on the cell nodes have no
    strong neighbour.  As singletons they stagnated the coarsening; attached
    to the aggregate of their largest coupling they converge in 29."""
    case = harness.build_case("A", 256, 7225, 0.3)
    prec = harness._build_preconditioner(case, "amg", 1e-4)
    assert prec.basis is None
    _, report = cg_solve(case.system.matrix, case.system.rhs, SolverConfig(tol=1e-9), M=prec)
    assert report.converged and report.iterations <= 40


# ---------------------------------------------------------------------------
# Cross-solver agreement and clustering trends


def test_all_solvers_agree():
    system, ops = _emi_case(32, 1)
    x_ref = solve_direct(system)
    solutions = [x_ref]
    for M in (
        None,
        ilu0_factor(system.matrix),
        blockdiag_prec(ops, eps=1e-4),
        AmgPreconditioner(amg_build(system.matrix)),
    ):
        x, report = cg_solve(system.matrix, system.rhs, M=M)
        assert report.converged
        solutions.append(x)
    for a in solutions:
        for b in solutions:
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(x_ref)


def test_block_preconditioned_spectrum_clusters_at_one():
    """The share of preconditioned eigenvalues away from 1 shrinks under refinement."""
    fractions = []
    for nh in (8, 16, 32):
        mesh = build_mesh(nh)
        labeling = label_model_a(mesh, 1)
        dofmap = build_dofmap(mesh, labeling)
        ops = assemble_operators(mesh, labeling, dofmap, ProblemConfig(tau=0.01))
        system = build_system(ops)
        prec = blockdiag_prec(ops, eps=1e-4)
        eigs = la.eigh(
            system.matrix.toarray(), prec.matrix.toarray(), eigvals_only=True
        )
        frac = np.count_nonzero((eigs < 0.9) | (eigs > 1.1)) / len(eigs)
        fractions.append(frac)
    assert fractions[0] > fractions[1] > fractions[2]


# ---------------------------------------------------------------------------
# Loop kernels against their numpy-scalar reference implementations


def _ref_diagonal_positions(A):
    """Position in ``A.data`` of each row's diagonal, found row by row."""
    indptr, indices = A.indptr, A.indices
    n = A.shape[0]
    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        row = indices[indptr[i] : indptr[i + 1]]
        k = np.searchsorted(row, i)
        if k >= len(row) or row[k] != i:
            raise ValueError(f"matrix lacks a stored diagonal entry in row {i}")
        diag_pos[i] = indptr[i] + k
    return diag_pos


def _ref_ilu0_sweep(A):
    """Reference IKJ sweep indexing numpy arrays element by element."""
    indptr, indices, data = A.indptr, A.indices, A.data
    n = A.shape[0]
    diag_pos = _ref_diagonal_positions(A)
    min_piv = np.inf
    for i in range(n):
        s, e = indptr[i], indptr[i + 1]
        row_map = {c: s + j for j, c in enumerate(indices[s:e])}
        for jj in range(s, e):
            k = indices[jj]
            if k >= i:
                break
            piv = data[diag_pos[k]]
            lik = data[jj] / piv
            data[jj] = lik
            for pp in range(diag_pos[k] + 1, indptr[k + 1]):
                t = row_map.get(indices[pp])
                if t is not None:
                    data[t] -= lik * data[pp]
        min_piv = min(min_piv, abs(data[diag_pos[i]]))
    return data, min_piv


def _loop_ilu0_sweep(A):
    """Row-by-row IKJ sweep over memoryviews, stopping at an exactly zero pivot."""
    data = A.data
    diag = memoryview(_ref_diagonal_positions(A))
    indptr, indices, vals = memoryview(A.indptr), memoryview(A.indices), memoryview(data)
    min_piv = np.inf
    for i in range(A.shape[0]):
        s, e = indptr[i], indptr[i + 1]
        row_map = {indices[t]: t for t in range(s, e)}
        for jj in range(s, e):
            k = indices[jj]
            if k >= i:
                break
            dk = diag[k]
            lik = vals[jj] / vals[dk]
            vals[jj] = lik
            for pp in range(dk + 1, indptr[k + 1]):
                t = row_map.get(indices[pp])
                if t is not None:
                    vals[t] -= lik * vals[pp]
        piv = abs(vals[diag[i]])
        if piv == 0.0:
            return data, 0.0
        min_piv = min(min_piv, piv)
    return data, min_piv


def _ref_aggregate(S, A):
    """Reference greedy aggregation with numpy fancy indexing per row."""
    n = S.shape[0]
    agg = np.full(n, -1, dtype=np.int64)

    def row(M, i):
        span = slice(M.indptr[i], M.indptr[i + 1])
        return M.indices[span], np.abs(M.data[span])

    next_id = 0
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs, _ = row(S, i)
        if len(nbrs) == 0:
            cols, weights = row(A, i)
            if np.any((cols != i) & (weights > 0)):
                continue  # attached in the second pass
        if len(nbrs) == 0 or np.all(agg[nbrs] == -1):
            agg[i] = next_id
            agg[nbrs] = next_id
            next_id += 1
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs, vals = row(S, i)
        if len(nbrs) == 0:
            nbrs, vals = row(A, i)
        assigned = (agg[nbrs] != -1) & (vals > 0)
        if np.any(assigned):
            cand = nbrs[assigned]
            strength = vals[assigned]
            agg[i] = agg[cand[np.argmax(strength)]]
        else:
            agg[i] = next_id
            next_id += 1
    return agg, next_id


def _laplacian_with_isolated_row():
    A = dirichlet_laplacian_2d(6).tolil()
    A[7, :] = 0.0
    A[:, 7] = 0.0
    A[7, 7] = 4.0
    return A.tocsr()


def _interface_transform_a16():
    system, ops = _emi_case(16, 1, tau=1e-5)
    Q = interface_basis(ops.dofmap)
    return Q.T @ system.matrix @ Q


def _laplacian_with_weak_and_pinned_rows():
    """Row 7 has only weak couplings, the largest to row 13; row 20 is pinned."""
    A = dirichlet_laplacian_2d(6).tolil()
    for j in A.rows[7]:
        if j != 7:
            A[7, j] = A[j, 7] = -1e-3
    A[7, 13] = A[13, 7] = -2e-3
    A[20, :] = 0.0
    A[:, 20] = 0.0
    A[20, 20] = 1.0
    return A.tocsr()


ORACLE_MATRICES = {
    "laplacian-12": lambda: dirichlet_laplacian_2d(12),
    "A16-1": lambda: _emi_case(16, 1)[0].matrix,
    "A16-1-interface-basis": _interface_transform_a16,
    "B32-4": lambda: _emi_case(32, 4, model="B")[0].matrix,
    "isolated-row": _laplacian_with_isolated_row,
    "weak-and-pinned-rows": _laplacian_with_weak_and_pinned_rows,
}


def _sorted_csr(A):
    A = sp.csr_matrix(A, dtype=float).copy()
    A.sort_indices()
    return A


@pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
def test_ilu0_sweep_matches_reference(name):
    A = _sorted_csr(ORACLE_MATRICES[name]())
    data = A.data.copy()
    piv = _ilu0_numeric(_ilu0_schedule(A), data)
    ref_data, ref_piv = _ref_ilu0_sweep(A.copy())
    assert np.array_equal(data, ref_data)
    assert piv == ref_piv


@pytest.mark.parametrize(
    "model, nh, cells, tau",
    [("A", 64, 441, 1e-5), ("B", 64, 576, 0.01), ("B", 128, 16, 0.01)],
)
def test_ilu0_sweep_matches_loop_at_bench_scale(model, nh, cells, tau):
    """The level-scheduled sweep is bitwise equal to the row-by-row loop, and
    so are the diagonal positions it plans with."""
    A = _sorted_csr(_emi_case(nh, cells, tau=tau, model=model)[0].matrix)
    schedule = _ilu0_schedule(A)
    assert schedule.diag.tobytes() == _ref_diagonal_positions(A).tobytes()
    data = A.data.copy()
    piv = _ilu0_numeric(schedule, data)
    ref_data, ref_piv = _loop_ilu0_sweep(A.copy())
    assert data.tobytes() == ref_data.tobytes()
    assert piv == ref_piv


def _later_zero_pivot_matrix():
    """Three interleaved chains with diagonal (1, 2, 2, 1, 2, 2) and unit
    neighbours: the pivots are 1, 1, 1, 0 exactly, so the first zero pivots
    are rows 9-11, three per level, at level 3."""
    chain = sp.diags([np.ones(5), [1.0, 2.0, 2.0, 1.0, 2.0, 2.0], np.ones(5)], [-1, 0, 1])
    return _sorted_csr(sp.kron(chain, sp.eye(3)))


def test_ilu0_later_zero_pivot_reported():
    A = _later_zero_pivot_matrix()
    data = A.data.copy()
    piv = _ilu0_numeric(_ilu0_schedule(A), data)
    ref_data, ref_piv = _loop_ilu0_sweep(A.copy())
    assert piv == ref_piv == 0.0
    done = A.indptr[10]  # the loop stops after row 9, the first zero pivot
    assert data[:done].tobytes() == ref_data[:done].tobytes()
    assert data[_ref_diagonal_positions(A)[9]] == 0.0


def test_ilu0_shifted_factor_matches_loop_oracle():
    """A factor accepted after a shift is the loop's sweep of A + shift * I."""
    A = _later_zero_pivot_matrix()
    prec = ilu0_factor(A)
    assert prec.shift > 0.0
    shifted = _sorted_csr(A + prec.shift * sp.eye(A.shape[0]))
    _, piv = _loop_ilu0_sweep(shifted)
    assert piv > 0.0
    lower = sp.tril(shifted, -1, format="csr") + sp.eye(A.shape[0], format="csr")
    for got, want in ((prec.lower, lower), (prec.upper, sp.triu(shifted, format="csr"))):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ilu0_non_finite_entry_rejected(bad):
    """A non-finite entry fails before any sweep, naming its position."""
    A = tridiag_laplacian(6).tolil()
    A[2, 3] = A[3, 2] = bad
    with pytest.raises(ValueError, match=r"non-finite entry at \(2, 3\)$"):
        ilu0_factor(A.tocsr())


def _ref_strength_graph(A, theta):
    """The strength graph through a COO round trip: the oracle of the CSR construction."""
    d = A.diagonal()
    coo = A.tocoo()
    off = coo.row != coo.col
    r, c, v = coo.row[off], coo.col[off], coo.data[off]
    dd = d[r] * d[c]
    strong = (dd > 0) & (np.abs(v) >= theta * np.sqrt(np.maximum(dd, 0)))
    S = sp.coo_matrix((np.abs(v[strong]), (r[strong], c[strong])), shape=A.shape).tocsr()
    S.sort_indices()
    return S


def _assert_same_csr(got, want):
    for attr in ("data", "indices", "indptr"):
        x, y = getattr(got, attr), getattr(want, attr)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr


@pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
def test_aggregate_matches_reference(name):
    A = _sorted_csr(ORACLE_MATRICES[name]())
    S = _strength_graph(A, theta=0.08)
    _assert_same_csr(S, _ref_strength_graph(A, theta=0.08))
    agg, n_agg = _aggregate(S, A)
    ref_agg, ref_n_agg = _ref_aggregate(S, A)
    assert np.array_equal(agg, ref_agg)
    assert n_agg == ref_n_agg
    if name == "isolated-row":
        assert np.diff(S.indptr)[7] == 0
        assert np.count_nonzero(agg == agg[7]) == 1


@pytest.mark.parametrize("model,nh,cells,tau", [("A", 64, 441, 1e-2), ("A", 64, 441, 1e-5),
                                                ("B", 64, 144, 1e-2), ("B", 64, 576, 1e-2),
                                                ("B", 128, 16, 1e-2)])
def test_strength_graph_matches_coo_reference_on_bench_hierarchies(monkeypatch, model, nh,
                                                                    cells, tau):
    """Every level of the benchmark cases' AMG hierarchies (the interface
    basis's covered first level included) gets the COO oracle's graph bitwise."""
    seen = []

    def checked(A, theta):
        S = _strength_graph(A, theta)
        _assert_same_csr(S, _ref_strength_graph(A, theta))
        seen.append(A.shape[0])
        return S

    monkeypatch.setattr(solvers, "_strength_graph", checked)
    prec = harness._build_preconditioner(harness.build_case(model, nh, cells, tau), "amg", 1e-4)
    assert len(seen) == len(prec.hierarchy.levels) >= 2
    assert seen[1:] == prec.hierarchy.sizes[1:-1]


def test_aggregate_attaches_a_row_without_strong_neighbours():
    """A weakly coupled row joins the aggregate of its largest coupling; a
    row with no off-diagonal entry stays a singleton."""
    A = _sorted_csr(_laplacian_with_weak_and_pinned_rows())
    S = _strength_graph(A, theta=solvers.AMG_THETA)
    assert np.diff(S.indptr)[[7, 20]].tolist() == [0, 0]
    agg, _ = _aggregate(S, A)
    assert agg[7] == agg[13] != agg[1] and np.count_nonzero(agg == agg[7]) > 2
    assert np.count_nonzero(agg == agg[20]) == 1


def test_aggregate_keeps_the_pinned_row_alone():
    system, _ = _emi_case(16, 1)
    A = _sorted_csr(system.matrix)
    agg, _ = _aggregate(_strength_graph(A, solvers.AMG_THETA), A)
    assert np.count_nonzero(agg == agg[system.pinned_dof]) == 1


# ---------------------------------------------------------------------------
# Triangle factors used by the ILU(0) apply and the Gauss-Seidel sweeps


def _assert_triangle_factor_matches(T, lower, rng):
    n = T.shape[0]
    lu = _triangle_factor(T)
    assert lu.L.nnz + lu.U.nnz == T.nnz + n  # no fill
    b = rng.standard_normal(n)
    ref = spsolve_triangular(T, b, lower=lower)
    assert np.linalg.norm(lu.solve(b) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_triangle_factor_ilu0_triangles():
    system, _ = _emi_case(16, 1)
    prec = ilu0_factor(system.matrix)
    rng = np.random.default_rng(41)
    _assert_triangle_factor_matches(prec.lower, True, rng)
    _assert_triangle_factor_matches(prec.upper, False, rng)


def test_triangle_factor_amg_level_triangles(monkeypatch):
    """A level's one factor solves with tril(A) (the forward sweep) and, with
    trans="T", with tril(A)^T (the backward sweep)."""
    monkeypatch.setattr(solvers, "AMG_COARSE_N", 50)
    h = amg_build(dirichlet_laplacian_2d(24))
    assert len(h.levels) >= 2
    rng = np.random.default_rng(43)
    for lvl in h.levels:
        lu = lvl._lower_lu
        assert lu.L.nnz + lu.U.nnz == lvl.lower.nnz + lvl.matrix.shape[0]  # no fill
        b = rng.standard_normal(lvl.matrix.shape[0])
        for trans, T, lower in (("N", lvl.lower, True), ("T", lvl.lower.T.tocsr(), False)):
            ref = spsolve_triangular(T, b, lower=lower)
            assert np.linalg.norm(lu.solve(b, trans=trans) - ref) <= 1e-13 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    density=st.floats(0.0, 0.5),
    lower=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_triangle_factor_matches_dense_solve(n, density, lower, seed):
    """Random sparse triangles, rows diagonally dominant so the diagonal
    stays away from 0, solve like the dense triangular solver."""
    rng = np.random.default_rng(seed)
    off = sp.random(n, n, density=density, random_state=rng, data_rvs=lambda k: rng.uniform(-1, 1, k))
    off = sp.tril(off, -1) if lower else sp.triu(off, 1)
    dominance = 1.0 + np.asarray(abs(off).sum(axis=1)).ravel()
    diag = rng.choice([-1.0, 1.0], n) * dominance * rng.uniform(1.0, 2.0, n)
    T = (off + sp.diags(diag)).tocsr()
    b = rng.standard_normal(n)
    ref = la.solve_triangular(T.toarray(), b, lower=lower)
    lu = _triangle_factor(T)
    assert lu.L.nnz + lu.U.nnz == T.nnz + n
    assert np.linalg.norm(lu.solve(b) - ref) <= 1e-10 * np.linalg.norm(ref)


def _ref_cg_solve(A, b, config, M=None):
    """Reference CG loop that allocates its vectors every iteration."""
    dot = solvers._dot
    norm_b = np.sqrt(dot(b, b))
    x = np.zeros(b.shape[0])
    r = b.copy()
    z = M(r) if M is not None else r.copy()
    p = z.copy()
    rz = dot(r, z)
    history = []
    it = 0
    while it < config.maxiter:
        it += 1
        Ap = A @ p
        pAp = dot(p, Ap)
        if not pAp > 0.0:
            return x, it, history, False
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.sqrt(dot(r, r)) / norm_b)
        history.append(rel)
        if rel <= config.tol:
            true_r = b - A @ x
            if float(np.sqrt(dot(true_r, true_r)) / norm_b) <= config.tol:
                return x, it, history, True
            r = true_r
            z = M(r) if M is not None else r.copy()
            p = z.copy()
            rz = dot(r, z)
            continue
        z = M(r) if M is not None else r.copy()
        rz_next = dot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, it, history, False


def _ill_conditioned_dense():
    """60 x 60, condition 1e8: plain CG at tol 1e-9 takes 1427 steps, one a residual replacement."""
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    A = (Q * np.logspace(0, 8, 60)) @ Q.T
    return (A + A.T) / 2, rng.standard_normal(60)


def _pinned_case(model, nh, n_cells):
    system = _emi_case(nh, n_cells, model=model)[0]
    return system.matrix, system.rhs


CG_ORACLE_CASES = {
    "A16-1": lambda: _pinned_case("A", 16, 1),
    "B16-4": lambda: _pinned_case("B", 16, 4),
    "B128-16": lambda: _pinned_case("B", 128, 16),  # n = 17,616: chunked reductions
    "ill-conditioned-60": _ill_conditioned_dense,
}


@pytest.mark.parametrize("prec", ["none", "ilu"])
@pytest.mark.parametrize("name", sorted(CG_ORACLE_CASES))
def test_cg_iterates_match_reference_loop(name, prec):
    """In-place updates leave every iterate bitwise equal to the allocating loop."""
    A, b = CG_ORACLE_CASES[name]()
    M = ilu0_factor(sp.csr_matrix(A)) if prec == "ilu" else None
    config = SolverConfig(tol=1e-9, maxiter=50 if name == "B128-16" else 5000)
    x, report = cg_solve(A, b, config, M=M)
    ref_x, ref_it, ref_history, ref_converged = _ref_cg_solve(A, b, config, M=M)
    assert np.array_equal(x, ref_x)
    assert report.iterations == ref_it
    assert report.residual_history == ref_history
    assert report.converged == ref_converged
    if name == "ill-conditioned-60" and prec == "none":
        history = np.array(ref_history)
        assert np.count_nonzero(history[:-1] <= config.tol) > 0  # replacements ran


@pytest.mark.parametrize("n", [1, 7, 8191, 8192])
def test_dot_is_the_plain_product_up_to_one_chunk(n):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((2, n))
    assert solvers._dot(x, y) == float(x @ y)
    assert solvers._norm(x) == float(np.linalg.norm(x))


@pytest.mark.parametrize("n", [8193, 3 * 8192, 67984])
def test_dot_sums_the_chunk_products_in_order(n):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((2, n))
    C = solvers.DOT_CHUNK
    assert C == 8192
    total = 0.0
    for a in range(0, n, C):
        total += float(x[a : a + C] @ y[a : a + C])
    assert solvers._dot(x, y) == total
    assert solvers._norm(x) == np.sqrt(solvers._dot(x, x))
    assert solvers._dot(x, y) == pytest.approx(float(x @ y), rel=1e-12, abs=1e-12 * n)


# Runs a few CG iterations per solver and prints the residual histories as
# exact hex floats, keyed by case and solver.
_THREAD_PROBE = """
import json, sys
from emilab import harness
from emilab.solvers import SolverConfig, cg_solve
out = {}
for model, nh, cells, tau, names in json.loads(sys.argv[1]):
    case = harness.build_case(model, nh, cells, tau)
    for solver in names:
        M = harness._build_preconditioner(case, solver, 1e-4)
        _, report = cg_solve(case.system.matrix, case.system.rhs, SolverConfig(maxiter=20), M=M)
        out[f"{model}/{nh}/{cells}/{tau:g} {solver}"] = [h.hex() for h in report.residual_history]
print(json.dumps(out))
"""
# n = 67,984 on B/256/16: CG's reductions are above OpenBLAS's threading
# cut-off, and blockdiag solves its 16 cells of 2401 dofs 4 at a time; the
# AMG coarse grids of both cases are 162 and 146 rows; the extracellular
# bands of both cases (kd 67 and 65) are factored on OpenBLAS's pool
_THREAD_CASES = [
    ("B", 256, 16, 1e-2, ["cg", "ilu", "blockdiag", "amg"]),
    ("A", 64, 441, 1e-2, ["amg", "blockdiag"]),
]


def _probe_with_threads(probe: str, cases: list, threads: int) -> dict:
    """Run ``probe`` on ``cases`` in a fresh interpreter with ``threads`` OpenBLAS threads."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(Path(solvers.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(cases)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs for a two-thread BLAS"
)
def test_residual_histories_do_not_depend_on_blas_threads():
    """Every solver's CG steps (20 at most) are the same bits under 1 and 2 BLAS threads."""
    one, two = (_probe_with_threads(_THREAD_PROBE, _THREAD_CASES, t) for t in (1, 2))
    assert sorted(one) == sorted(two)
    assert len(one) == 6
    for key in one:
        assert len(one[key]) >= 10, key
        assert one[key] == two[key], key


# Builds each case, lets the BLAS pools fall asleep, then reads the process
# CPU time over the wall time of the block-diagonal set-up and a 0.1 s
# busy-wait after it: a BLAS pool left spinning adds a second core's worth.
_SETUP_PROBE = """
import json, sys, time
from emilab import harness
from emilab.solvers import blockdiag_prec
out = {}
for model, nh, cells in json.loads(sys.argv[1]):
    case = harness.build_case(model, nh, cells, 1e-2)
    time.sleep(1.0)
    cpu, wall = time.process_time(), time.perf_counter()
    blockdiag_prec(case.operators, 1e-4)
    end = time.perf_counter() + 0.1
    while time.perf_counter() < end:
        pass
    out[f"{model}/{nh}/{cells}"] = (time.process_time() - cpu) / (time.perf_counter() - wall)
print(json.dumps(out))
"""


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs for a two-thread BLAS"
)
def test_blockdiag_setup_leaves_no_blas_thread_spinning():
    """The banded factors of B/64/576 (kd 19) and B/128/16 (kd 35) run on the
    calling thread under 2 OpenBLAS threads: process CPU stays near the wall
    time (an upper-storage dpbtrf read about 2.0 on a 2-core host)."""
    ratios = _probe_with_threads(_SETUP_PROBE, [("B", 64, 576), ("B", 128, 16)], 2)
    assert len(ratios) == 2
    for key, ratio in ratios.items():
        assert ratio <= 1.3, (key, ratio)
