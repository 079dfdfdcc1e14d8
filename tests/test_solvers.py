"""Solver stack tests: CG behavior, ILU(0) exactness, AMG hierarchy checks."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve_triangular

from emilab import solvers
from emilab.fem import ProblemConfig, assemble_operators
from emilab.meshgen import build_dofmap, build_mesh, label_model_a, label_model_b
from emilab.solvers import (
    AmgError,
    AmgPreconditioner,
    SolverConfig,
    _aggregate,
    _ilu0_sweep,
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


def test_ilu0_stored_zero_pivot_shifted():
    """An exactly zero stored pivot ends the sweep with min |pivot| 0, as the
    reference sweep reports, and the factorization retries with a shift."""
    A = sp.csr_matrix((np.array([0.0, 1.0, 1.0, 0.0]), [0, 1, 0, 1], [0, 2, 4]), shape=(2, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        _, ref_piv = _ref_ilu0_sweep(A.copy())
    _, piv = _ilu0_sweep(A.copy())
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


def test_amg_on_pinned_system():
    system, _ = _emi_case(32, 1)
    h = amg_build(system.matrix)
    _, report = cg_solve(system.matrix, system.rhs, M=AmgPreconditioner(h))
    assert report.converged
    assert report.iterations <= 40


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


def _ref_ilu0_sweep(A):
    """Reference IKJ sweep indexing numpy arrays element by element."""
    indptr, indices, data = A.indptr, A.indices, A.data
    n = A.shape[0]
    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        row = indices[indptr[i] : indptr[i + 1]]
        k = np.searchsorted(row, i)
        if k >= len(row) or row[k] != i:
            raise ValueError(f"matrix lacks a stored diagonal entry in row {i}")
        diag_pos[i] = indptr[i] + k
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


def _ref_aggregate(S):
    """Reference greedy aggregation with numpy fancy indexing per row."""
    n = S.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    indptr, indices, data = S.indptr, S.indices, S.data
    next_id = 0
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        if len(nbrs) == 0 or np.all(agg[nbrs] == -1):
            agg[i] = next_id
            agg[nbrs] = next_id
            next_id += 1
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        vals = data[indptr[i] : indptr[i + 1]]
        assigned = agg[nbrs] != -1
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


ORACLE_MATRICES = {
    "laplacian-12": lambda: dirichlet_laplacian_2d(12),
    "A16-1": lambda: _emi_case(16, 1)[0].matrix,
    "A16-1-interface-basis": _interface_transform_a16,
    "B32-4": lambda: _emi_case(32, 4, model="B")[0].matrix,
    "isolated-row": _laplacian_with_isolated_row,
}


def _sorted_csr(A):
    A = sp.csr_matrix(A, dtype=float).copy()
    A.sort_indices()
    return A


@pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
def test_ilu0_sweep_matches_reference(name):
    A = _sorted_csr(ORACLE_MATRICES[name]())
    data, piv = _ilu0_sweep(A.copy())
    ref_data, ref_piv = _ref_ilu0_sweep(A.copy())
    assert np.array_equal(data, ref_data)
    assert piv == ref_piv


@pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
def test_aggregate_matches_reference(name):
    S = _strength_graph(_sorted_csr(ORACLE_MATRICES[name]()), theta=0.08)
    agg, n_agg = _aggregate(S)
    ref_agg, ref_n_agg = _ref_aggregate(S)
    assert np.array_equal(agg, ref_agg)
    assert n_agg == ref_n_agg
    if name == "isolated-row":
        assert np.diff(S.indptr)[7] == 0
        assert np.count_nonzero(agg == agg[7]) == 1


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
    monkeypatch.setattr(solvers, "AMG_COARSE_N", 50)
    h = amg_build(dirichlet_laplacian_2d(24))
    assert len(h.levels) >= 2
    rng = np.random.default_rng(43)
    for lvl in h.levels:
        _assert_triangle_factor_matches(lvl.lower, True, rng)
        _assert_triangle_factor_matches(lvl.upper, False, rng)


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
    norm_b = np.linalg.norm(b)
    x = np.zeros(b.shape[0])
    r = b.copy()
    z = M(r) if M is not None else r.copy()
    p = z.copy()
    rz = float(r @ z)
    history = []
    it = 0
    while it < config.maxiter:
        it += 1
        Ap = A @ p
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            return x, it, history, False
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.linalg.norm(r) / norm_b)
        history.append(rel)
        if rel <= config.tol:
            true_r = b - A @ x
            if float(np.linalg.norm(true_r) / norm_b) <= config.tol:
                return x, it, history, True
            r = true_r
            z = M(r) if M is not None else r.copy()
            p = z.copy()
            rz = float(r @ z)
            continue
        z = M(r) if M is not None else r.copy()
        rz_next = float(r @ z)
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
    "ill-conditioned-60": _ill_conditioned_dense,
}


@pytest.mark.parametrize("prec", ["none", "ilu"])
@pytest.mark.parametrize("name", sorted(CG_ORACLE_CASES))
def test_cg_iterates_match_reference_loop(name, prec):
    """In-place updates leave every iterate bitwise equal to the allocating loop."""
    A, b = CG_ORACLE_CASES[name]()
    M = ilu0_factor(sp.csr_matrix(A)) if prec == "ilu" else None
    config = SolverConfig(tol=1e-9, maxiter=5000)
    x, report = cg_solve(A, b, config, M=M)
    ref_x, ref_it, ref_history, ref_converged = _ref_cg_solve(A, b, config, M=M)
    assert np.array_equal(x, ref_x)
    assert report.iterations == ref_it
    assert report.residual_history == ref_history
    assert report.converged == ref_converged
    if name == "ill-conditioned-60" and prec == "none":
        history = np.array(ref_history)
        assert np.count_nonzero(history[:-1] <= config.tol) > 0  # replacements ran
