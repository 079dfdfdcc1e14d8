"""Solver stack: preconditioned CG, ILU(0), exact block solves, one-cycle AMG.

Every preconditioner is a callable ``z = M(r)`` whose action is linear and
symmetric, as required for CG.  The AMG preconditioner applies a single
V(1,1) cycle of a smoothed-aggregation hierarchy with symmetric
Gauss-Seidel smoothing, built once per matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = [
    "AmgError",
    "SolverConfig",
    "SolveReport",
    "cg_solve",
    "ILU0Preconditioner",
    "ilu0_factor",
    "BlockDiagPreconditioner",
    "blockdiag_prec",
    "AmgLevel",
    "AmgHierarchy",
    "amg_build",
    "amg_vcycle",
    "AmgPreconditioner",
]


class AmgError(RuntimeError):
    """Raised when hierarchy construction stagnates or is inconsistent."""


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9
    maxiter: int = 20000

    def __post_init__(self):
        if not (self.tol > 0) or not np.isfinite(self.tol) or self.maxiter <= 0:
            raise ValueError("tol must be positive and finite, maxiter positive")


@dataclass
class SolveReport:
    iterations: int
    final_rel_residual: float
    wall_time: float
    residual_history: list
    converged: bool
    breakdown: bool = False  # stopped at ``iterations`` on nonpositive curvature


def cg_solve(A, b, config: SolverConfig | None = None, M=None, callback=None):
    """Preconditioned conjugate gradients on a symmetric system.

    Convergence is declared on the true relative residual: once the recursive
    residual passes the tolerance it is verified against b - A x and iteration
    continues (with a residual replacement) if round-off drift left the true
    residual above it.  Nonpositive or non-finite curvature stops the iteration
    with the breakdown flag set, signalling indefiniteness, nullspace
    contamination or non-finite input.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, time.perf_counter() - t0, [], True)

    # without a preconditioner z is r itself; p is updated in place and the
    # steps of x and r go through one buffer
    x = np.zeros(n)
    step = np.empty(n)
    r = b.copy()
    z = M(r) if M is not None else r
    p = z.copy()
    rz = float(r @ z)
    history: list[float] = []
    it = 0
    while it < config.maxiter:
        it += 1
        Ap = A @ p
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            rel = float(np.linalg.norm(b - A @ x) / norm_b)
            return x, SolveReport(
                it, rel, time.perf_counter() - t0, history, False, breakdown=True
            )
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Ap, out=step)
        rel = float(np.linalg.norm(r) / norm_b)
        history.append(rel)
        if callback is not None:
            callback(x)
        if rel <= config.tol:
            true_r = b - A @ x
            true_rel = float(np.linalg.norm(true_r) / norm_b)
            if true_rel <= config.tol:
                return x, SolveReport(
                    it, true_rel, time.perf_counter() - t0, history, True
                )
            r = true_r  # replace drifted recursive residual and keep going
            z = M(r) if M is not None else r
            p = z.copy()
            rz = float(r @ z)
            continue
        if M is not None:
            z = M(r)
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    rel = float(np.linalg.norm(b - A @ x) / norm_b)
    return x, SolveReport(it, rel, time.perf_counter() - t0, history, rel <= config.tol)


# ---------------------------------------------------------------------------
# ILU(0)


def _triangle_factor(T: sp.spmatrix):
    """SuperLU factor of a sparse triangle: natural order, diagonal pivots.

    A triangle needs no elimination, so the factor adds no fill (a lower T
    becomes unit-lower times its diagonal, an upper T identity times itself)
    and ``.solve`` is one forward and one backward substitution.  Single-column
    supernodes and panels keep the factorization's workspace small.
    """
    return splu(
        sp.csc_matrix(T), permc_spec="NATURAL", diag_pivot_thresh=0.0,
        relax=1, panel_size=1,
    )


@dataclass
class ILU0Preconditioner:
    """Zero fill-in incomplete LU; application is two triangular sweeps."""

    lower: sp.csr_matrix  # unit lower triangular
    upper: sp.csr_matrix
    shift: float = 0.0  # diagonal shift applied on pivot breakdown
    _lower_lu: object = field(init=False, repr=False)
    _upper_lu: object = field(init=False, repr=False)

    def __post_init__(self):
        self._lower_lu = _triangle_factor(self.lower)
        self._upper_lu = _triangle_factor(self.upper)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._upper_lu.solve(self._lower_lu.solve(r))


def _diagonal_positions(A: sp.csr_matrix) -> np.ndarray:
    """Position in ``A.data`` of each row's diagonal; indices sorted per row."""
    n = A.shape[0]
    indptr, indices = A.indptr, A.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    below = np.concatenate([[0], np.cumsum(indices < rows)])
    pos = indptr[:-1] + (below[indptr[1:]] - below[indptr[:-1]])
    ok = pos < indptr[1:]
    ok[ok] = indices[pos[ok]] == np.flatnonzero(ok)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"matrix lacks a stored diagonal entry in row {i}")
    return pos


def _ilu0_sweep(A: sp.csr_matrix) -> tuple[np.ndarray, float]:
    """In-place IKJ elimination on a CSR copy; returns (data, min |pivot|).

    The loops index memoryviews of the CSR arrays, which yield Python ints
    and floats; the arithmetic is the same IEEE double arithmetic.  The sweep
    stops at an exactly zero pivot, since min |pivot| is then 0 whatever follows.
    """
    data = A.data
    diag = memoryview(_diagonal_positions(A))
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
            return data, 0.0  # a later row would divide by it; the caller shifts
        min_piv = min(min_piv, piv)
    return data, min_piv


ILU_SHIFT_TRIES = 6  # factorizations tried: unshifted, then shifts growing 100x


def ilu0_factor(A) -> ILU0Preconditioner:
    """ILU(0): L and U inherit the sparsity pattern of A, row by row.

    On a (near-)zero pivot the factorization restarts from A plus a small
    diagonal shift, escalating until the pivots are safe; the shift actually
    used is recorded on the returned preconditioner.
    """
    A = sp.csr_matrix(A, dtype=float).copy()
    A.sort_indices()
    scale = float(np.abs(A.data).max()) if A.nnz else 1.0
    piv_tol = 1e-12 * scale
    shift = 0.0
    for _ in range(ILU_SHIFT_TRIES):
        work = A.copy() if shift == 0.0 else (A + shift * sp.eye(A.shape[0], format="csr")).tocsr()
        work.sort_indices()
        _, min_piv = _ilu0_sweep(work)
        if np.isfinite(min_piv) and min_piv > piv_tol:
            lower = sp.tril(work, -1, format="csr") + sp.eye(work.shape[0], format="csr")
            upper = sp.triu(work, format="csr")
            return ILU0Preconditioner(lower.tocsr(), upper.tocsr(), shift)
        shift = 1e-8 * scale if shift == 0.0 else shift * 100.0
    raise RuntimeError("ILU(0) pivot breakdown persists after diagonal shifts")


# ---------------------------------------------------------------------------
# Exact block-diagonal preconditioner


@dataclass
class BlockDiagPreconditioner:
    """Exact solve of tau_i * (A_i + eps * Mtilde_i) per subdomain block."""

    matrix: sp.csr_matrix
    eps: float
    _lu: object = field(repr=False, default=None)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._lu.solve(r)


def blockdiag_prec(operators, eps: float | None = None) -> BlockDiagPreconditioner:
    """Block-diagonal preconditioner tau_i * (A_i + eps * Mtilde_i).

    The bulk mass is the full-rank regularization of each Neumann stiffness
    block; the assembled block-diagonal matrix is SPD for any positive eps
    and factorized once.  ``A + eps * Mtilde`` is formed unscaled and every
    stored entry is then multiplied once by the tau_i of its row.
    """
    config = operators.config
    eps = float(config.epsilon if eps is None else eps)
    if not (eps > 0) or not np.isfinite(eps):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    P = (operators.stiffness + eps * operators.bulk_mass).tocsr()
    row_tau = config.tau_per_dof(operators.dofmap.block_sizes)
    P.data *= np.repeat(row_tau, np.diff(P.indptr))
    try:
        lu = splu(P.tocsc())
    except RuntimeError as exc:
        raise RuntimeError(f"block preconditioner factorization failed: {exc}") from exc
    return BlockDiagPreconditioner(P, eps, lu)


# ---------------------------------------------------------------------------
# Smoothed aggregation AMG, applied as a single V(1,1) cycle


@dataclass
class AmgLevel:
    matrix: sp.csr_matrix
    lower: sp.csr_matrix  # tril(A), for the forward Gauss-Seidel sweep
    upper: sp.csr_matrix  # triu(A), for the backward sweep
    prolong: sp.csr_matrix  # maps the next-coarser level into this one
    _lower_lu: object = field(init=False, repr=False)
    _upper_lu: object = field(init=False, repr=False)

    def __post_init__(self):
        self._lower_lu = _triangle_factor(self.lower)
        self._upper_lu = _triangle_factor(self.upper)


@dataclass
class AmgHierarchy:
    levels: list  # fine-to-coarse AmgLevel entries
    coarse_lu: object
    sizes: list  # matrix sizes, finest first, coarsest last


def _strength_graph(A: sp.csr_matrix, theta: float) -> sp.csr_matrix:
    d = A.diagonal()
    coo = A.tocoo()
    off = coo.row != coo.col
    r, c, v = coo.row[off], coo.col[off], coo.data[off]
    dd = d[r] * d[c]
    strong = (dd > 0) & (np.abs(v) >= theta * np.sqrt(np.maximum(dd, 0)))
    S = sp.coo_matrix(
        (np.abs(v[strong]), (r[strong], c[strong])), shape=A.shape
    ).tocsr()
    S.sort_indices()
    return S


def _aggregate(S: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Greedy aggregation over the strength graph, deterministic in row order.

    A row whose strong neighbours are all unassigned seeds an aggregate with
    them; a leftover row joins the aggregate of its strongest assigned
    neighbour (the first one on ties), or becomes a singleton.
    """
    n = S.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    indptr, indices, vals, ag = (
        memoryview(S.indptr), memoryview(S.indices), memoryview(S.data), memoryview(agg)
    )
    next_id = 0
    for i in range(n):
        if ag[i] != -1:
            continue
        nbrs = range(indptr[i], indptr[i + 1])
        if all(ag[indices[t]] == -1 for t in nbrs):
            ag[i] = next_id
            for t in nbrs:
                ag[indices[t]] = next_id
            next_id += 1
    for i in range(n):
        if ag[i] != -1:
            continue
        best = -1
        for t in range(indptr[i], indptr[i + 1]):
            c = indices[t]
            if ag[c] != -1 and (best == -1 or vals[t] > vals[best]):
                best = t
        if best != -1:
            ag[i] = ag[indices[best]]
        else:
            ag[i] = next_id
            next_id += 1
    return agg, next_id


AMG_THETA = 0.08  # strength-of-connection threshold
AMG_OMEGA = 2.0 / 3.0  # damping of the prolongator's Jacobi smoothing step
AMG_MAX_LEVELS = 25  # depth cap of the hierarchy
AMG_COARSE_N = 200  # coarsening stops at this many rows; the last level is solved densely


def amg_build(A) -> AmgHierarchy:
    """Build a smoothed-aggregation hierarchy down to a small dense coarse grid.

    Tentative prolongators are piecewise constant over greedy strength-based
    aggregates, smoothed by one damped-Jacobi step; coarse operators are the
    Galerkin triple products.  Coarsening that shrinks a level by less than
    10 percent aborts with diagnostics.
    """
    A = sp.csr_matrix(A)
    A.sort_indices()
    levels: list[AmgLevel] = []
    sizes = [A.shape[0]]
    while A.shape[0] > AMG_COARSE_N and len(levels) < AMG_MAX_LEVELS:
        S = _strength_graph(A, AMG_THETA)
        agg, n_agg = _aggregate(S)
        if n_agg >= 0.9 * A.shape[0]:
            raise AmgError(
                "aggregation stagnated: "
                f"{A.shape[0]} -> {n_agg} aggregates (sizes so far {sizes})"
            )
        n = A.shape[0]
        P_t = sp.coo_matrix(
            (np.ones(n), (np.arange(n), agg)), shape=(n, n_agg)
        ).tocsr()
        d = A.diagonal()
        if np.any(d <= 0):
            raise AmgError("matrix has a nonpositive diagonal entry")
        D_inv = sp.diags(1.0 / d)
        P = (P_t - AMG_OMEGA * (D_inv @ (A @ P_t))).tocsr()
        A_c = (P.T @ A @ P).tocsr()
        A_c.sort_indices()
        levels.append(
            AmgLevel(
                matrix=A,
                lower=sp.tril(A, format="csr"),
                upper=sp.triu(A, format="csr"),
                prolong=P,
            )
        )
        A = A_c
        sizes.append(A.shape[0])
    coarse_lu = la.lu_factor(A.toarray())
    return AmgHierarchy(levels=levels, coarse_lu=coarse_lu, sizes=sizes)


def _vcycle(h: AmgHierarchy, k: int, r: np.ndarray) -> np.ndarray:
    if k == len(h.levels):
        return la.lu_solve(h.coarse_lu, r)
    lvl = h.levels[k]
    # pre-smooth from zero initial guess: one forward Gauss-Seidel sweep
    x = lvl._lower_lu.solve(r)
    resid = r - lvl.matrix @ x
    x = x + lvl.prolong @ _vcycle(h, k + 1, lvl.prolong.T @ resid)
    # post-smooth: one backward sweep, the adjoint of the pre-smoother
    return x + lvl._upper_lu.solve(r - lvl.matrix @ x)


def amg_vcycle(h: AmgHierarchy, r: np.ndarray) -> np.ndarray:
    """One V(1,1) cycle with symmetric Gauss-Seidel smoothing."""
    return _vcycle(h, 0, np.asarray(r, dtype=float))


@dataclass
class AmgPreconditioner:
    """One V-cycle per application, optionally through a congruence basis.

    With a basis Q the action is Q V(Q^T r) for a hierarchy built on Q^T A Q,
    which stays symmetric positive definite for any nonsingular Q.
    """

    hierarchy: AmgHierarchy
    basis: object = None

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if self.basis is None:
            return amg_vcycle(self.hierarchy, r)
        return self.basis @ amg_vcycle(self.hierarchy, self.basis.T @ r)
