"""Solver stack: preconditioned CG, ILU(0), exact block solves, one-cycle AMG.

Every preconditioner is a callable ``z = M(r)`` whose action is linear and
symmetric, as required for CG.  The block-diagonal preconditioner is
factored once: the extracellular block gets a banded Cholesky factor in
reverse Cuthill-McKee order when its half-bandwidth there is at most
``BAND_MAX`` (factored in lower band storage and applied from upper
storage), and a SuperLU factor otherwise; each distinct
cell block (cells are grouped by bitwise identity) gets one factor, a dense
inverse Cholesky factor up to ``DENSE_BLOCK_MAX`` dofs and a SuperLU factor above,
shared by all the cells of its group.  A group's dense factor is applied to
all its cells in two matrix products, and its SuperLU factor solves
``CELL_RHS_ENTRIES // size`` cells per call, as the columns of one
multi-right-hand-side solve.  The AMG
preconditioner applies a single V(1,1) cycle of a smoothed-aggregation
hierarchy with symmetric Gauss-Seidel smoothing, built once per matrix, and
solves its coarsest level with SuperLU.

The solve loop runs on the calling thread: CG reduces through ``_dot``,
whose chunks stay below OpenBLAS's threading cut-off, and the
preconditioner applies use sparse products, SuperLU solves of at most
``CELL_RHS_ENTRIES`` right-hand-side entries, LAPACK's banded solve and small
dense products.  Residual histories and iteration counts are
therefore the same bits under any BLAS thread count.  The block-diagonal
set-up stays on the calling thread too for an extracellular band of
half-bandwidth up to 64, so no OpenBLAS thread is left spinning through the
CG loop after it; a band of kd 65 to ``BAND_MAX`` still wakes scipy's pool.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

__all__ = [
    "AmgError",
    "SolverConfig",
    "SolveReport",
    "cg_solve",
    "ILU0Preconditioner",
    "ilu0_factor",
    "BlockDiagPreconditioner",
    "blockdiag_matrix",
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


DOT_CHUNK = 8192  # entries per partial dot product, below OpenBLAS's threading cut-off


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x . y`` as the in-order sum of the dot products of ``DOT_CHUNK``-entry chunks.

    OpenBLAS runs ``ddot`` on the calling thread up to 10,000 entries and
    splits it over its thread pool above, which both changes the rounding
    with the thread count and wakes a pool that spins against scipy's.  The
    chunks keep every partial product on the calling thread, so the sum has
    the same bits under any thread count; up to ``DOT_CHUNK`` entries it is
    bitwise ``x @ y``.
    """
    if x.shape[0] <= DOT_CHUNK:
        return float(x @ y)
    total = 0.0
    for a in range(0, x.shape[0], DOT_CHUNK):
        total += float(x[a : a + DOT_CHUNK] @ y[a : a + DOT_CHUNK])
    return total


def _norm(x: np.ndarray) -> float:
    """Euclidean norm through ``_dot``; bitwise ``np.linalg.norm`` up to ``DOT_CHUNK`` entries."""
    return math.sqrt(_dot(x, x))


def cg_solve(A, b, config: SolverConfig | None = None, M=None, callback=None):
    """Preconditioned conjugate gradients on a symmetric system.

    Convergence is declared on the true relative residual: once the recursive
    residual passes the tolerance it is verified against b - A x and iteration
    continues (with a residual replacement) if round-off drift left the true
    residual above it.  Nonpositive or non-finite curvature stops the iteration
    with the breakdown flag set, signalling indefiniteness, nullspace
    contamination or non-finite input.  Every inner product and norm goes
    through ``_dot``, so the loop never wakes a BLAS thread pool and its
    iterates are the same bits under any thread count.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    norm_b = _norm(b)
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, time.perf_counter() - t0, [], True)

    # without a preconditioner z is r itself, and r . r serves as both the
    # residual norm and r . z; p is updated in place and the steps of x and r
    # go through one buffer
    x = np.zeros(n)
    step = np.empty(n)
    r = b.copy()
    z = M(r) if M is not None else r
    p = z.copy()
    rz = _dot(r, z)
    history: list[float] = []
    it = 0
    while it < config.maxiter:
        it += 1
        Ap = A @ p
        pAp = _dot(p, Ap)
        if not pAp > 0.0:
            rel = _norm(b - A @ x) / norm_b
            return x, SolveReport(
                it, rel, time.perf_counter() - t0, history, False, breakdown=True
            )
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Ap, out=step)
        rr = _dot(r, r)
        rel = math.sqrt(rr) / norm_b
        history.append(rel)
        if callback is not None:
            callback(x)
        if rel <= config.tol:
            true_r = b - A @ x
            true_rel = _norm(true_r) / norm_b
            if true_rel <= config.tol:
                return x, SolveReport(
                    it, true_rel, time.perf_counter() - t0, history, True
                )
            r = true_r  # replace drifted recursive residual and keep going
            z = M(r) if M is not None else r
            p = z.copy()
            rz = _dot(r, z)
            continue
        if M is None:
            rz_next = rr
        else:
            z = M(r)
            rz_next = _dot(r, z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    rel = _norm(b - A @ x) / norm_b
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
    """Zero fill-in incomplete LU; application is two triangular sweeps.

    The SuperLU factors of the two triangles are their only copy: ``lower``
    and ``upper`` are read back from them as CSR.
    """

    _lower_lu: object = field(repr=False)
    _upper_lu: object = field(repr=False)
    shift: float  # diagonal shift applied on pivot breakdown

    @property
    def lower(self) -> sp.csr_matrix:  # unit lower triangular
        return self._lower_lu.L.tocsr()

    @property
    def upper(self) -> sp.csr_matrix:
        return self._upper_lu.U.tocsr()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._upper_lu.solve(self._lower_lu.solve(r))


def _segments(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[m], stops[m])`` over m, without a loop."""
    lens = stops - starts
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()))


def _row_levels(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Level of each row in the dependency graph of a strictly lower pattern.

    Row i reads every row k of its stored entries (i, k), k < i, and sits one
    level after the deepest of them (level 0 without such entries).  Levels
    are peeled off one at a time (Kahn's order); each costs work in
    proportion to the dependency edges leaving it, not to n.
    """
    order = np.argsort(cols, kind="stable")
    readers = rows[order]
    start = np.searchsorted(cols[order], np.arange(n + 1))
    pending = np.bincount(rows, minlength=n)
    level = np.empty(n, dtype=np.intp)
    front = np.flatnonzero(pending == 0)
    depth = 0
    while front.size:
        level[front] = depth
        reached, counts = np.unique(
            readers[_segments(start[front], start[front + 1])], return_counts=True
        )
        pending[reached] -= counts
        front = reached[pending[reached] == 0]
        depth += 1
    return level


@dataclass(frozen=True)
class _Ilu0Schedule:
    """The IKJ elimination of one CSR pattern, grouped into parallel steps.

    A step is one (level, rank) pair: the rank-th L entry (i, k) of every row
    i of the level, with its pivot position ``diag[k]`` and the updates
    a_ij -= l_ik * u_kj it makes (target, L owner, U source).  Within a step
    every target is distinct, and each entry receives its updates in the
    order of k, as in the row-by-row loop.
    """

    diag: np.ndarray
    steps: list  # (l, dk, target, owner, source) position arrays per step


_UPDATE_BLOCK = 1 << 14  # L entries whose candidate updates are matched at once


def _ilu0_schedule(A: sp.csr_matrix) -> _Ilu0Schedule:
    """Plan the ILU(0) sweep of A (sorted indices, no duplicates) from its pattern."""
    n = A.shape[0]
    indptr, indices = A.indptr, A.indices
    # row-major keys i*n + j of the stored entries, ascending; a search past
    # the end reads the appended -1, never a key
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
    keys = np.append(keys, -1)
    diag = np.searchsorted(keys[:-1], np.arange(n, dtype=np.int64) * (n + 1))
    missing = np.flatnonzero(keys[diag] != np.arange(n) * (n + 1))
    if missing.size:
        raise ValueError(f"matrix lacks a stored diagonal entry in row {missing[0]}")
    first = indptr[:-1]
    pos = _segments(first, diag)  # strictly lower entries, row by row
    rows = np.repeat(np.arange(n), diag - first)
    rank = pos - first[rows]
    key = _row_levels(n, rows, indices[pos])[rows] * (int(rank.max(initial=0)) + 1) + rank
    order = np.argsort(key, kind="stable")
    pos, rows, key = pos[order], rows[order], key[order]
    cuts = np.flatnonzero(np.diff(key)) + 1
    # every update (i, j) -= (i, k) * (k, j) with (k, j) in the U part of row k
    # and (i, j) stored, found by its key; the candidates of a block of L
    # entries at a time, which bounds the transient arrays
    cols = indices[pos]
    found = []
    for a in range(0, max(pos.size, 1), _UPDATE_BLOCK):  # one block at least, if empty
        c = cols[a : a + _UPDATE_BLOCK]
        entry = np.repeat(np.arange(a, a + c.size), indptr[c + 1] - diag[c] - 1)
        source = _segments(diag[c] + 1, indptr[c + 1])
        wanted = rows[entry] * n + indices[source]
        target = np.searchsorted(keys[:-1], wanted)
        hit = keys[target] == wanted
        found.append((entry[hit], target[hit], source[hit]))
    entry, target, source = (np.concatenate(f) for f in zip(*found))
    owner, pivot = pos[entry], diag[cols]
    bounds = np.concatenate([[0], cuts, [pos.size]]).tolist()
    tbounds = np.searchsorted(entry, bounds).tolist()
    steps = [
        (pos[a:b], pivot[a:b], target[c:d], owner[c:d], source[c:d])
        for a, b, c, d in zip(bounds[:-1], bounds[1:], tbounds[:-1], tbounds[1:])
    ]
    return _Ilu0Schedule(diag, steps)


def _ilu0_numeric(schedule: _Ilu0Schedule, vals: np.ndarray) -> float:
    """Run the scheduled elimination on ``vals`` in place; returns min |pivot|.

    An exactly zero pivot gives 0.0; the later rows then divide by it, which
    is harmless since the caller discards such a factor.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for l, dk, t, own, src in schedule.steps:
            vals[l] /= vals[dk]
            vals[t] -= vals[own] * vals[src]
        piv = np.abs(vals[schedule.diag])
    return 0.0 if not piv.all() else float(piv.min(initial=np.inf))


def _row_ranges(A: sp.csr_matrix, vals: np.ndarray, starts, stops) -> sp.csr_matrix:
    """CSR matrix of A's shape with the entries ``[starts[i], stops[i])`` of row i."""
    pos = _segments(starts, stops)
    indptr = np.concatenate([[0], np.cumsum(stops - starts)])
    return sp.csr_matrix((vals[pos], A.indices[pos], indptr), shape=A.shape)


ILU_SHIFT_TRIES = 6  # factorizations tried: unshifted, then shifts growing 100x


def ilu0_factor(A) -> ILU0Preconditioner:
    """ILU(0): L and U inherit the stored sparsity pattern of A, row by row.

    The set-up is level-scheduled (``_ilu0_schedule``), and its factors are
    bitwise equal to those of the row-by-row IKJ sweep.  A non-finite entry
    is rejected up front.  On a (near-)zero pivot the factorization restarts
    from A plus a small diagonal shift, escalating until the pivots are safe;
    the schedule is planned once, since a shift leaves the pattern as it is.
    The shift actually used is recorded on the returned preconditioner.
    """
    A = sp.csr_matrix(A, dtype=float).copy()
    A.sum_duplicates()
    bad = np.flatnonzero(~np.isfinite(A.data))
    if bad.size:
        p = int(bad[0])
        row = int(np.searchsorted(A.indptr, p, side="right")) - 1
        raise ValueError(f"matrix has a non-finite entry at ({row}, {A.indices[p]})")
    schedule = _ilu0_schedule(A)
    scale = float(np.abs(A.data).max()) if A.nnz else 1.0
    piv_tol = 1e-12 * scale
    shift = 0.0
    for _ in range(ILU_SHIFT_TRIES):
        vals = A.data.copy()
        vals[schedule.diag] += shift
        min_piv = _ilu0_numeric(schedule, vals)
        if np.isfinite(min_piv) and min_piv > piv_tol:
            first, last, diag = A.indptr[:-1], A.indptr[1:], schedule.diag
            lower = _row_ranges(A, vals, first, diag + 1)
            lower.data[lower.indptr[1:] - 1] = 1.0  # unit diagonal
            upper = _row_ranges(A, vals, diag, last)
            return ILU0Preconditioner(
                _triangle_factor(lower), _triangle_factor(upper), shift
            )
        shift = 1e-8 * scale if shift == 0.0 else shift * 100.0
    raise RuntimeError("ILU(0) pivot breakdown persists after diagonal shifts")


# ---------------------------------------------------------------------------
# Exact block-diagonal preconditioner


DENSE_BLOCK_MAX = 64  # distinct cell blocks up to this many dofs are factored densely
# right-hand-side entries per SuperLU solve of a cell group: up to this size
# SuperLU's BLAS calls stayed on the calling thread (16 x 625, 4 x 2401 and
# 4 x 9409 did; 16 x 2401 and 8 x 9409 woke OpenBLAS's pool)
CELL_RHS_ENTRIES = 10_000
BAND_MAX = 100  # extracellular half-bandwidths (RCM order) up to this are factored banded


@dataclass(frozen=True)
class _BandedCholesky:
    """Cholesky factor ``U^T U`` of an SPD matrix A in a symmetric order.

    ``U^T U = A[order][:, order]``.  ``band`` holds U in LAPACK's upper band
    storage, ``band[kd + i - j, j] = U[i, j]``, in Fortran order, so that
    ``dpbtrs`` reads it in place.  It is the lower-storage factor ``L = U^T``,
    copied (see ``_extracellular_factor``).  ``dpbtrs`` stays on the calling
    thread at any kd; the factorization does so up to kd 64.  ``L``, ``U``,
    ``perm_r`` and ``perm_c`` are computed when read and follow SuperLU's
    convention ``Pr A Pc = L U`` with ``L = U^T``; every position of the band
    is a stored entry.
    """

    order: np.ndarray
    band: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple:
        n = self.band.shape[1]
        return (n, n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = lapack.dpbtrs(self.band, b[self.order], overwrite_b=1)
        if info:
            raise ValueError(f"dpbtrs rejected argument {-info}")
        z = np.empty_like(x)
        z[self.order] = x
        return z

    @property
    def perm_r(self) -> np.ndarray:  # row k of A is row perm_r[k] of L U
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(len(self.order), dtype=self.order.dtype)
        return rank

    @property
    def perm_c(self) -> np.ndarray:
        return self.perm_r

    @property
    def U(self) -> sp.csc_matrix:
        kd, n = self.band.shape[0] - 1, self.band.shape[1]
        lag = np.arange(kd, -1, -1)[:, None]  # j - i along each band row
        inside = (lag <= np.arange(n)).T  # per column, the band rows within the matrix
        rows = (np.arange(n) - lag).T[inside]
        indptr = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
        return sp.csc_matrix((self.band.T[inside], rows, indptr), shape=(n, n))

    @property
    def L(self) -> sp.csc_matrix:
        return self.U.T.tocsc()


def _lower_to_upper_band(low: np.ndarray) -> np.ndarray:
    """The band of ``U = L^T`` in upper storage, from L's lower band storage.

    ``low[d, c] = L[c + d, c]`` is ``U[c, c + d]``, stored at
    ``up[kd - d, c + d]``: one copy per diagonal into a fresh Fortran-ordered
    array, which ``dpbtrs`` reads in place.  The unused corner stays zero.
    """
    kd, n = low.shape[0] - 1, low.shape[1]
    up = np.zeros((kd + 1, n), order="F")
    for d in range(kd + 1):
        up[kd - d, d:] = low[d, : n - d]
    return up


def _extracellular_factor(A: sp.csr_matrix):
    """Factor of the SPD extracellular block A, chosen by its bandwidth.

    A is ordered by reverse Cuthill-McKee.  If its half-bandwidth kd there
    is at most ``BAND_MAX``, LAPACK's banded Cholesky (``dpbtrf``) factors
    it; otherwise SuperLU factors A with diagonal pivots in the minimum-degree
    order of A + A^T, which holds about 60% of COLAMD's fill on these
    blocks.  The band is factored in lower storage and copied into the upper
    storage that ``dpbtrs`` reads.  Lower storage keeps OpenBLAS's ``dpbtrf``
    on the calling thread up to kd 64, where upper storage woke its pool and
    gave the same bits; from kd 65 either storage wakes the pool.  A block
    that is not positive definite raises ``np.linalg.LinAlgError``.
    """
    # intp, so that numpy does not cast the order on every gather and scatter
    order = reverse_cuthill_mckee(A, symmetric_mode=True).astype(np.intp)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order), dtype=order.dtype)
    coo = A.tocoo()
    i, j = rank[coo.row], rank[coo.col]
    upper = i <= j
    i, j = i[upper], j[upper]
    kd = int((j - i).max(initial=0))
    if kd > BAND_MAX:
        return splu(
            A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    band = np.zeros((kd + 1, A.shape[0]), order="F")
    band[j - i, i] = coo.data[upper]  # A[j, i] = A[i, j]
    band, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    if info:
        raise np.linalg.LinAlgError(
            f"extracellular block is not positive definite (dpbtrf info {info})"
        )
    return _BandedCholesky(order, _lower_to_upper_band(band))


@dataclass(frozen=True)
class _CellGroup:
    """Cells whose blocks are bitwise equal, and the one factor they share.

    ``factor`` is either the dense ``W = L^{-1}`` of the block ``L L^T`` or a
    SuperLU factor of the block.  The dense factor is applied to every member
    at once; the SuperLU factor solves ``CELL_RHS_ENTRIES // size`` members
    (at least one) per call, one member per column.
    """

    dofs: slice | np.ndarray  # the members' dofs, cell after cell
    size: int  # dofs per cell
    factor: object = field(repr=False)

    def apply(self, r: np.ndarray, z: np.ndarray) -> None:
        """Write the block solves of the members' part of ``r`` into ``z``."""
        R = r[self.dofs].reshape(-1, self.size)  # one cell per row
        if isinstance(self.factor, np.ndarray):
            W = self.factor
            z[self.dofs] = ((R @ W.T) @ W).ravel()
            return
        # one SuperLU solve per chunk of cells, the chunk's cells as its columns
        k = max(1, CELL_RHS_ENTRIES // self.size)
        Z = np.empty_like(R)
        for a in range(0, R.shape[0], k):
            Z[a : a + k] = self.factor.solve(R[a : a + k].T).T
        z[self.dofs] = Z.ravel()


@dataclass
class BlockDiagPreconditioner:
    """Exact solve of tau_i * (A_i + eps * Mtilde_i) per subdomain block.

    ``_lu`` is the factor of the extracellular block, banded Cholesky or
    SuperLU (see ``_extracellular_factor``); both have ``shape``, ``solve``,
    ``L``, ``U``, ``perm_r`` and ``perm_c``.  Each of ``_cells`` covers the
    cells that share one block bit for bit.
    """

    matrix: sp.csr_matrix
    _lu: object = field(repr=False)
    _cells: list = field(repr=False)  # _CellGroup entries

    def __call__(self, r: np.ndarray) -> np.ndarray:
        n0 = self._lu.shape[0]
        z = np.empty(len(r))
        z[:n0] = self._lu.solve(r[:n0])
        for group in self._cells:
            group.apply(r, z)
        return z


def blockdiag_matrix(operators, eps: float) -> sp.csr_matrix:
    """The block-diagonal matrix tau_i * (A_i + eps * Mtilde_i), in CSR.

    The bulk mass is the full-rank regularization of each Neumann stiffness
    block, so the matrix is SPD for any positive eps.  ``A + eps * Mtilde``
    is formed unscaled and every stored entry is then multiplied once by the
    tau_i of its row.
    """
    eps = float(eps)
    if not (eps > 0) or not np.isfinite(eps):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    P = (operators.stiffness + eps * operators.bulk_mass).tocsr()
    row_tau = operators.config.tau_per_dof(operators.dofmap.block_sizes)
    P.data *= np.repeat(row_tau, np.diff(P.indptr))
    return P


def _cell_groups(P: sp.csr_matrix, block_start: np.ndarray) -> list:
    """The cell blocks 1.. of P, grouped by bitwise identity and factored.

    Cells of one size and one entry count are compared as rows of their local
    CSR arrays (row pointers, column offsets, the bits of the values), so
    equal blocks are found by one ``np.unique`` per (size, count) class.  The
    distinct blocks of at most ``DENSE_BLOCK_MAX`` dofs of a class get one
    batched Cholesky and one batched inverse; a larger one gets a SuperLU
    factor.
    """
    starts, stops = block_start[1:-1], block_start[2:]
    sizes = stops - starts
    counts = P.indptr[stops] - P.indptr[starts]
    groups = []
    for m, nnz in np.unique(np.stack([sizes, counts], axis=1), axis=0).tolist():
        cells = np.flatnonzero((sizes == m) & (counts == nnz))
        first = starts[cells, None]
        indptr = P.indptr[first + np.arange(m + 1)] - P.indptr[first]
        at = P.indptr[first] + np.arange(nnz)
        cols = P.indices[at] - first
        # one opaque byte string per cell, compared whole by the sort
        keys = np.concatenate([indptr, cols, P.data[at].view(np.int64)], axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel()
        _, rep, which = np.unique(keys, return_index=True, return_inverse=True)
        # the members of each distinct block, in cell order
        order = np.argsort(which, kind="stable")
        members = np.split(cells[order], np.cumsum(np.bincount(which))[:-1])
        indptr, cols, data = indptr[rep], cols[rep], P.data[at[rep]]
        if m <= DENSE_BLOCK_MAX:
            rows = np.repeat(np.tile(np.arange(m), len(rep)), np.diff(indptr, axis=1).ravel())
            dense = np.zeros((len(rep), m, m))
            dense[np.arange(len(rep))[:, None], rows.reshape(cols.shape), cols] = data
            factors = np.tril(np.linalg.inv(np.linalg.cholesky(dense)))
        else:
            factors = [
                splu(sp.csr_matrix((d, c, p), shape=(m, m)).tocsc())
                for d, c, p in zip(data, cols, indptr)
            ]
        for mine, factor in zip(members, factors):
            if np.all(np.diff(mine) == 1):  # consecutive cells: a slice, no gather
                dofs = slice(int(starts[mine[0]]), int(stops[mine[-1]]))
            else:
                dofs = _segments(starts[mine], stops[mine])
            groups.append(_CellGroup(dofs, m, factor))
    return groups


def blockdiag_prec(operators, eps: float | None = None) -> BlockDiagPreconditioner:
    """Block-diagonal preconditioner tau_i * (A_i + eps * Mtilde_i), factored once.

    The extracellular block is ordered by reverse Cuthill-McKee; if its
    half-bandwidth there is at most ``BAND_MAX``, LAPACK's banded Cholesky
    factors it, and SuperLU (minimum-degree order) otherwise.  The bound sits
    near the measured crossover of the two solves: under 1 and 2 OpenBLAS
    threads the banded solve took 0.72-0.80 of SuperLU's time at kd 65
    (A/64/441), 0.54-0.55 at kd 67 (B/256/16), 0.81-1.04 at kd 91
    (A/128/25) and 1.14-1.20 at kd 127 (A/128/441).  The cell blocks are
    grouped by bitwise identity (in the paper's geometries every cell is a
    translate of one, so there is one group) and each distinct block is
    factored once.  A block of at most ``DENSE_BLOCK_MAX`` dofs is applied
    through its dense inverse Cholesky factor W, to all its cells at once as
    two matrix products ``(R W^T) W`` over the slab R with one cell per row.
    The factor is L_i^{-1}, not P_i^{-1}: a cell block's condition number is
    about 5e8, and an explicit P_i^{-1} raised the CG counts by 7-11%.  A larger block
    gets one SuperLU factor, which solves ``CELL_RHS_ENTRIES // size`` of its
    cells per call as the columns of one right-hand side: at B/128/16 that is
    one solve of 16 cells instead of 16 solves.  A multi-column solve rounds
    differently from a single-column one, so the cell rows agree with one
    SuperLU factor of the whole matrix to a few units in the last place, not
    bit for bit.
    """
    eps = float(operators.config.epsilon if eps is None else eps)
    P = blockdiag_matrix(operators, eps)
    block_start = operators.dofmap.block_start
    n0 = int(block_start[1])
    try:
        lu = _extracellular_factor(P[:n0, :n0])
        cells = _cell_groups(P, block_start)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(f"block preconditioner factorization failed: {exc}") from exc
    return BlockDiagPreconditioner(P, lu, cells)


# ---------------------------------------------------------------------------
# Smoothed aggregation AMG, applied as a single V(1,1) cycle


@dataclass
class AmgLevel:
    """A level's matrix and prolongator, and one SuperLU factor of tril(A) for both sweeps."""

    matrix: sp.csr_matrix
    prolong: sp.csr_matrix  # maps the next-coarser level into this one
    _lower_lu: object = field(init=False, repr=False)

    def __post_init__(self):
        self._lower_lu = _triangle_factor(self.lower)

    @property
    def lower(self) -> sp.csr_matrix:  # tril(A)
        return sp.tril(self.matrix, format="csr")

    @property
    def upper(self) -> sp.csr_matrix:  # triu(A); the backward sweep applies tril(A)^T
        return sp.triu(self.matrix, format="csr")


@dataclass
class AmgHierarchy:
    levels: list  # fine-to-coarse AmgLevel entries
    coarse_lu: object  # SuperLU factor of the coarsest matrix
    sizes: list  # matrix sizes, finest first, coarsest last


def _strength_graph(A: sp.csr_matrix, theta: float) -> sp.csr_matrix:
    """|a_ij| at the strong off-diagonal entries, ``|a_ij| >= theta sqrt(a_ii a_jj)``
    with ``a_ii a_jj > 0``, in CSR.

    A is CSR with sorted indices and no duplicates, so the kept entries are
    already in row order and sorted within each row.
    """
    n = A.shape[0]
    d = A.diagonal()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    cols, v = A.indices, A.data
    dd = d[rows] * d[cols]
    strong = (rows != cols) & (dd > 0) & (np.abs(v) >= theta * np.sqrt(np.maximum(dd, 0)))
    keep = np.flatnonzero(strong)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=n))])
    return sp.csr_matrix((np.abs(v[keep]), cols[keep], indptr), shape=A.shape)


def _aggregate(S: sp.csr_matrix, A: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Greedy aggregation over the strength graph ``S`` of ``A``, deterministic
    in row order.

    A row whose strong neighbours are all unassigned seeds an aggregate with
    them; a leftover row joins the aggregate of its strongest assigned
    neighbour (the first one on ties).  A row with no strong neighbour seeds
    nothing: it joins the aggregate of its assigned neighbour with the largest
    |a_ij| in ``A``.  A row with no nonzero off-diagonal entry in ``A``, such
    as the pinned row, stays a singleton, and so does a row none of whose
    neighbours is assigned.
    """
    n = S.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    indptr, indices, vals, ag = (
        memoryview(S.indptr), memoryview(S.indices), memoryview(S.data), memoryview(agg)
    )
    a_ptr, a_idx, a_abs = (
        memoryview(A.indptr), memoryview(A.indices), memoryview(np.abs(A.data))
    )
    next_id = 0
    for i in range(n):
        if ag[i] != -1:
            continue
        nbrs = range(indptr[i], indptr[i + 1])
        if not nbrs and any(
            a_idx[t] != i and a_abs[t] > 0 for t in range(a_ptr[i], a_ptr[i + 1])
        ):
            continue  # attached in the second pass
        if all(ag[indices[t]] == -1 for t in nbrs):
            ag[i] = next_id
            for t in nbrs:
                ag[indices[t]] = next_id
            next_id += 1
    for i in range(n):
        if ag[i] != -1:
            continue
        # without a strong neighbour the row of A is searched; its diagonal
        # entry is the row's own, still unassigned, column
        if indptr[i] < indptr[i + 1]:
            ptr, idx, val = indptr, indices, vals
        else:
            ptr, idx, val = a_ptr, a_idx, a_abs
        best, best_val = -1, 0.0
        for t in range(ptr[i], ptr[i + 1]):
            if ag[idx[t]] != -1 and val[t] > best_val:
                best, best_val = t, val[t]
        if best != -1:
            ag[i] = ag[idx[best]]
        else:
            ag[i] = next_id
            next_id += 1
    return agg, next_id


AMG_THETA = 0.08  # strength-of-connection threshold
AMG_OMEGA = 2.0 / 3.0  # damping of the prolongator's Jacobi smoothing step
AMG_MAX_LEVELS = 25  # depth cap of the hierarchy
AMG_COARSE_N = 200  # coarsening stops at this many rows; SuperLU solves the last level


def amg_build(A, cover=None) -> AmgHierarchy:
    """Build a smoothed-aggregation hierarchy down to a small coarse grid.

    Tentative prolongators are piecewise constant over greedy strength-based
    aggregates, smoothed by one damped-Jacobi step; coarse operators are the
    Galerkin triple products.  Coarsening that shrinks a level by less than
    10 percent aborts with diagnostics.  The coarsest level, of at most
    ``AMG_COARSE_N`` rows, gets a SuperLU factor; a singular one raises
    ``AmgError``.  A dense LU there would be bitwise different under one
    and two BLAS threads.

    ``cover``, a boolean mask of the rows of ``A``, restricts the first
    level's aggregates to the rows it marks: its strength graph and
    aggregation see ``A[cover][:, cover]`` only, and every other row gets a
    zero row in the tentative prolongator (the Jacobi step still reaches
    it).  The deeper levels aggregate every row.  ``None`` covers all rows.
    """
    A = sp.csr_matrix(A)
    A.sort_indices()
    if cover is not None:
        cover = np.asarray(cover)
        if cover.dtype != bool or cover.shape != (A.shape[0],) or not cover.any():
            raise ValueError("cover must be a boolean mask of the rows with a True entry")
    levels: list[AmgLevel] = []
    sizes = [A.shape[0]]
    while True:
        d = A.diagonal()
        if not np.all(np.isfinite(d) & (d > 0)):
            raise AmgError(
                f"level of size {A.shape[0]} has a nonpositive or non-finite diagonal entry"
            )
        if A.shape[0] <= AMG_COARSE_N or len(levels) >= AMG_MAX_LEVELS:
            break
        n = A.shape[0]
        if cover is None:
            rows, covered = np.arange(n), A
        else:
            rows = np.flatnonzero(cover)
            covered = A[rows][:, rows]
            cover = None
        agg, n_agg = _aggregate(_strength_graph(covered, AMG_THETA), covered)
        if n_agg >= 0.9 * n:
            raise AmgError(
                "aggregation stagnated: "
                f"{n} -> {n_agg} aggregates (sizes so far {sizes})"
            )
        P_t = sp.coo_matrix(
            (np.ones(rows.size), (rows, agg)), shape=(n, n_agg)
        ).tocsr()
        D_inv = sp.diags(1.0 / d)
        P = (P_t - AMG_OMEGA * (D_inv @ (A @ P_t))).tocsr()
        A_c = (P.T @ A @ P).tocsr()
        A_c.sort_indices()
        levels.append(AmgLevel(matrix=A, prolong=P))
        A = A_c
        sizes.append(A.shape[0])
    try:
        coarse_lu = splu(A.tocsc())
    except RuntimeError as exc:
        raise AmgError(f"coarse grid of size {A.shape[0]} failed to factor: {exc}") from exc
    return AmgHierarchy(levels=levels, coarse_lu=coarse_lu, sizes=sizes)


def _vcycle(h: AmgHierarchy, k: int, r: np.ndarray) -> np.ndarray:
    if k == len(h.levels):
        return h.coarse_lu.solve(r)
    lvl = h.levels[k]
    # pre-smooth from zero initial guess: one forward Gauss-Seidel sweep
    x = lvl._lower_lu.solve(r)
    resid = r - lvl.matrix @ x
    x = x + lvl.prolong @ _vcycle(h, k + 1, lvl.prolong.T @ resid)
    # post-smooth: one backward sweep with tril(A)^T, the adjoint of the pre-smoother
    return x + lvl._lower_lu.solve(r - lvl.matrix @ x, trans="T")


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
