"""Global block system, nullspace pinning, low-rank factorizations, scaling.

The assembled matrix couples the per-subdomain diagonal blocks
``D_i = tau_i * A_i + M_i`` through the interface blocks ``B_{i,j}``.  For
the nervous-tissue layout (model A) every off-diagonal block outside the
first block row/column vanishes, giving a block arrowhead matrix that splits
as ``D + U V`` with U, V of width 2*n0; adding a rank-N unit correction to
the cell blocks gives an invertible base matrix and a width 2*n0+N split
whose Woodbury inverse is exact.  Both splits are validation paths: the
dense capacitance systems make them practical only at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import OperatorSet, ProblemConfig
from .meshgen import DofMap

__all__ = [
    "ArrowheadError",
    "SmwError",
    "BlockSystem",
    "ArrowheadFactors",
    "ScaledSystem",
    "build_system",
    "block_diagonal",
    "pin_nullspace",
    "build_arrowhead_factors",
    "solve_smw_eps",
    "solve_smw_exact",
    "build_scaled",
    "solve_direct",
    "interface_basis",
]


class ArrowheadError(ValueError):
    """Raised when the arrowhead split is requested for a non-arrowhead system."""


class SmwError(RuntimeError):
    """Raised on singular or ill-conditioned capacitance/base factorizations."""


@dataclass
class BlockSystem:
    """The solvable object: global matrix, right-hand side, block layout."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    block_ranges: list  # (start, length) per subdomain
    config: ProblemConfig
    model: str
    dofmap: DofMap
    pinned_dof: int | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def block(self, i: int, j: int) -> sp.csr_matrix:
        si, li = self.block_ranges[i]
        sj, lj = self.block_ranges[j]
        return self.matrix[si : si + li, sj : sj + lj]


@dataclass
class ArrowheadFactors:
    """Split of an arrowhead system into block diagonal plus low rank.

    ``base + outer @ inner == matrix`` exactly, and with the rank-N unit
    correction ``base_full = base + unit_correction`` the augmented pair
    satisfies ``base_full + outer_aug @ inner_aug == matrix``.
    """

    matrix: sp.csr_matrix
    base: sp.csr_matrix  # block diagonal part
    outer: sp.csr_matrix  # n x 2*n0
    inner: sp.csr_matrix  # 2*n0 x n
    unit_correction: sp.csr_matrix  # one unit entry per cell block
    base_full: sp.csr_matrix
    outer_aug: sp.csr_matrix  # n x (2*n0 + N)
    inner_aug: sp.csr_matrix  # (2*n0 + N) x n
    n0: int
    n_cells: int


@dataclass
class ScaledSystem:
    """Diagonal congruence of the global matrix by per-block scale factors."""

    matrix: sp.csr_matrix
    scale_factors: np.ndarray  # per-block multipliers


def build_system(operators: OperatorSet) -> BlockSystem:
    """Assemble the global symmetric matrix and right-hand side from blocks."""
    config = operators.config
    dofmap = operators.dofmap
    sizes = dofmap.block_sizes
    n_sub = dofmap.n_subdomains
    starts = dofmap.block_start
    n = dofmap.n

    rows, cols, vals = [], [], []
    for i in range(n_sub):
        a_i = operators.stiffness[i]
        m_i = operators.membrane_mass[i]
        if a_i.shape != (sizes[i], sizes[i]) or m_i.shape != (sizes[i], sizes[i]):
            raise ValueError(f"block {i} dimensions do not match the dof map")
        d_i = (config.tau_i(i) * a_i + m_i).tocoo()
        rows.append(d_i.row + starts[i])
        cols.append(d_i.col + starts[i])
        vals.append(d_i.data)
    for (i, j), b_ij in operators.coupling.items():
        if b_ij.shape != (sizes[i], sizes[j]):
            raise ValueError(f"coupling block {(i, j)} has wrong shape")
        b = b_ij.tocoo()
        rows.append(b.row + starts[i])
        cols.append(b.col + starts[j])
        vals.append(b.data)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()

    rhs = np.concatenate(operators.rhs) if operators.rhs else np.zeros(n)
    ranges = [(int(starts[i]), int(sizes[i])) for i in range(n_sub)]
    return BlockSystem(
        matrix=matrix,
        rhs=rhs,
        block_ranges=ranges,
        config=config,
        model=operators.model,
        dofmap=dofmap,
    )


def block_diagonal(system: BlockSystem) -> sp.csr_matrix:
    """The diagonal blocks of the global matrix, placed on its diagonal."""
    n_sub = len(system.block_ranges)
    return sp.block_diag([system.block(i, i) for i in range(n_sub)], format="csr")


def pin_nullspace(system: BlockSystem, probe: bool = False) -> BlockSystem:
    """Fix the additive constant by a point condition in the extracellular block.

    The dof of subdomain 0 nearest the origin has its row and column replaced
    by the identity (symmetric elimination) and its rhs entry zeroed.  With
    ``probe=True`` a direct factorization checks that the pinned matrix is
    nonsingular.
    """
    dofmap = system.dofmap
    s0, l0 = system.block_ranges[0]
    # vertex ids increase with y then x, so the smallest id is nearest (0,0)
    pinned = s0 + int(np.argmin(dofmap.vertex[s0 : s0 + l0]))

    coo = system.matrix.tocoo()
    keep = (coo.row != pinned) & (coo.col != pinned)
    matrix = sp.coo_matrix(
        (
            np.concatenate([coo.data[keep], [1.0]]),
            (
                np.concatenate([coo.row[keep], [pinned]]),
                np.concatenate([coo.col[keep], [pinned]]),
            ),
        ),
        shape=system.matrix.shape,
    ).tocsr()
    matrix.sort_indices()
    rhs = system.rhs.copy()
    rhs[pinned] = 0.0
    out = BlockSystem(
        matrix=matrix,
        rhs=rhs,
        block_ranges=system.block_ranges,
        config=system.config,
        model=system.model,
        dofmap=dofmap,
        pinned_dof=pinned,
    )
    if probe:
        x = solve_direct(out)
        res = np.linalg.norm(out.matrix @ x - out.rhs)
        scale = np.linalg.norm(out.rhs)
        if scale > 0 and res > 1e-8 * scale:
            raise SmwError(f"pinned system solve probe failed: residual {res:.2e}")
    return out


def solve_direct(system: BlockSystem, rhs: np.ndarray | None = None) -> np.ndarray:
    """Sparse LU solve of the (pinned) global system."""
    b = system.rhs if rhs is None else rhs
    return spla.splu(system.matrix.tocsc()).solve(b)


def build_arrowhead_factors(system: BlockSystem) -> ArrowheadFactors:
    """Exact block-diagonal plus low-rank split of a model-A system.

    Refuses model B: with gap junctions the off-diagonal pattern is no longer
    confined to the first block row/column.
    """
    if system.model != "A":
        raise ArrowheadError("the arrowhead split exists only for model A")
    n = system.n
    n_sub = len(system.block_ranges)
    n_cells = n_sub - 1
    s0, n0 = system.block_ranges[0]
    base = block_diagonal(system)

    # outer = [[I, 0], [0, B_i^T]],  inner = [[0, B_1 .. B_N], [I, 0 .. 0]]
    o_rows, o_cols, o_vals = [np.arange(n0)], [np.arange(n0)], [np.ones(n0)]
    i_rows, i_cols, i_vals = [np.arange(n0) + n0], [np.arange(n0)], [np.ones(n0)]
    for i in range(1, n_sub):
        si, li = system.block_ranges[i]
        b_i = system.matrix[s0 : s0 + n0, si : si + li].tocoo()  # B_i, n0 x n_i
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

    first_dofs = np.array([system.block_ranges[i][0] for i in range(1, n_sub)], dtype=np.int64)
    unit = sp.coo_matrix(
        (np.ones(n_cells), (first_dofs, first_dofs)), shape=(n, n)
    ).tocsr()
    base_full = (base + unit).tocsr()

    # augmented factors: extra columns carry +e_i, extra rows -e_i, so the
    # unit correction cancels exactly in base_full + outer_aug @ inner_aug
    width = 2 * n0 + n_cells
    o2 = outer.tocoo()
    extra_cols = np.arange(n_cells) + 2 * n0
    outer_aug = sp.coo_matrix(
        (
            np.concatenate([o2.data, np.ones(n_cells)]),
            (np.concatenate([o2.row, first_dofs]), np.concatenate([o2.col, extra_cols])),
        ),
        shape=(n, width),
    ).tocsr()
    i2 = inner.tocoo()
    inner_aug = sp.coo_matrix(
        (
            np.concatenate([i2.data, -np.ones(n_cells)]),
            (np.concatenate([i2.row, extra_cols]), np.concatenate([i2.col, first_dofs])),
        ),
        shape=(width, n),
    ).tocsr()

    return ArrowheadFactors(
        matrix=system.matrix,
        base=base,
        outer=outer,
        inner=inner,
        unit_correction=unit,
        base_full=base_full,
        outer_aug=outer_aug,
        inner_aug=inner_aug,
        n0=n0,
        n_cells=n_cells,
    )


def _woodbury_solve(
    base: sp.csr_matrix,
    outer: sp.csr_matrix,
    inner: sp.csr_matrix,
    rhs: np.ndarray,
    label: str,
) -> np.ndarray:
    """x = (base + outer @ inner)^{-1} rhs via the Woodbury identity."""
    try:
        lu = spla.splu(base.tocsc())
    except RuntimeError as exc:
        raise SmwError(f"{label}: base factorization failed: {exc}") from exc
    width = outer.shape[1]
    w = lu.solve(outer.toarray())  # base^{-1} U, dense n x width
    cap = np.eye(width) + inner @ w  # capacitance system
    try:
        cap_lu = la.lu_factor(cap)
    except la.LinAlgError as exc:
        raise SmwError(f"{label}: singular capacitance matrix: {exc}") from exc
    diag = np.abs(np.diag(cap_lu[0]))
    if diag.min() <= 1e-14 * max(diag.max(), 1.0):
        cond = np.linalg.cond(cap)
        raise SmwError(
            f"{label}: capacitance matrix numerically singular (cond ~ {cond:.2e})"
        )
    xb = lu.solve(rhs)
    return xb - w @ la.lu_solve(cap_lu, inner @ xb)


def solve_smw_eps(factors: ArrowheadFactors, rhs: np.ndarray, eps: float) -> np.ndarray:
    """Solve the regularized arrowhead system (base + eps*I + low rank).

    The regularization makes the block-diagonal base invertible regardless of
    the spectrum of the cell blocks; the solution converges to the exact one
    as eps goes to zero.
    """
    if not (eps > 0) or not np.isfinite(eps):
        raise SmwError(f"eps must be positive and finite, got {eps}")
    n = factors.matrix.shape[0]
    base_eps = (factors.base + eps * sp.eye(n, format="csr")).tocsr()
    return _woodbury_solve(base_eps, factors.outer, factors.inner, rhs, "smw-eps")


def solve_smw_exact(factors: ArrowheadFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve the unregularized system through the rank-(2*n0+N) split."""
    expected = 2 * factors.n0 + factors.n_cells
    if factors.outer_aug.shape[1] != expected:
        raise SmwError("augmented factor width mismatch")
    return _woodbury_solve(
        factors.base_full, factors.outer_aug, factors.inner_aug, rhs, "smw-exact"
    )


def interface_basis(dofmap: DofMap) -> sp.csr_matrix:
    """Average/difference change of basis over the dofs of each mesh vertex.

    For a vertex owning k dofs (k > 1 on membranes), the first transformed
    channel is the constant direction across all k copies and the remaining
    k-1 channels are differences against the first copy, so the congruence
    Q^T A Q separates the trace-continuous components (whose curvature comes
    from the scaled stiffness) from the jump components (mass-dominated).
    Point relaxation in this basis sees both scales, which plain relaxation
    in nodal variables misses once the membrane mass dominates the diagonal.
    """
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


def build_scaled(
    system: BlockSystem, scale_factors: np.ndarray | None = None
) -> ScaledSystem:
    """Symmetrically scale the global matrix by per-block diagonal factors.

    By default block i is scaled by 1/sqrt(tau_i), which normalizes the bulk
    part of every diagonal block to the plain P1 stiffness (whose interior
    stencil carries the two-dimensional Laplacian symbol) and leaves the
    membrane terms as a vanishing-rank perturbation.  Explicit factors, e.g.
    h_i/sqrt(tau_i), may be passed instead.
    """
    n_sub = len(system.block_ranges)
    if scale_factors is None:
        scale_factors = np.array(
            [1.0 / np.sqrt(system.config.tau_i(i)) for i in range(n_sub)]
        )
    else:
        scale_factors = np.asarray(scale_factors, dtype=float)
        if scale_factors.shape != (n_sub,):
            raise ValueError("need one scale factor per subdomain block")
    per_dof = np.repeat(scale_factors, [li for _, li in system.block_ranges])
    coo = system.matrix.tocoo()
    data = coo.data * (per_dof[coo.row] * per_dof[coo.col])
    matrix = sp.coo_matrix((data, (coo.row, coo.col)), shape=coo.shape).tocsr()
    matrix.sort_indices()
    return ScaledSystem(matrix=matrix, scale_factors=scale_factors)
