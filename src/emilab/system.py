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

from dataclasses import dataclass, replace

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
    config: ProblemConfig
    model: str
    dofmap: DofMap
    pinned_dof: int | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


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


def build_system(operators: OperatorSet) -> BlockSystem:
    """The global symmetric matrix ``tau_i*A + M + B`` and right-hand side.

    The stiffness rows of block i are scaled by its ``tau_i``.
    """
    dofmap = operators.dofmap
    n = dofmap.n
    parts = (operators.stiffness, operators.membrane_mass, operators.coupling)
    if any(part.shape != (n, n) for part in parts) or operators.rhs.shape != (n,):
        raise ValueError(f"operator dimensions do not match the dof map (n={n})")
    scaled = operators.stiffness.tocsr(copy=True)
    scaled.data *= np.repeat(
        operators.config.tau_per_dof(dofmap.block_sizes), np.diff(scaled.indptr)
    )
    matrix = (scaled + operators.membrane_mass + operators.coupling).tocsr()
    return BlockSystem(
        matrix=matrix,
        rhs=operators.rhs,
        config=operators.config,
        model=operators.model,
        dofmap=dofmap,
    )


def block_diagonal(system: BlockSystem) -> sp.csr_matrix:
    """The diagonal blocks of the global matrix, placed on its diagonal.

    Keeps the stored entries whose row and column dofs share a subdomain.
    """
    a = system.matrix
    sub = system.dofmap.subdomain
    keep = np.repeat(sub, np.diff(a.indptr)) == sub[a.indices]
    indptr = np.concatenate([[0], np.cumsum(keep)])[a.indptr]
    return sp.csr_matrix((a.data[keep], a.indices[keep], indptr), shape=a.shape)


def pin_nullspace(system: BlockSystem) -> BlockSystem:
    """Fix the additive constant by a point condition in the extracellular block.

    The dof of subdomain 0 nearest the origin has its row and column replaced
    by the identity (symmetric elimination) and its rhs entry zeroed.
    """
    # block 0 starts at dof 0, and vertex ids increase with y then x, so its
    # smallest vertex id is the dof nearest (0,0)
    pinned = int(np.argmin(system.dofmap.block(system.dofmap.vertex, 0)))

    # one compacting copy drops the pinned row and column (any other stored
    # zero stays); the row's one entry, the unit diagonal, goes in after
    # every kept entry of the rows above it
    a = system.matrix
    start, stop = a.indptr[pinned], a.indptr[pinned + 1]
    keep = a.indices != pinned
    keep[start:stop] = False
    kept = np.concatenate([[0], np.cumsum(keep)])
    at = kept[start]
    indptr = kept[a.indptr]
    indptr[pinned + 1 :] += 1
    matrix = sp.csr_matrix(
        (np.insert(a.data[keep], at, 1.0), np.insert(a.indices[keep], at, pinned), indptr),
        shape=a.shape,
    )
    matrix.sort_indices()
    rhs = system.rhs.copy()
    rhs[pinned] = 0.0
    return replace(system, matrix=matrix, rhs=rhs, pinned_dof=pinned)


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
    dofmap = system.dofmap
    n, n0, n_cells = system.n, dofmap.n0, dofmap.n_subdomains - 1
    base = block_diagonal(system)

    # outer = [[I, 0], [0, C^T]],  inner = [[0, C], [I, 0]],  C = [B_1 .. B_N]
    eye0 = sp.identity(n0, format="csr")
    c = system.matrix[:n0, n0:]
    outer = sp.bmat([[eye0, None], [None, c.T]], format="csr")
    inner = sp.bmat([[None, c], [eye0, None]], format="csr")

    first_dofs = dofmap.block_start[1:-1]
    unit = sp.coo_matrix(
        (np.ones(n_cells), (first_dofs, first_dofs)), shape=(n, n)
    ).tocsr()
    base_full = (base + unit).tocsr()

    # augmented factors: extra columns carry +e_i, extra rows -e_i, so the
    # unit correction cancels exactly in base_full + outer_aug @ inner_aug
    picks = sp.coo_matrix(
        (np.ones(n_cells), (first_dofs, np.arange(n_cells))), shape=(n, n_cells)
    )
    outer_aug = sp.hstack([outer, picks], format="csr")
    inner_aug = sp.vstack([inner, -picks.T], format="csr")

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
    first = np.concatenate([[True], verts_sorted[1:] != verts_sorted[:-1]])
    # each vertex group owns the columns start..start+k-1 of its sorted
    # positions: the average at start, the differences after it
    pos = np.arange(n)
    start = pos[first][np.cumsum(first) - 1]
    diff = ~first
    rows = np.concatenate([order, order[start[diff]], order[diff]])
    cols = np.concatenate([start, pos[diff], pos[diff]])
    vals = np.concatenate([np.ones(n), np.ones(diff.sum()), -np.ones(diff.sum())])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def build_scaled(system: BlockSystem) -> sp.csr_matrix:
    """The global matrix symmetrically scaled by 1/sqrt(tau_i) on block i.

    This normalizes the bulk part of every diagonal block to the plain P1
    stiffness (whose interior stencil carries the two-dimensional Laplacian
    symbol) and leaves the membrane terms as a vanishing-rank perturbation.
    """
    d = 1.0 / np.sqrt(system.config.tau_per_dof(system.dofmap.block_sizes))
    matrix = system.matrix.tocsr(copy=True)
    rows = np.repeat(np.arange(system.n), np.diff(matrix.indptr))
    matrix.data *= d[rows] * d[matrix.indices]
    return matrix
