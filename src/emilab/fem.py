"""P1 finite element operators for the coupled multi-domain system.

Every operator is assembled once over the whole mesh, as one n x n matrix
(or n-vector) over the global dofs of the :class:`DofMap`: the bulk
stiffness with the blocks ``A_i`` on its diagonal, the membrane mass with
the blocks ``M_i`` (1D mass along each subdomain's interface polyline), the
bulk mass with the blocks ``Mtilde_i`` used by the block-diagonal
preconditioner, the interface coupling with the blocks ``B_{i,j}`` (negated
mass pairing the two traces) off the diagonal, and the membrane source
vector with the pieces ``f_i``.  Block i spans the dofs
``block_start[i]:block_start[i+1]``; ``DofMap.block`` slices one out.

All quadrature is exact for the P1 integrands; the oscillating source is
integrated with 2-point Gauss per membrane edge (degree-3 exactness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .meshgen import DofMap, StructuredMesh, SubdomainLabeling

__all__ = [
    "AssemblyError",
    "ProblemConfig",
    "OperatorSet",
    "assemble_stiffness",
    "assemble_membrane_mass",
    "assemble_bulk_mass",
    "assemble_coupling",
    "assemble_rhs",
    "assemble_operators",
    "default_stimulus",
]

# 2-point Gauss on the unit interval
_GAUSS_T = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


class AssemblyError(ValueError):
    """Raised when a subdomain contains no triangles."""


@dataclass(frozen=True)
class ProblemConfig:
    """Physical and regularization parameters.

    ``tau`` is the lumped membrane time constant (capacitance inverse times
    time step); ``sigma`` the per-subdomain conductivities (scalar = uniform);
    ``epsilon`` the bulk-mass regularization weight of the block-diagonal
    preconditioner.  The effective diffusion weight of block i is
    ``tau_i = tau * sigma_i``.
    """

    tau: float = 0.01
    sigma: float | np.ndarray = 1.0
    epsilon: float = 1e-4

    def __post_init__(self):
        if not (self.tau > 0) or not np.isfinite(self.tau):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        sigma = np.asarray(self.sigma, dtype=float)
        if not np.all(sigma > 0) or not np.all(np.isfinite(sigma)):
            raise ValueError("all conductivities must be positive and finite")
        if not (self.epsilon > 0) or not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    def tau_per_dof(self, block_sizes: np.ndarray) -> np.ndarray:
        """``tau_i`` repeated over the dofs of every block i.

        Raises ``ValueError`` unless sigma is a scalar or has one value per
        subdomain.
        """
        sigma = np.asarray(self.sigma, dtype=float)
        n_sub = len(block_sizes)
        if sigma.ndim != 0 and sigma.shape != (n_sub,):
            raise ValueError(
                f"sigma must be a scalar or have shape ({n_sub},) for {n_sub} "
                f"subdomains, got shape {sigma.shape}"
            )
        return np.repeat(self.tau * np.broadcast_to(sigma, (n_sub,)), block_sizes)


def default_stimulus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Oscillating initial membrane stimulus, half a sine of the squared radius."""
    return 0.5 * np.sin(10.0 * (x * x + y * y))


@dataclass
class OperatorSet:
    """All assembled operators for one (mesh, labeling, config) triple.

    Each matrix is n x n over the global dofs and each vector has length n;
    block (i, j) is the slice ``dofmap.block(matrix, i, j)``.
    """

    stiffness: sp.csr_matrix  # A_i on the diagonal blocks, unscaled
    membrane_mass: sp.csr_matrix  # M_i on the diagonal blocks
    bulk_mass: sp.csr_matrix  # Mtilde_i on the diagonal blocks
    coupling: sp.csr_matrix  # B_{i,j} off the diagonal blocks, both orders
    rhs: np.ndarray  # f_i stacked block by block
    dofmap: DofMap
    config: ProblemConfig
    model: str


def _element_geometry(mesh: StructuredMesh):
    p = mesh.vertices[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def _element_dofs(mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap):
    """Global dofs of every triangle's vertices in its own subdomain."""
    counts = np.bincount(labeling.cell_of, minlength=labeling.n_subdomains)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        raise AssemblyError(f"subdomain {empty[0]} contains no triangles")
    return dofmap.global_dofs(labeling.cell_of[:, None], mesh.triangles)


def _scatter(dofs: np.ndarray, local: np.ndarray, n: int) -> sp.csr_matrix:
    # COO to CSR keeps the element order inside each row, and every row
    # collects the elements of one subdomain only, so each entry is summed
    # in the same order as by a per-subdomain assembly
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_stiffness(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap
) -> sp.csr_matrix:
    """Bulk P1 stiffness of every subdomain (pure Neumann, constants in kernel).

    On the structured right-triangle mesh the interior stencil is the 5-point
    Laplacian {4, -1, -1, -1, -1}; the h factors cancel in 2D.
    """
    dofs = _element_dofs(mesh, labeling, dofmap)
    b, c, area = _element_geometry(mesh)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area
    )[:, None, None]
    return _scatter(dofs, local, dofmap.n)


def assemble_bulk_mass(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap
) -> sp.csr_matrix:
    """Consistent P1 mass over every subdomain bulk (SPD, row sums = areas/3)."""
    dofs = _element_dofs(mesh, labeling, dofmap)
    _, _, area = _element_geometry(mesh)
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * pattern[None, :, :]
    return _scatter(dofs, local, dofmap.n)


def _edge_dofs(labeling: SubdomainLabeling, dofmap: DofMap):
    """Dofs of both membrane edge ends on the lower (i) and upper (j) side."""
    me = labeling.membrane_edges
    ends = me[:, :2]
    return dofmap.global_dofs(me[:, 2:3], ends), dofmap.global_dofs(me[:, 3:4], ends)


def _edge_pairs(rows: np.ndarray, cols: np.ndarray, h: float, n: int) -> sp.csr_matrix:
    """Sum of the edge masses [[h/3, h/6], [h/6, h/3]] pairing rows with cols.

    ``rows`` and ``cols`` hold one (v0, v1) dof pair per edge.
    """
    m = len(rows)
    r = np.concatenate([rows[:, 0], rows[:, 1], rows[:, 0], rows[:, 1]])
    c = np.concatenate([cols[:, 0], cols[:, 1], cols[:, 1], cols[:, 0]])
    vals = np.concatenate(
        [np.full(m, h / 3), np.full(m, h / 3), np.full(m, h / 6), np.full(m, h / 6)]
    )
    return sp.coo_matrix((vals, (r, c)), shape=(n, n)).tocsr()


def assemble_membrane_mass(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap
) -> sp.csr_matrix:
    """1D P1 mass along the interface polyline of every subdomain.

    Each edge of length h contributes [[h/3, h/6], [h/6, h/3]] to both
    incident subdomains; rows of dofs off the membranes are empty.
    """
    lo, hi = _edge_dofs(labeling, dofmap)
    both = np.concatenate([lo, hi])
    return _edge_pairs(both, both, mesh.h, dofmap.n)


def assemble_coupling(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap
) -> sp.csr_matrix:
    """Interface coupling pairing the traces of every two adjacent subdomains.

    Entries are the negated edge mass values, placed in block (i, j) and its
    transpose (j, i), so the matrix is symmetric and nonpositive.
    """
    lo, hi = _edge_dofs(labeling, dofmap)
    out = _edge_pairs(np.concatenate([lo, hi]), np.concatenate([hi, lo]), mesh.h, dofmap.n)
    out.data *= -1.0
    return out


def assemble_rhs(
    mesh: StructuredMesh,
    labeling: SubdomainLabeling,
    dofmap: DofMap,
    config: ProblemConfig,
    stimulus: Callable[[np.ndarray, np.ndarray], np.ndarray] = default_stimulus,
) -> np.ndarray:
    """Membrane source vector over the global dofs.

    The edge density is g(x) = stimulus(x) * (1 - tau); on the interface
    between subdomains a < b the integral enters f_a with a minus sign and
    f_b with a plus sign, so matched trace dofs receive opposite values.
    """
    me = labeling.membrane_edges
    fvec = np.zeros(dofmap.n)
    h = mesh.h
    p0 = mesh.vertices[me[:, 0]]
    p1 = mesh.vertices[me[:, 1]]
    w0 = np.zeros(len(me))
    w1 = np.zeros(len(me))
    for t in _GAUSS_T:
        q = p0 + t * (p1 - p0)
        g = stimulus(q[:, 0], q[:, 1]) * (1.0 - config.tau)
        w0 += 0.5 * h * g * (1.0 - t)
        w1 += 0.5 * h * g * t
    for side, sign in zip(_edge_dofs(labeling, dofmap), (-1.0, 1.0)):
        np.add.at(fvec, side[:, 0], sign * w0)
        np.add.at(fvec, side[:, 1], sign * w1)
    return fvec


def assemble_operators(
    mesh: StructuredMesh,
    labeling: SubdomainLabeling,
    dofmap: DofMap,
    config: ProblemConfig,
    stimulus: Callable[[np.ndarray, np.ndarray], np.ndarray] = default_stimulus,
) -> OperatorSet:
    """Assemble every operator needed by the global system and preconditioners."""
    return OperatorSet(
        stiffness=assemble_stiffness(mesh, labeling, dofmap),
        membrane_mass=assemble_membrane_mass(mesh, labeling, dofmap),
        bulk_mass=assemble_bulk_mass(mesh, labeling, dofmap),
        coupling=assemble_coupling(mesh, labeling, dofmap),
        rhs=assemble_rhs(mesh, labeling, dofmap, config, stimulus),
        dofmap=dofmap,
        config=config,
        model=labeling.model,
    )
