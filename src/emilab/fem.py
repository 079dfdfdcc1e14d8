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

The matrices are sums of triangle or membrane-edge pieces through one
scatter.  The element matrices are constants that rely on the uniform
tessellation of ``build_mesh``: every square holds the same two right
triangles, and nh is a power of two, so the vertex coordinates are exact
dyadic numbers, the edge vectors exactly 0 or +-h and the area exactly
h^2/2.  The constants are the bits a per-element computation gives.

All quadrature is exact for the P1 integrands; the oscillating source is
integrated with 2-point Gauss per membrane edge (degree-3 exactness).
"""

from __future__ import annotations

from dataclasses import dataclass

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

# (b b^T + c c^T) / (4 area) of the triangle below the diagonal, (sw, se, ne),
# and of the one above it, (sw, ne, nw): the even and odd rows of
# ``mesh.triangles``
_REF_STIFFNESS = np.array(
    [
        [[0.5, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 0.5]],
        [[0.5, 0.0, -0.5], [0.0, 0.5, -0.5], [-0.5, -0.5, 1.0]],
    ]
)
# P1 mass of a triangle of unit area
_REF_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


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


def _element_dofs(mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap):
    """Global dofs of every triangle's vertices in its own subdomain."""
    counts = np.bincount(labeling.cell_of, minlength=labeling.n_subdomains)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        raise AssemblyError(f"subdomain {empty[0]} contains no triangles")
    return dofmap.global_dofs(labeling.cell_of[:, None], mesh.triangles)


def _scatter(rows: np.ndarray, cols: np.ndarray, local: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum of k x k pieces: piece e adds ``local`` at (rows[e], cols[e]).

    ``rows`` and ``cols`` hold k dofs per piece.  ``local`` is one k x k
    matrix or a stack of them that repeats over the pieces in turn.
    """
    # COO to CSR keeps the piece order inside each row, and every row
    # collects the pieces of one subdomain only, so each entry is summed
    # in the same order as by a per-subdomain assembly
    m, k = rows.shape
    local = np.reshape(local, (-1, k, k))
    vals = np.broadcast_to(local, (m // len(local), *local.shape)).ravel()
    r = np.repeat(rows, k, axis=1).ravel()
    c = np.tile(cols, (1, k)).ravel()
    return sp.coo_matrix((vals, (r, c)), shape=(n, n)).tocsr()


def assemble_stiffness(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap
) -> sp.csr_matrix:
    """Bulk P1 stiffness of every subdomain (pure Neumann, constants in kernel).

    On the structured right-triangle mesh the interior stencil is the 5-point
    Laplacian {4, -1, -1, -1, -1}; the h factors cancel in 2D.
    """
    dofs = _element_dofs(mesh, labeling, dofmap)
    return _scatter(dofs, dofs, _REF_STIFFNESS, dofmap.n)


def assemble_bulk_mass(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap
) -> sp.csr_matrix:
    """Consistent P1 mass over every subdomain bulk (SPD, row sums = areas/3)."""
    dofs = _element_dofs(mesh, labeling, dofmap)
    return _scatter(dofs, dofs, 0.5 * mesh.h * mesh.h * _REF_MASS, dofmap.n)


def _edge_dofs(labeling: SubdomainLabeling, dofmap: DofMap):
    """Dofs of both membrane edge ends on the lower (i) and upper (j) side."""
    me = labeling.membrane_edges
    ends = me[:, :2]
    return dofmap.global_dofs(me[:, 2:3], ends), dofmap.global_dofs(me[:, 3:4], ends)


def _edge_mass(h: float) -> np.ndarray:
    return np.array([[h / 3, h / 6], [h / 6, h / 3]])  # one edge of length h


def assemble_membrane_mass(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap
) -> sp.csr_matrix:
    """1D P1 mass along the interface polyline of every subdomain.

    Each edge of length h contributes [[h/3, h/6], [h/6, h/3]] to both
    incident subdomains; rows of dofs off the membranes are empty.
    """
    both = np.concatenate(_edge_dofs(labeling, dofmap))
    return _scatter(both, both, _edge_mass(mesh.h), dofmap.n)


def assemble_coupling(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap
) -> sp.csr_matrix:
    """Interface coupling pairing the traces of every two adjacent subdomains.

    Entries are the negated edge mass values, placed in block (i, j) and its
    transpose (j, i), so the matrix is symmetric and nonpositive.
    """
    lo, hi = _edge_dofs(labeling, dofmap)
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    return _scatter(rows, cols, -_edge_mass(mesh.h), dofmap.n)


def assemble_rhs(
    mesh: StructuredMesh,
    labeling: SubdomainLabeling,
    dofmap: DofMap,
    config: ProblemConfig,
) -> np.ndarray:
    """Membrane source vector over the global dofs.

    The edge density is g(x) = default_stimulus(x) * (1 - tau); on the
    interface between subdomains a < b the integral enters f_a with a minus
    sign and f_b with a plus sign, so matched trace dofs receive opposite
    values.
    """
    me = labeling.membrane_edges
    h = mesh.h
    p0 = mesh.vertices[me[:, 0]]
    p1 = mesh.vertices[me[:, 1]]
    w0 = np.zeros(len(me))
    w1 = np.zeros(len(me))
    for t in _GAUSS_T:
        q = p0 + t * (p1 - p0)
        g = default_stimulus(q[:, 0], q[:, 1]) * (1.0 - config.tau)
        w0 += 0.5 * h * g * (1.0 - t)
        w1 += 0.5 * h * g * t
    # bincount sums each dof's entries in array order, so this order fixes the bits
    lo, hi = _edge_dofs(labeling, dofmap)
    dofs = np.concatenate([lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1]])
    return np.bincount(dofs, np.concatenate([-w0, -w1, w0, w1]), minlength=dofmap.n)


def assemble_operators(
    mesh: StructuredMesh,
    labeling: SubdomainLabeling,
    dofmap: DofMap,
    config: ProblemConfig,
) -> OperatorSet:
    """Assemble every operator needed by the global system and preconditioners."""
    return OperatorSet(
        stiffness=assemble_stiffness(mesh, labeling, dofmap),
        membrane_mass=assemble_membrane_mass(mesh, labeling, dofmap),
        bulk_mass=assemble_bulk_mass(mesh, labeling, dofmap),
        coupling=assemble_coupling(mesh, labeling, dofmap),
        rhs=assemble_rhs(mesh, labeling, dofmap, config),
        dofmap=dofmap,
        config=config,
        model=labeling.model,
    )
