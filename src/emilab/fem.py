"""P1 finite element operators for the coupled multi-domain system.

Per subdomain i the discrete pieces are the bulk stiffness ``A_i``, the
membrane mass ``M_i`` (1D mass along the interface polyline, embedded in the
subdomain's dof space), the bulk mass ``Mtilde_i`` used by the block-diagonal
preconditioner, the interface coupling blocks ``B_{i,j}`` (negated mass
pairing the two traces), and the membrane source vector ``f_i``.

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
    """Raised for empty subdomains or missing interfaces."""


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

    def tau_i(self, i: int) -> float:
        sigma = np.asarray(self.sigma)
        return float(self.tau * (sigma if sigma.ndim == 0 else sigma[i]))


def default_stimulus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Oscillating initial membrane stimulus, half a sine of the squared radius."""
    return 0.5 * np.sin(10.0 * (x * x + y * y))


@dataclass
class OperatorSet:
    """All assembled blocks for one (mesh, labeling, config) triple."""

    stiffness: list  # A_i, csr
    membrane_mass: list  # M_i, csr
    bulk_mass: list  # Mtilde_i, csr
    coupling: dict  # (i, j) -> B_{i,j}, csr; both orders stored
    rhs: list  # f_i vectors
    dofmap: DofMap
    config: ProblemConfig
    model: str


def _subdomain_triangles(mesh: StructuredMesh, labeling: SubdomainLabeling, i: int) -> np.ndarray:
    tris = mesh.triangles[labeling.cell_of == i]
    if len(tris) == 0:
        raise AssemblyError(f"subdomain {i} contains no triangles")
    return tris


def _element_geometry(mesh: StructuredMesh, tris: np.ndarray):
    p = mesh.vertices[tris]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def _scatter(block_dofs: np.ndarray, local: np.ndarray, size: int) -> sp.csr_matrix:
    rows = np.repeat(block_dofs, 3, axis=1).ravel()
    cols = np.tile(block_dofs, (1, 3)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(size, size))
    return mat.tocsr()


def assemble_stiffness(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap, i: int
) -> sp.csr_matrix:
    """Bulk P1 stiffness of subdomain i (pure Neumann, constants in kernel).

    On the structured right-triangle mesh the interior stencil is the 5-point
    Laplacian {4, -1, -1, -1, -1}; the h factors cancel in 2D.
    """
    tris = _subdomain_triangles(mesh, labeling, i)
    b, c, area = _element_geometry(mesh, tris)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area
    )[:, None, None]
    n_i = int(dofmap.block_sizes[i])
    dofs = dofmap.local_dofs(i, tris.ravel()).reshape(tris.shape)
    return _scatter(dofs, local, n_i)


def assemble_bulk_mass(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap, i: int
) -> sp.csr_matrix:
    """Consistent P1 mass over the subdomain bulk (SPD, row sums = areas/3)."""
    tris = _subdomain_triangles(mesh, labeling, i)
    _, _, area = _element_geometry(mesh, tris)
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * pattern[None, :, :]
    n_i = int(dofmap.block_sizes[i])
    dofs = dofmap.local_dofs(i, tris.ravel()).reshape(tris.shape)
    return _scatter(dofs, local, n_i)


def _interface_edges(labeling: SubdomainLabeling, i: int, j: int | None = None) -> np.ndarray:
    me = labeling.membrane_edges
    if j is None:
        sel = (me[:, 2] == i) | (me[:, 3] == i)
    else:
        lo, hi = min(i, j), max(i, j)
        sel = (me[:, 2] == lo) & (me[:, 3] == hi)
    return me[sel]


def assemble_membrane_mass(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap, i: int
) -> sp.csr_matrix:
    """1D P1 mass along the interface polyline of subdomain i.

    Each edge of length h contributes [[h/3, h/6], [h/6, h/3]]; subdomains
    with an empty interface get a zero matrix.
    """
    n_i = int(dofmap.block_sizes[i])
    edges = _interface_edges(labeling, i)
    if len(edges) == 0:
        return sp.csr_matrix((n_i, n_i))
    h = mesh.h
    d0 = dofmap.local_dofs(i, edges[:, 0])
    d1 = dofmap.local_dofs(i, edges[:, 1])
    m = len(edges)
    rows = np.concatenate([d0, d1, d0, d1])
    cols = np.concatenate([d0, d1, d1, d0])
    vals = np.concatenate(
        [np.full(m, h / 3), np.full(m, h / 3), np.full(m, h / 6), np.full(m, h / 6)]
    )
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_i, n_i)).tocsr()


def assemble_coupling(
    mesh: StructuredMesh, labeling: SubdomainLabeling, dofmap: DofMap, i: int, j: int
) -> sp.csr_matrix:
    """Interface coupling block pairing the traces of subdomains i and j.

    Entries are the negated edge mass values, so B(i,j) = B(j,i)^T and all
    entries are nonpositive.  Raises if the two subdomains share no edge.
    """
    edges = _interface_edges(labeling, i, j)
    if len(edges) == 0:
        raise AssemblyError(f"subdomains {i} and {j} share no interface")
    h = mesh.h
    n_i = int(dofmap.block_sizes[i])
    n_j = int(dofmap.block_sizes[j])
    gi0 = dofmap.local_dofs(i, edges[:, 0])
    gi1 = dofmap.local_dofs(i, edges[:, 1])
    gj0 = dofmap.local_dofs(j, edges[:, 0])
    gj1 = dofmap.local_dofs(j, edges[:, 1])
    m = len(edges)
    rows = np.concatenate([gi0, gi1, gi0, gi1])
    cols = np.concatenate([gj0, gj1, gj1, gj0])
    vals = np.concatenate(
        [np.full(m, -h / 3), np.full(m, -h / 3), np.full(m, -h / 6), np.full(m, -h / 6)]
    )
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_i, n_j)).tocsr()


def assemble_rhs(
    mesh: StructuredMesh,
    labeling: SubdomainLabeling,
    dofmap: DofMap,
    config: ProblemConfig,
    stimulus: Callable[[np.ndarray, np.ndarray], np.ndarray] = default_stimulus,
) -> list:
    """Membrane source vectors, one per subdomain.

    The edge density is g(x) = stimulus(x) * (1 - tau); on the interface
    between subdomains a < b the integral enters f_a with a minus sign and
    f_b with a plus sign, so matched trace dofs receive opposite values.
    """
    me = labeling.membrane_edges
    fvec = [np.zeros(int(s)) for s in dofmap.block_sizes]
    if len(me) == 0:
        return fvec
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
    for side, sign in ((2, -1.0), (3, 1.0)):
        for i in np.unique(me[:, side]):
            sel = me[:, side] == i
            d0 = dofmap.local_dofs(i, me[sel, 0])
            d1 = dofmap.local_dofs(i, me[sel, 1])
            np.add.at(fvec[i], d0, sign * w0[sel])
            np.add.at(fvec[i], d1, sign * w1[sel])
    return fvec


def assemble_operators(
    mesh: StructuredMesh,
    labeling: SubdomainLabeling,
    dofmap: DofMap,
    config: ProblemConfig,
    stimulus: Callable[[np.ndarray, np.ndarray], np.ndarray] = default_stimulus,
) -> OperatorSet:
    """Assemble every block needed by the global system and preconditioners."""
    n_sub = labeling.n_subdomains
    stiffness = [assemble_stiffness(mesh, labeling, dofmap, i) for i in range(n_sub)]
    membrane = [assemble_membrane_mass(mesh, labeling, dofmap, i) for i in range(n_sub)]
    bulk = [assemble_bulk_mass(mesh, labeling, dofmap, i) for i in range(n_sub)]
    coupling = {}
    me = labeling.membrane_edges
    if len(me):
        pairs = np.unique(me[:, 2:4], axis=0)
        for i, j in pairs:
            bij = assemble_coupling(mesh, labeling, dofmap, int(i), int(j))
            coupling[(int(i), int(j))] = bij
            coupling[(int(j), int(i))] = bij.T.tocsr()
    rhs = assemble_rhs(mesh, labeling, dofmap, config, stimulus)
    return OperatorSet(
        stiffness=stiffness,
        membrane_mass=membrane,
        bulk_mass=bulk,
        coupling=coupling,
        rhs=rhs,
        dofmap=dofmap,
        config=config,
        model=labeling.model,
    )
