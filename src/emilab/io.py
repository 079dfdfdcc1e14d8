"""File exchange: Matrix Market, plain vectors, mesh text dumps, CSV rows."""

from __future__ import annotations

import io as _io
from pathlib import Path

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from .meshgen import StructuredMesh, SubdomainLabeling

__all__ = [
    "write_matrix_market",
    "read_matrix_market",
    "write_vector",
    "read_vector",
    "export_mesh_text",
    "CSV_HEADER",
    "format_result_row",
]

CSV_HEADER = "model,N,nh,tau,eps,solver,iterations,relres,seconds,n,n0,nGamma"


def write_matrix_market(matrix, path) -> None:
    """Coordinate-format export.

    A square matrix exactly equal to its transpose is written "symmetric"
    (lower triangle only); any other matrix, e.g. a coupling block, "general".
    """
    matrix = sp.csr_matrix(matrix)
    rows, cols = matrix.shape
    symmetric = rows == cols and (matrix != matrix.T).nnz == 0
    symmetry = "symmetric" if symmetric else "general"
    sio.mmwrite(str(path), matrix.tocoo(), field="real", symmetry=symmetry)


def read_matrix_market(path) -> sp.csr_matrix:
    return sp.csr_matrix(sio.mmread(str(path)))


def write_vector(path, vec: np.ndarray) -> None:
    np.savetxt(str(path), np.asarray(vec, dtype=float), fmt="%.17g")


def read_vector(path) -> np.ndarray:
    return np.loadtxt(str(path), dtype=float).reshape(-1)


def export_mesh_text(mesh: StructuredMesh, labeling: SubdomainLabeling, path) -> None:
    """Plain-text dump: one `x y` line per vertex, then one
    `v0 v1 v2 subdomain` line per triangle."""
    buf = _io.StringIO()
    buf.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
    for x, y in mesh.vertices:
        buf.write(f"{x:.17g} {y:.17g}\n")
    for (a, b, c), lab in zip(mesh.triangles, labeling.cell_of):
        buf.write(f"{a} {b} {c} {lab}\n")
    Path(path).write_text(buf.getvalue())


def _number(value) -> str:
    return "" if value is None else f"{value:.10g}"


def format_result_row(
    model: str,
    n_cells: int,
    nh: int,
    tau: float | None,
    eps: float | None,
    solver: str,
    iterations: int,
    relres: float,
    seconds: float,
    n: int,
    n0: int,
    n_gamma: int,
) -> str:
    """One CSV line under ``CSV_HEADER``; a tau or eps of None is left empty."""
    return (
        f"{model},{n_cells},{nh},{_number(tau)},{_number(eps)},{solver},"
        f"{iterations},{relres:.6e},{seconds:.3f},{n},{n0},{n_gamma}"
    )
