"""Symbol machinery: Toeplitz construction, dense eigensolves, Weyl
distribution checks.

A symbol here is a real trigonometric polynomial on the d-torus given by its
finitely many Fourier coefficients; the associated d-level Toeplitz matrix
carries coefficient f_{k-l} at multi-index (k, l).  A separable symbol, a
sum of one-variable symbols, has the Kronecker sum of one-level Toeplitz
matrices as its matrix, so ``toeplitz_eigenvalues`` takes its spectrum from
one small eigensolve per level and never densifies the d-level matrix.
Every other spectrum comes from one dense reduction (``eig_rearranged``),
residual-checked on ten sampled eigenpairs.  Spectral distribution of
a symmetric matrix sequence against a symbol is quantified two ways: the mean
gap between sorted eigenvalues and sorted symbol samples after quantile
resampling, and the Weyl averages of a fixed battery of smooth compactly
supported test functions against the corresponding symbol integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.linalg import lapack

__all__ = [
    "SpectralError",
    "SymbolFunction",
    "DistributionReport",
    "p1_laplacian_symbol",
    "laplacian_1d_symbol",
    "constant_symbol",
    "toeplitz_from_symbol",
    "toeplitz_eigenvalues",
    "eig_rearranged",
    "distribution_distance",
]


class SpectralError(ValueError):
    """Raised for invalid symbols or non-symmetric inputs."""


RANGE_POINTS_PER_AXIS = 256  # midpoint grid that estimates a symbol's range
SAMPLES_PER_AXIS = 128  # midpoint grid whose symbol values the quantiles compare
RESIDUAL_SAMPLES = 10  # eigenpairs residual-checked per spectrum
RESIDUAL_TOL = 1e-8  # accepted eigenpair residual, relative to |A|
MOMENT_TOL = 1e-12  # accepted gap of a Kronecker-sum spectrum's two moments, relative
REFLECTOR_PANEL = 64  # Householder reflectors copied and applied at once
MAX_QUANTILES = 1024  # longest quantile vector a distribution report compares
OUTLIER_DELTA = 0.1  # widening of the symbol range before counting outliers
QUAD_POINTS = 64  # Gauss-Legendre points per axis of the symbol integrals

# the rule on [-1, 1] mapped to [-pi, pi]; the weights absorb into the mean
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(QUAD_POINTS)
_GAUSS_NODES = _GAUSS_NODES * np.pi


@dataclass(frozen=True)
class SymbolFunction:
    """Real trigonometric polynomial on [-pi, pi]^dim.

    ``coeffs`` maps integer offset tuples to real Fourier coefficients, which
    must be Hermitian (f_{-k} = f_k) so that the symbol is real and even.
    """

    dim: int
    coeffs: Mapping

    def __post_init__(self):
        # read-only, since the cached factories share their instances
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))
        for k, v in self.coeffs.items():
            if len(k) != self.dim:
                raise SpectralError(f"coefficient index {k} has wrong arity")
            if self.coefficient(tuple(-i for i in k)) != v:
                raise SpectralError(f"coefficients are not Hermitian: f_-k != f_k at k={k}")

    def coefficient(self, k: tuple) -> float:
        return float(self.coeffs.get(tuple(k), 0.0))

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate on points of shape (..., dim) (or (...,) when dim == 1)."""
        theta = np.asarray(theta, dtype=float)
        if self.dim == 1 and (theta.ndim == 0 or theta.shape[-1] != 1):
            theta = theta[..., None]
        out = np.zeros(theta.shape[:-1])
        for k, v in self.coeffs.items():
            phase = np.tensordot(theta, np.asarray(k, dtype=float), axes=([-1], [0]))
            out = out + v * np.cos(phase)  # Hermitian coefficients: sine terms cancel
        return out

    def sample(self, points_per_axis: int) -> np.ndarray:
        """Values on the uniform midpoint grid of [-pi, pi]^dim, flattened."""
        axis = -np.pi + (np.arange(points_per_axis) + 0.5) * 2 * np.pi / points_per_axis
        grids = np.meshgrid(*([axis] * self.dim), indexing="ij")
        theta = np.stack(grids, axis=-1)
        return self(theta).ravel()

    def range_estimate(self) -> tuple[float, float]:
        vals = self.sample(RANGE_POINTS_PER_AXIS)
        return float(vals.min()), float(vals.max())

    @cached_property
    def _distribution_terms(self) -> tuple:
        """What ``distribution_distance`` needs of the symbol alone, computed
        once: the sorted samples, the range estimate, the test battery and
        its symbol integrals."""
        lo, hi = self.range_estimate()
        battery = _test_battery(hi)
        return (np.sort(self.sample(SAMPLES_PER_AXIS)), lo, hi, battery,
                _symbol_integral_averages(self, battery))


# one instance per process, so its distribution terms are computed once
@cache
def p1_laplacian_symbol() -> SymbolFunction:
    """Symbol of the interior stencil of the structured P1 stiffness matrix."""
    return SymbolFunction(
        dim=2,
        coeffs={(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0},
    )


@cache
def laplacian_1d_symbol() -> SymbolFunction:
    return SymbolFunction(dim=1, coeffs={(0,): 2.0, (1,): -1.0, (-1,): -1.0})


@cache
def constant_symbol(value: float) -> SymbolFunction:
    return SymbolFunction(dim=1, coeffs={(0,): float(value)})


def _level_sizes(symbol: SymbolFunction, nu) -> tuple:
    nu = (int(nu),) if np.isscalar(nu) else tuple(int(m) for m in nu)
    if len(nu) != symbol.dim:
        raise SpectralError(f"size multi-index {nu} does not match arity {symbol.dim}")
    if any(m < 1 for m in nu):
        raise SpectralError("each level size must be at least 1")
    return nu


def toeplitz_from_symbol(symbol: SymbolFunction, nu) -> sp.csr_matrix:
    """Sparse (CSR) d-level Toeplitz matrix with entries f_{k-l} from the symbol.

    ``nu`` is the per-level size (an int for one level).  Rows and columns
    are ordered with the first index outermost, so for nu = (2, 3) the matrix
    consists of a 2x2 Toeplitz arrangement of 3x3 Toeplitz blocks.  Each
    coefficient fills one (block) diagonal, so the matrix stores at most
    (number of coefficients) x (size) entries; a coefficient that is zero is
    stored as an explicit zero.
    """
    nu = _level_sizes(symbol, nu)
    total = int(np.prod(nu))
    grid = np.indices(nu).reshape(len(nu), total)  # row multi-indices, first outermost
    rows, cols, vals = [], [], []
    bounds = np.array(nu)[:, None]
    for k, v in symbol.coeffs.items():
        # f_k sits where column = row - k; offsets past the grid select nothing
        col = grid - np.array(k)[:, None]
        inside = np.all((col >= 0) & (col < bounds), axis=0)
        rows.append(np.flatnonzero(inside))
        cols.append(np.ravel_multi_index(col[:, inside], nu))
        vals.append(np.full(rows[-1].size, float(v)))
    # distinct offsets k never share a (row, column) position
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    )


def lanczos_eigenvalues(A) -> np.ndarray:
    """Removed: every spectrum comes from ``eig_rearranged``.

    The name exists only because ``perfbench/tracing.py`` patches it.
    """
    raise NotImplementedError("lanczos_eigenvalues is removed; use eig_rearranged")


def _lapack_ok(routine: str, info: int) -> None:
    if info != 0:
        raise SpectralError(f"LAPACK {routine} failed with info={info}")


def _apply_reflectors(reflectors: np.ndarray, tau: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """H(1) ... H(k) Y for the k Householder reflectors stored below the
    unit diagonal of the columns of ``reflectors`` (``dormqr``).

    The reflectors are copied once into Fortran order, which dormqr reads in
    place; the copy is freed on return.  A workspace query lets dormqr apply
    them in blocks.
    """
    reflectors = np.asfortranarray(reflectors)
    _, work, info = lapack.dormqr("L", "N", reflectors, tau, Y, -1)
    _lapack_ok("dormqr", info)
    QY, _, info = lapack.dormqr("L", "N", reflectors, tau, Y, int(work[0]))
    _lapack_ok("dormqr", info)
    return QY


def _tridiagonal_eigh(A: np.ndarray):
    """Spectrum of a dense symmetric matrix (lower triangle) and an
    eigenvector callback; destroys ``A``.

    A = Q T Q^T by one Householder reduction (``dsytrd``), done in place: a
    Fortran-ordered float64 ``A`` is overwritten with T and the reflectors
    that define Q, which the callback reads (any other array is copied by
    f2py first).  The eigenvalues of T come from ``dsterf``, the pair that
    ``la.eigh(A, eigvals_only=True, driver="evd")`` runs, so the spectrum is
    bitwise that call's.  ``vectors(idx)`` computes only the requested
    eigenvectors: one inverse-iteration call (``dstein``) takes the sorted
    eigenvalues ``vals[idx]``, with T treated as one block (dstein perturbs
    equal eigenvalues and reorthogonalizes close ones, so a split or
    repeated spectrum needs no block structure), and Q is applied to the
    vectors (``dormqr``, one panel of ``REFLECTOR_PANEL`` reflectors at a
    time).
    """
    n = A.shape[0]
    if n == 1:  # no off-diagonal to reduce (f2py rejects the empty one)
        return A[0].copy(), lambda idx: np.ones((1, len(idx)))
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    _lapack_ok("dsytrd_lwork", info)
    c, d, e, tau, info = lapack.dsytrd(A, lower=1, lwork=int(lwork), overwrite_a=1)
    _lapack_ok("dsytrd", info)
    vals, info = lapack.dsterf(d, e)
    _lapack_ok("dsterf", info)

    def vectors(idx):
        # one block: dstein reads iblock[:len(idx)] and isplit[0] only
        Y, info = lapack.dstein(d, e, vals[idx], np.ones(n, np.int32), np.full(n, n, np.int32))
        _lapack_ok("dstein", info)
        # Q = H(1) ... H(n-1) leaves the first coordinate alone.  The
        # reflectors are applied one panel at a time, the last panel first:
        # reflector s acts on rows s+1.. only, so a panel is an
        # (n-1-s) x REFLECTOR_PANEL copy, never all of them
        for s in reversed(range(0, n - 1, REFLECTOR_PANEL)):
            panel = slice(s, min(s + REFLECTOR_PANEL, n - 1))
            Y[s + 1 :] = _apply_reflectors(c[s + 1 :, panel], tau[panel], Y[s + 1 :])
        return Y

    return vals, vectors


def _symmetric_csr(M, name: str) -> sp.csr_matrix:
    M = sp.csr_matrix(M, dtype=float)
    # a NaN or inf entry makes the asymmetry NaN, which fails the test too:
    # LAPACK would carry it into the spectrum and past the residual check
    if M.shape[0] and not abs(M - M.T).max() <= 1e-10 * max(abs(M).max(), 1.0):
        raise SpectralError(f"{name} is not symmetric and finite")
    return M


def eig_rearranged(M, P=None) -> np.ndarray:
    """Nondecreasing spectrum of a symmetric ``M``, or of the pencil M x =
    lambda P x for a symmetric positive definite ``P``.

    Each input is taken as CSR and densified once, in Fortran order; LAPACK
    reduces the copies in place: P's to its Cholesky factor L (``dpotrf``),
    M's to L^-1 M L^-T (``dsygst``), then to tridiagonal form (see
    ``_tridiagonal_eigh``).  Sampled eigenpairs are residual-checked against
    the inputs, as L^-1 (M v - lambda P v) for a pencil, v = L^-T y.  A 0 x 0
    input has the empty spectrum; one too large fails when it is densified.
    """
    M = _symmetric_csr(M, "matrix")
    n = M.shape[0]
    if n == 0:
        return np.zeros(0)
    reduced = M.toarray(order="F")
    if P is not None:
        P = _symmetric_csr(P, "P")
        factor, info = lapack.dpotrf(P.toarray(order="F"), lower=1, overwrite_a=1)
        if info:
            raise SpectralError(f"P is not positive definite (dpotrf info={info})")
        reduced, info = lapack.dsygst(reduced, factor, itype=1, lower=1, overwrite_a=1)
        _lapack_ok("dsygst", info)
    vals, vectors = _tridiagonal_eigh(reduced)
    idx = np.linspace(0, n - 1, min(RESIDUAL_SAMPLES, n)).astype(int)
    V = vectors(idx)
    if P is None:
        residuals = M @ V - V * vals[idx]
    else:
        V = la.solve_triangular(factor, V, trans="T", lower=True, check_finite=False)
        residuals = la.solve_triangular(
            factor, M @ V - (P @ V) * vals[idx], lower=True, check_finite=False
        )
    tol = RESIDUAL_TOL * max(np.abs(vals).max(), 1e-300)
    for r in np.linalg.norm(residuals, axis=0):
        if r > tol:
            raise SpectralError(f"eigenpair residual {r:.2e} exceeds {RESIDUAL_TOL:.0e} * |A|")
    return vals


def _one_level_symbols(symbol: SymbolFunction) -> list:
    """The one-variable symbols f_l with f(theta) = sum_l f_l(theta_l).

    Level l gets the coefficients whose offset is nonzero at l alone, and
    level 0 the zero offset too; an offset with two nonzero components
    makes the symbol non-separable.
    """
    parts = [{(0,): 0.0} for _ in range(symbol.dim)]
    for k, v in symbol.coeffs.items():
        nonzero = np.flatnonzero(k)
        if nonzero.size > 1:
            raise SpectralError(f"symbol is not separable: coefficient at offset {k}")
        level = int(nonzero[0]) if nonzero.size else 0
        parts[level][(k[level],)] = v
    return [SymbolFunction(dim=1, coeffs=c) for c in parts]


def toeplitz_eigenvalues(symbol: SymbolFunction, nu) -> np.ndarray:
    """Nondecreasing spectrum of the d-level Toeplitz matrix of a separable symbol.

    The matrix of f = f_0(theta_0) + ... + f_{d-1}(theta_{d-1}) is the
    Kronecker sum of the one-level matrices T_{nu_l}(f_l), so its spectrum
    is the outer sum of theirs; each level is eigensolved by
    ``eig_rearranged`` and residual-checked there.  The sum is checked
    against the assembled sparse matrix T by its first two moments,
    sum(lambda) = trace(T) and sum(lambda^2) = |T|_F^2, within ``MOMENT_TOL``
    of sqrt(size) |T|_F and |T|_F^2.  A non-separable symbol raises
    ``SpectralError``.
    """
    nu = _level_sizes(symbol, nu)
    vals = np.zeros(1)
    for f, m in zip(_one_level_symbols(symbol), nu):
        vals = np.add.outer(vals, eig_rearranged(toeplitz_from_symbol(f, m))).ravel()
    vals = np.sort(vals)
    T = toeplitz_from_symbol(symbol, nu)
    trace, frobenius2 = float(T.diagonal().sum()), float(T.data @ T.data)
    # |trace(T)| <= sqrt(size) |T|_F, so both moments are judged on |T|_F's scale
    for name, got, want, scale in (
        ("trace", vals.sum(), trace, np.sqrt(vals.size * frobenius2)),
        ("squared Frobenius norm", vals @ vals, frobenius2, frobenius2),
    ):
        if not abs(got - want) <= MOMENT_TOL * scale:
            raise SpectralError(
                f"Kronecker-sum spectrum misses the {name}: {got!r} against {want!r}"
            )
    return vals


@dataclass
class DistributionReport:
    """Comparison of a sorted spectrum against symbol samples."""

    eig_quantiles: np.ndarray
    symbol_quantiles: np.ndarray
    quantile_distance: float
    test_function_gaps: list  # (name, |matrix average - symbol integral|)
    outlier_count: int
    matrix_size: int

    def summary(self) -> dict:
        return {
            "matrix_size": self.matrix_size,
            "quantile_distance": self.quantile_distance,
            "outlier_count": self.outlier_count,
            "delta": OUTLIER_DELTA,
            "test_function_gaps": {name: gap for name, gap in self.test_function_gaps},
        }


def _resample_sorted(values: np.ndarray, m: int) -> np.ndarray:
    """m midpoint quantiles of an already sorted sample."""
    q = (np.arange(m) + 0.5) / m
    return np.quantile(values, q, method="linear")


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _test_battery(fmax: float):
    """Polynomials under a C1 cutoff plus three smooth bumps.

    The cutoff plateau covers [-0.5, 1.05*fmax] and the support ends at
    1.25*fmax, so the battery sees the whole symbol range while staying
    compactly supported.
    """
    span = max(fmax, 1e-8)
    lo0, lo1 = -1.0, -0.5
    hi0, hi1 = 1.05 * span, 1.25 * span

    def cutoff(t):
        return _smoothstep((t - lo0) / (lo1 - lo0)) * _smoothstep((hi1 - t) / (hi1 - hi0))

    battery = []
    for k in range(5):
        battery.append((f"poly{k}", lambda t, k=k: (t ** k) * cutoff(t)))

    def bump(t, c, w):
        u = (t - c) / w
        out = np.zeros_like(t)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    for frac in (0.25, 0.5, 0.75):
        battery.append(
            (f"bump{frac}", lambda t, c=frac * span, w=0.25 * span: bump(t, c, w))
        )
    return battery


def _symbol_integral_averages(symbol: SymbolFunction, battery) -> list:
    """(1 / mu(D)) * integral of func(symbol) for each battery function.

    Tensor Gauss-Legendre: the symbol is evaluated on the grid once and
    every function reuses those values.
    """
    grids = np.meshgrid(*([_GAUSS_NODES] * symbol.dim), indexing="ij")
    vals = symbol(np.stack(grids, axis=-1))
    wgt = np.ones(())
    for _ in range(symbol.dim):
        wgt = np.multiply.outer(wgt, _GAUSS_WEIGHTS)
    return [float((func(vals) * wgt).sum() / 2.0 ** symbol.dim) for _, func in battery]


def distribution_distance(eigs: np.ndarray, symbol: SymbolFunction) -> DistributionReport:
    """Quantile distance and Weyl test-function gaps between spectrum and symbol.

    Both sides are reduced to equal-length midpoint quantile vectors; the
    outlier count tallies eigenvalues outside the symbol range widened by
    OUTLIER_DELTA on both ends.  The symbol's side is computed on the first
    call for a symbol and reused after it.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    sym_vals, lo, hi, battery, symbol_avgs = symbol._distribution_terms
    m = min(MAX_QUANTILES, len(eigs))
    eig_q = _resample_sorted(eigs, m)
    sym_q = _resample_sorted(sym_vals, m)
    distance = float(np.abs(eig_q - sym_q).mean())

    gaps = [
        (name, abs(float(func(eigs).mean()) - symbol_avg))
        for (name, func), symbol_avg in zip(battery, symbol_avgs)
    ]

    outliers = int(
        np.count_nonzero((eigs < lo - OUTLIER_DELTA) | (eigs > hi + OUTLIER_DELTA))
    )
    return DistributionReport(
        eig_quantiles=eig_q,
        symbol_quantiles=sym_q,
        quantile_distance=distance,
        test_function_gaps=gaps,
        outlier_count=outliers,
        matrix_size=len(eigs),
    )
