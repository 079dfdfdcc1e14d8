"""Symbol/Toeplitz/distribution tests against closed forms and brute force."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from emilab import spectral
from emilab.fem import ProblemConfig, assemble_operators, assemble_stiffness
from emilab.meshgen import build_dofmap, build_mesh, label_model_a, label_model_b
from emilab.spectral import (
    SpectralError,
    SymbolFunction,
    constant_symbol,
    distribution_distance,
    eig_rearranged,
    laplacian_1d_symbol,
    p1_laplacian_symbol,
    toeplitz_eigenvalues,
    toeplitz_from_symbol,
)
from emilab.system import block_diagonal, build_scaled, build_system


def test_toeplitz_1d_tridiagonal():
    T = toeplitz_from_symbol(laplacian_1d_symbol(), 4).toarray()
    expected = np.array(
        [
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 2.0],
        ]
    )
    assert np.array_equal(T, expected)


def test_toeplitz_1d_closed_form_eigenvalues():
    nu = 10
    T = toeplitz_from_symbol(laplacian_1d_symbol(), nu)
    eigs = eig_rearranged(T)
    expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, nu + 1) * np.pi / (nu + 1)))
    assert np.allclose(eigs, expected, rtol=1e-12, atol=1e-13)


def test_toeplitz_two_level_five_point():
    T = toeplitz_from_symbol(p1_laplacian_symbol(), (3, 3)).toarray()
    I3 = np.eye(3)
    tri = toeplitz_from_symbol(laplacian_1d_symbol(), 3).toarray()
    expected = np.kron(tri + I3 * 0, I3) * 0  # placeholder, replaced below
    # independent construction: kron sum of 1D pieces plus remaining diagonal
    one_d = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    expected = np.kron(one_d, I3) + np.kron(I3, one_d)
    assert np.array_equal(T, expected)


def test_toeplitz_block_layout_matches_display():
    """For nu = (2, 3) the matrix is a 2x2 grid of 3x3 blocks F_{k}."""
    coeffs = {
        (0, 0): 4.0,
        (1, 0): -1.0, (-1, 0): -1.0,
        (0, 1): -2.0, (0, -1): -2.0,
        (1, 1): 0.5, (-1, -1): 0.5,
    }
    f = SymbolFunction(dim=2, coeffs=coeffs)
    T = toeplitz_from_symbol(f, (2, 3)).toarray()
    assert T.shape == (6, 6)
    F0 = np.array([[4.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 4.0]])
    # F_1 sits below the block diagonal and carries the k1 = +1 coefficients
    F1 = np.array([[-1.0, 0.0, 0.0], [0.5, -1.0, 0.0], [0.0, 0.5, -1.0]])
    assert np.array_equal(T[0:3, 0:3], F0)
    assert np.array_equal(T[3:6, 3:6], F0)
    assert np.array_equal(T[3:6, 0:3], F1)
    assert np.array_equal(T[0:3, 3:6], F1.T)


def _kron_toeplitz(symbol, nu):
    """The d-level Toeplitz matrix as a sum of Kronecker products of shifts."""
    nu = (int(nu),) if np.isscalar(nu) else tuple(int(m) for m in nu)
    total = int(np.prod(nu))
    out = np.zeros((total, total))
    for k, v in symbol.coeffs.items():
        if any(abs(ki) >= m for ki, m in zip(k, nu)):
            continue
        shift = np.ones((1, 1))
        for ki, m in zip(k, nu):
            shift = np.kron(shift, np.eye(m, k=-ki))
        out += v * shift
    return out


_WIDE_1D = SymbolFunction(
    dim=1,
    coeffs={(0,): 6.0, (2,): -1.5, (-2,): -1.5, (5,): 0.25, (-5,): 0.25, (9,): 7.0, (-9,): 7.0},
)
_SKEW_2D = SymbolFunction(
    dim=2,
    coeffs={
        (0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 2): -2.0, (0, -2): -2.0,
        (1, -1): 0.5, (-1, 1): 0.5, (5, 0): 0.125, (-5, 0): 0.125, (0, 7): 3.0, (0, -7): 3.0,
    },
)

TOEPLITZ_ORACLE_CASES = {
    "1d-int-nu": (laplacian_1d_symbol(), 9),
    "1d-offsets-at-and-past-size": (_WIDE_1D, 5),
    "1d-offsets-inside": (_WIDE_1D, 12),
    "p1-8x8": (p1_laplacian_symbol(), (8, 8)),
    "p1-5x7": (p1_laplacian_symbol(), (5, 7)),
    "skew-5x7": (_SKEW_2D, (5, 7)),
    "skew-offsets-at-size": (_SKEW_2D, (5, 2)),
    "p1-1x1": (p1_laplacian_symbol(), (1, 1)),
}


@pytest.mark.parametrize("name", list(TOEPLITZ_ORACLE_CASES))
def test_toeplitz_matches_kron_oracle_bitwise(name):
    symbol, nu = TOEPLITZ_ORACLE_CASES[name]
    T = toeplitz_from_symbol(symbol, nu)
    assert T.format == "csr"
    assert T.toarray().tobytes() == _kron_toeplitz(symbol, nu).tobytes()


_SEPARABLE_2D = SymbolFunction(
    dim=2,
    coeffs={
        (0, 0): 6.0, (1, 0): -1.0, (-1, 0): -1.0, (3, 0): 0.25, (-3, 0): 0.25,
        (0, 2): -1.5, (0, -2): -1.5,
    },
)
_LEVEL_0_ONLY = SymbolFunction(dim=2, coeffs={(0, 0): 3.0, (2, 0): -1.0, (-2, 0): -1.0})
_P1_3D = SymbolFunction(
    dim=3,
    coeffs={
        (0, 0, 0): 6.0, (1, 0, 0): -1.0, (-1, 0, 0): -1.0, (0, 1, 0): -1.0,
        (0, -1, 0): -1.0, (0, 0, 1): -1.0, (0, 0, -1): -1.0,
    },
)

KRONECKER_SUM_CASES = {
    "p1-8x8": (p1_laplacian_symbol(), (8, 8)),
    "p1-3x5": (p1_laplacian_symbol(), (3, 5)),
    "p1-16x16": (p1_laplacian_symbol(), (16, 16)),
    "p1-1x1": (p1_laplacian_symbol(), (1, 1)),
    "1d-laplacian": (laplacian_1d_symbol(), 12),
    "1d-wide": (_WIDE_1D, 12),
    "separable-wide-7x9": (_SEPARABLE_2D, (7, 9)),
    "zero-second-level": (_LEVEL_0_ONLY, (6, 4)),
    "p1-3d-3x4x5": (_P1_3D, (3, 4, 5)),
}


@pytest.mark.parametrize("name", list(KRONECKER_SUM_CASES))
def test_toeplitz_eigenvalues_match_dense_eigensolve(name):
    """The outer sum of the one-level spectra is the spectrum of the
    assembled multilevel matrix."""
    symbol, nu = KRONECKER_SUM_CASES[name]
    got = toeplitz_eigenvalues(symbol, nu)
    want = eig_rearranged(toeplitz_from_symbol(symbol, nu))
    assert got.shape == want.shape
    assert np.all(np.diff(got) >= 0)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_toeplitz_eigenvalues_reject_a_non_separable_symbol():
    coeffs = dict(p1_laplacian_symbol().coeffs)
    coeffs.update({(1, 1): 0.5, (-1, -1): 0.5})
    with pytest.raises(SpectralError, match=r"not separable: coefficient at offset \(1, 1\)"):
        toeplitz_eigenvalues(SymbolFunction(dim=2, coeffs=coeffs), (4, 4))
    with pytest.raises(SpectralError, match="does not match arity"):
        toeplitz_eigenvalues(p1_laplacian_symbol(), 4)


def test_toeplitz_eigenvalues_moment_check_fires(monkeypatch):
    """A factor spectrum off by a relative 1e-9 in one eigenvalue misses the trace."""
    original = spectral.eig_rearranged

    def corrupted(M):
        vals = original(M)
        vals[-1] *= 1.0 + 1e-9
        return vals

    monkeypatch.setattr(spectral, "eig_rearranged", corrupted)
    with pytest.raises(SpectralError, match="Kronecker-sum spectrum misses the trace"):
        toeplitz_eigenvalues(p1_laplacian_symbol(), (8, 8))


def test_symbol_rejects_non_hermitian_coefficients():
    """f_1 without f_-1 would be the complex symbol 2 - exp(i theta)."""
    with pytest.raises(SpectralError, match="Hermitian"):
        SymbolFunction(dim=1, coeffs={(0,): 2.0, (1,): -1.0})
    with pytest.raises(SpectralError, match="Hermitian"):
        SymbolFunction(dim=2, coeffs={(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -0.5})


def test_toeplitz_rejects_wrong_arity():
    with pytest.raises(SpectralError):
        toeplitz_from_symbol(p1_laplacian_symbol(), 8)


def test_p1_symbol_values():
    f = p1_laplacian_symbol()
    assert f(np.array([0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert f(np.array([np.pi, np.pi])) == pytest.approx(8.0, rel=1e-15)


def test_p1_symbol_matches_interior_stencil():
    """Fourier coefficients read off an interior stiffness row."""
    nh = 8
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, 0)
    dofmap = build_dofmap(mesh, labeling)
    A = dofmap.block(assemble_stiffness(mesh, labeling, dofmap), 0)
    center = 4 * (nh + 1) + 4
    dof = int(dofmap.local_dofs(0, np.array([center]))[0])
    f = p1_laplacian_symbol()
    offsets = {(0, 0): 0, (1, 0): 1, (-1, 0): -1, (0, 1): nh + 1, (0, -1): -(nh + 1)}
    row = A[dof].toarray().ravel()
    for k, off in offsets.items():
        j = int(dofmap.local_dofs(0, np.array([center + off]))[0])
        assert row[j] == f.coefficient(k)


def test_symbol_values_match_series():
    f = p1_laplacian_symbol()
    rng = np.random.default_rng(0)
    theta = rng.uniform(-np.pi, np.pi, size=(50, 2))
    direct = 4.0 - 2.0 * np.cos(theta[:, 0]) - 2.0 * np.cos(theta[:, 1])
    assert np.allclose(f(theta), direct, rtol=0, atol=1e-12)


def test_eig_rearranged_identity():
    eigs = eig_rearranged(np.eye(5))
    assert np.allclose(eigs, 1.0, rtol=1e-14)


def test_eig_rearranged_rejects_nonsymmetric():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SpectralError):
        eig_rearranged(M)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eig_rearranged_rejects_non_finite(sparse, bad):
    M = toeplitz_from_symbol(laplacian_1d_symbol(), 6).toarray()
    M[2, 2] = bad
    with pytest.raises(SpectralError, match="symmetric and finite"), np.errstate(invalid="ignore"):
        eig_rearranged(sp.csr_matrix(M) if sparse else M)


def test_eig_rearranged_sparse_input():
    T = sp.csr_matrix(toeplitz_from_symbol(laplacian_1d_symbol(), 12))
    eigs = eig_rearranged(T)
    expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, 13) * np.pi / 13))
    assert np.allclose(eigs, expected, rtol=1e-12, atol=1e-13)


def test_eig_rearranged_empty_input():
    for M in (np.zeros((0, 0)), sp.csr_matrix((0, 0))):
        eigs = eig_rearranged(M)
        assert eigs.shape == (0,)


def _hook_sampled_vectors(monkeypatch, corrupt=None):
    """Record the eigenvalues the dense path hands to inverse iteration.

    Column ``corrupt`` of dstein's output is swapped for e_0 before it is
    mapped back through Q, so that eigenpair is wrong.
    """
    requested = []
    dstein = spectral.lapack.dstein

    def recording_dstein(d, e, w, *args):
        requested.append(np.array(w))
        z, info = dstein(d, e, w, *args)
        if corrupt is not None:
            z[:, corrupt] = 0.0
            z[0, corrupt] = 1.0
        return z, info

    monkeypatch.setattr(spectral.lapack, "dstein", recording_dstein)
    return requested


def _sampled_columns(n):
    return np.linspace(0, n - 1, spectral.RESIDUAL_SAMPLES).astype(int)


@pytest.mark.parametrize("sparse", [False, True])
def test_residual_check_fires_on_a_bad_eigenpair(monkeypatch, sparse):
    n = 40
    T = toeplitz_from_symbol(laplacian_1d_symbol(), n).toarray()
    _hook_sampled_vectors(monkeypatch, corrupt=3)
    with pytest.raises(SpectralError, match="eigenpair residual"):
        eig_rearranged(sp.csr_matrix(T) if sparse else T)


def _laplacian_pencil(n):
    """The 1D Laplacian against a diagonal SPD matrix."""
    M = toeplitz_from_symbol(laplacian_1d_symbol(), n)
    return M, sp.diags(np.linspace(1.0, 3.0, n)).tocsr()


def test_pencil_residual_check_fires_on_a_bad_eigenpair(monkeypatch):
    M, P = _laplacian_pencil(40)
    _hook_sampled_vectors(monkeypatch, corrupt=3)
    with pytest.raises(SpectralError, match="eigenpair residual"):
        eig_rearranged(M, P)


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda P: P + sp.eye(P.shape[0], k=1), "P is not symmetric"),
        (lambda P: P - 2.0 * sp.eye(P.shape[0]), "P is not positive definite"),
    ],
    ids=["asymmetric", "indefinite"],
)
def test_pencil_rejects_a_bad_p(bad, message):
    M, P = _laplacian_pencil(12)
    with pytest.raises(SpectralError, match=message):
        eig_rearranged(M, bad(P))


def test_residual_check_samples_fixed_columns(monkeypatch):
    """Exactly the ten evenly spaced eigenvectors are computed and checked,
    by one inverse-iteration call on their eigenvalues."""
    n = 40
    requested = _hook_sampled_vectors(monkeypatch)
    T = toeplitz_from_symbol(laplacian_1d_symbol(), n)
    expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    eigs = eig_rearranged(T)
    assert np.allclose(eigs, expected, rtol=1e-12, atol=1e-13)
    assert len(requested) == 1
    assert requested[0].tobytes() == eigs[_sampled_columns(n)].tobytes()


@pytest.mark.parametrize(
    "routine", ["dsytrd_lwork", "dsytrd", "dsterf", "dstein", "dormqr"]
)
def test_dense_eigensolve_reports_lapack_failure(monkeypatch, routine):
    original = getattr(spectral.lapack, routine)

    def failing(*args, **kwargs):
        return (*original(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(spectral.lapack, routine, failing)
    with pytest.raises(SpectralError, match=f"LAPACK {routine} failed with info=1"):
        eig_rearranged(toeplitz_from_symbol(laplacian_1d_symbol(), 12))


def test_pencil_reports_lapack_failure(monkeypatch):
    original = spectral.lapack.dsygst

    def failing(*args, **kwargs):
        return (*original(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(spectral.lapack, "dsygst", failing)
    with pytest.raises(SpectralError, match="LAPACK dsygst failed with info=1"):
        eig_rearranged(*_laplacian_pencil(12))


def _offdiag_support_b16():
    """The off-diagonal part of B/16/4 on the rows it touches, as the suite solves it."""
    mesh = build_mesh(16)
    labeling = label_model_b(mesh, 4)
    dofmap = build_dofmap(mesh, labeling)
    system = build_system(assemble_operators(mesh, labeling, dofmap, ProblemConfig(tau=0.01)))
    offdiag = (system.matrix - block_diagonal(system)).tocsr()
    offdiag.eliminate_zeros()
    support = np.union1d(np.flatnonzero(np.diff(offdiag.indptr)), offdiag.indices)
    return offdiag[support][:, support].toarray()


def _random_symmetric(n, seed=0):
    X = np.random.default_rng(seed).standard_normal((n, n))
    return X + X.T


EIGVALS_ORACLE_INPUTS = {
    "scaled-A16": lambda: build_scaled(_model_a_system(16)[0]).toarray(),
    "p1-toeplitz-8x8": lambda: toeplitz_from_symbol(p1_laplacian_symbol(), (8, 8)).toarray(),
    "offdiag-support-B16-4": _offdiag_support_b16,
    "random-300": lambda: _random_symmetric(300),
    # inside the symmetry tolerance: only the lower triangle is read
    "random-300-upper-perturbed": lambda: _random_symmetric(300) + np.triu(
        np.full((300, 300), 1e-12), 1
    ),
    "repeated-diagonal": lambda: np.diag([3.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0]),
    # zero couplings between the blocks split the tridiagonal form
    "split-block-diagonal": lambda: la.block_diag(
        _random_symmetric(5, 1), np.zeros((2, 2)), _random_symmetric(7, 2)
    ),
    "zero": lambda: np.zeros((6, 6)),
    "1x1": lambda: np.array([[-2.5]]),
    "2x2": lambda: np.array([[2.0, -1.0], [-1.0, 3.0]]),
}


def _snapshot(M):
    if sp.issparse(M):
        return M.format, M.data.tobytes(), M.indices.tobytes(), M.indptr.tobytes()
    return M.flags.c_contiguous, M.tobytes()


def _assert_evd_bitwise_and_input_kept(M):
    before = _snapshot(M)
    eigs = eig_rearranged(M)
    expected = la.eigh(M.toarray() if sp.issparse(M) else M, eigvals_only=True, driver="evd")
    assert eigs.dtype == expected.dtype and eigs.tobytes() == expected.tobytes()
    assert _snapshot(M) == before


@pytest.mark.parametrize("name", list(EIGVALS_ORACLE_INPUTS))
def test_dense_spectrum_bitwise_matches_evd(name):
    """One dsytrd + dsterf is exactly what the evd driver runs without vectors;
    the reduction runs in place on a copy, so the input is left as it was."""
    _assert_evd_bitwise_and_input_kept(EIGVALS_ORACLE_INPUTS[name]())


@pytest.mark.parametrize("name", list(EIGVALS_ORACLE_INPUTS))
def test_sparse_spectrum_bitwise_matches_evd(name):
    """A CSR input gives bitwise the evd spectrum of its dense form."""
    _assert_evd_bitwise_and_input_kept(sp.csr_matrix(EIGVALS_ORACLE_INPUTS[name]()))


DENSE_PEAK_ARRAYS = 2.25  # traced allocation cap of a dense check, in n x n float64 arrays


def _traced_peak(compute) -> int:
    """Allocation peak in bytes that ``compute()`` reaches, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eig_rearranged_memory_on_sparse_scaled_a32():
    """The sparse scaled matrix of A/32/1 is densified once and reduced in place."""
    S = build_scaled(_model_a_system(32)[0])
    n = S.shape[0]
    assert _traced_peak(lambda: eig_rearranged(S)) <= DENSE_PEAK_ARRAYS * 8 * n * n


def test_eig_rearranged_holds_one_dense_array_on_scaled_a32():
    """The reflectors are copied a panel at a time, so the dense copy is the
    only n x n array; a copy of all of them at once peaked at 2.03 x 8n^2."""
    S = build_scaled(_model_a_system(32)[0])
    n = S.shape[0]
    assert _traced_peak(lambda: eig_rearranged(S)) <= 1.1 * 8 * n * n


@pytest.mark.parametrize("n", [2, 40, 65, 66, 200])
def test_sampled_eigenvectors_have_small_residuals(n):
    """Eigenvectors mapped back through Q panel by panel, including a last
    panel narrower than REFLECTOR_PANEL, are orthonormal eigenvectors of A."""
    A = _random_symmetric(n, seed=n)
    vals, vectors = spectral._tridiagonal_eigh(np.array(A, order="F"))
    idx = _sampled_columns(n) if n >= spectral.RESIDUAL_SAMPLES else np.arange(n)
    V = vectors(idx)
    scale = np.abs(vals).max()
    assert np.abs(A @ V - V * vals[idx]).max() <= 1e-12 * scale
    assert np.abs(V.T @ V - np.eye(len(idx))).max() <= 1e-12


def test_szego_memory_at_nh32():
    """The Szego check eigensolves the two 32 x 32 Kronecker-sum factors; the
    1024 x 1024 Toeplitz matrix stays sparse.  Densifying it peaked at
    1.11 x 8n^2 (this check read 0.05 x 8n^2)."""
    f = p1_laplacian_symbol()
    n = 32 * 32
    f._distribution_terms  # the symbol's side, computed once per process
    peak = _traced_peak(lambda: distribution_distance(toeplitz_eigenvalues(f, (32, 32)), f))
    assert peak <= 0.1 * 8 * n * n


def test_eig_rearranged_1d_laplacian_closed_form():
    T = sp.csr_matrix(toeplitz_from_symbol(laplacian_1d_symbol(), 80))
    eigs = eig_rearranged(T)
    expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, 81) * np.pi / 81))
    assert np.allclose(eigs, expected, rtol=1e-8, atol=1e-9)


def test_lanczos_stub_points_to_eig_rearranged():
    """The removed Lanczos sweep keeps only its name, which raises."""
    assert "lanczos_eigenvalues" not in spectral.__all__
    with pytest.raises(NotImplementedError, match="eig_rearranged"):
        spectral.lanczos_eigenvalues(sp.identity(3, format="csr"))


def _model_a_system(nh, n_cells=1, tau=0.01):
    mesh = build_mesh(nh)
    labeling = label_model_a(mesh, n_cells)
    dofmap = build_dofmap(mesh, labeling)
    ops = assemble_operators(mesh, labeling, dofmap, ProblemConfig(tau=tau))
    return build_system(ops), ops


def test_offdiagonal_part_is_low_rank():
    """The coupling part has at least n - 2*n_gamma zero eigenvalues."""
    system, _ = _model_a_system(16)
    offdiag = system.matrix - block_diagonal(system)
    eigs = eig_rearranged(offdiag)
    norm = np.abs(system.matrix).sum(axis=1).max()
    n_zero = int(np.count_nonzero(np.abs(eigs) <= 1e-10 * norm))
    assert n_zero >= system.n - 2 * system.dofmap.n_gamma


def test_membrane_mass_zero_distribution():
    """Nonzero eigenvalue fraction of M_i bounded by its membrane dof share."""
    from emilab.fem import assemble_membrane_mass

    mesh = build_mesh(16)
    labeling = label_model_a(mesh, 1)
    dofmap = build_dofmap(mesh, labeling)
    for i in range(2):
        M = dofmap.block(assemble_membrane_mass(mesh, labeling, dofmap), i)
        eigs = eig_rearranged(M.toarray())
        frac = np.count_nonzero(np.abs(eigs) > 1e-12) / len(eigs)
        assert frac <= dofmap.n_gamma_per[i] / dofmap.block_sizes[i]


def test_distribution_distance_zero_for_matching_samples():
    f = p1_laplacian_symbol()
    samples = np.sort(f.sample(spectral.SAMPLES_PER_AXIS))
    report = distribution_distance(samples, f)
    assert report.quantile_distance == 0.0
    assert report.outlier_count == 0


def test_distribution_distance_test_functions():
    """Weyl averages drift toward the symbol integrals as the size grows."""
    f = laplacian_1d_symbol()
    reports = {}
    for nu in (128, 512):
        eigs = eig_rearranged(toeplitz_from_symbol(f, nu))
        reports[nu] = distribution_distance(eigs, f)
    assert reports[512].quantile_distance <= 0.02
    coarse = dict(reports[128].test_function_gaps)
    fine = dict(reports[512].test_function_gaps)
    assert len(coarse) == 8
    for name in coarse:
        assert fine[name] <= coarse[name] + 1e-12


def test_scaled_system_distance_decreases():
    """The scaled matrix approaches the stiffness symbol under refinement."""
    f = p1_laplacian_symbol()
    distances = []
    for nh in (8, 16, 32):
        system, _ = _model_a_system(nh)
        eigs = eig_rearranged(build_scaled(system))
        distances.append(distribution_distance(eigs, f).quantile_distance)
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] < 0.8


def test_szego_distance_decreases():
    f = p1_laplacian_symbol()
    distances = []
    for m in (8, 16, 32):
        eigs = eig_rearranged(toeplitz_from_symbol(f, (m, m)))
        distances.append(distribution_distance(eigs, f).quantile_distance)
    assert distances[0] > distances[1] > distances[2]


def test_weyl_gaps_decrease_under_refinement():
    f = p1_laplacian_symbol()
    gap_sets = []
    for m in (8, 32):
        eigs = eig_rearranged(toeplitz_from_symbol(f, (m, m)))
        gaps = dict(distribution_distance(eigs, f).test_function_gaps)
        gap_sets.append(gaps)
    for name in gap_sets[0]:
        assert gap_sets[1][name] <= gap_sets[0][name] + 1e-12


def test_constant_symbol_quantiles():
    report = distribution_distance(np.ones(100), constant_symbol(1.0))
    assert report.quantile_distance == 0.0
    assert report.outlier_count == 0
    report2 = distribution_distance(np.concatenate([np.ones(99), [1.5]]), constant_symbol(1.0))
    assert report2.outlier_count == 1


def _old_symbol_integral_average(symbol, func) -> float:
    """Per-function quadrature as before the grid values were shared."""
    nodes, weights = np.polynomial.legendre.leggauss(spectral.QUAD_POINTS)
    nodes = nodes * np.pi
    grids = np.meshgrid(*([nodes] * symbol.dim), indexing="ij")
    theta = np.stack(grids, axis=-1)
    vals = func(symbol(theta))
    wgt = np.ones(())
    for _ in range(symbol.dim):
        wgt = np.multiply.outer(wgt, weights)
    return float((vals * wgt).sum() / 2.0 ** symbol.dim)


WEYL_ORACLE_SYMBOLS = {
    "p1": p1_laplacian_symbol,
    "constant": lambda: constant_symbol(1.0),
}


@pytest.mark.parametrize("name", sorted(WEYL_ORACLE_SYMBOLS))
def test_weyl_gaps_match_per_function_quadrature(name):
    """Shared grid values give bitwise the gaps of one quadrature per function."""
    symbol = WEYL_ORACLE_SYMBOLS[name]()
    lo, hi = symbol.range_estimate()
    eigs = np.linspace(lo, hi, 257)
    report = distribution_distance(eigs, symbol)
    battery = spectral._test_battery(hi)
    expected = [
        (label, abs(float(func(eigs).mean()) - _old_symbol_integral_average(symbol, func)))
        for label, func in battery
    ]
    assert report.test_function_gaps == expected


def test_distribution_distance_reuses_symbol_terms(monkeypatch):
    """A symbol samples its grids once; a reused symbol reports bitwise what
    a fresh one does."""
    calls = []
    sample = SymbolFunction.sample
    monkeypatch.setattr(SymbolFunction, "sample", lambda self, m: calls.append(m) or sample(self, m))
    # the factory is cached; its undecorated body builds instances of our own
    fresh_symbol = p1_laplacian_symbol.__wrapped__
    symbol = fresh_symbol()
    spectra = [np.linspace(-0.5, 8.5, 200), np.linspace(0.0, 8.0, 2000)]
    reused = [distribution_distance(eigs, symbol) for eigs in spectra]
    assert sorted(calls) == [spectral.SAMPLES_PER_AXIS, spectral.RANGE_POINTS_PER_AXIS]
    for eigs, report in zip(spectra, reused):
        fresh = distribution_distance(eigs, fresh_symbol())
        assert np.array_equal(report.symbol_quantiles, fresh.symbol_quantiles)
        assert report.summary() == fresh.summary()


@pytest.mark.parametrize(
    "factory",
    [p1_laplacian_symbol, laplacian_1d_symbol, lambda: constant_symbol(1.0)],
    ids=["p1", "laplacian_1d", "constant"],
)
def test_symbol_factories_share_one_read_only_instance(factory):
    symbol = factory()
    assert factory() is symbol
    with pytest.raises(TypeError):
        symbol.coeffs[(0,) * symbol.dim] = 0.0
