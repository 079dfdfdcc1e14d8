"""Experiment driver and CLI tests: configs, tables, determinism, exit codes."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from emilab import cli, harness, spectral
from emilab.cli import main
from emilab.fem import ProblemConfig
from emilab.harness import (
    ConfigError,
    ExperimentSpec,
    build_case,
    parse_config,
    run_spectral_suite,
    run_table,
)
from emilab.io import (
    CSV_HEADER, read_matrix_market, read_vector, write_matrix_market, write_vector,
)
from emilab.meshgen import (
    GeometryError,
    build_dofmap,
    build_mesh,
    label_model_a,
    label_model_b,
)
from emilab.solvers import AmgError, SolverConfig, blockdiag_matrix, cg_solve
from emilab.spectral import SpectralError, eig_rearranged
from emilab.system import block_diagonal, build_system


def _strip_seconds(rows):
    out = []
    for row in rows[1:]:
        cells = row.split(",")
        del cells[8]
        out.append(",".join(cells))
    return out


def test_parse_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "model=A\n"
        "nh=8,16,32\n"
        "cells=1\n"
        "tau=0.01,0.1\n"
        "solvers=cg,amg\n"
        "eps=1e-4\n"
        "tol=1e-9\n"
        "maxiter=500\n"
    )
    spec = parse_config(cfg)
    assert spec.nh_list == (8, 16, 32)
    assert spec.tau_list == (0.01, 0.1)
    assert spec.solvers == ("cg", "amg")
    assert spec.maxiter == 500


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modle=A\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_parse_config_rejects_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_parse_config_names_the_key_it_cannot_parse(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nh=8,x\n")
    with pytest.raises(ConfigError, match="nh: cannot parse '8,x'"):
        parse_config(cfg)


def test_parse_config_rejects_duplicate_key(tmp_path):
    """A repeated key would silently replace the earlier value."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nh=8\nnh=16\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: duplicate key 'nh'"):
        parse_config(cfg)


def test_spec_validates_compatibility():
    with pytest.raises((ConfigError, Exception)):
        ExperimentSpec(model="A", nh_list=(8,), cells_list=(25,))
    with pytest.raises(ConfigError):
        ExperimentSpec(model="C")
    with pytest.raises(ConfigError):
        ExperimentSpec(solvers=("gauss",))
    with pytest.raises(ConfigError):
        ExperimentSpec(tau_list=(0.0,))


@pytest.mark.parametrize(
    "make",
    [
        lambda v: ProblemConfig(tau=v),
        lambda v: ProblemConfig(epsilon=v),
        lambda v: ProblemConfig(sigma=[1.0, v]),
        lambda v: SolverConfig(tol=v),
        lambda v: ExperimentSpec(tau_list=(0.01, v)),
        lambda v: ExperimentSpec(eps=v),
        lambda v: ExperimentSpec(tol=v),
    ],
    ids=["tau", "epsilon", "sigma", "solver-tol", "tau_list", "spec-eps", "spec-tol"],
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_configs_reject_non_finite(make, value):
    with pytest.raises(ValueError):
        make(value)


def test_refinement_table_deterministic():
    spec = ExperimentSpec(model="A", nh_list=(8, 16), cells_list=(1,), solvers=("cg",))
    rows1 = run_table(spec, "refinement")
    rows2 = run_table(spec, "refinement")
    assert rows1[0] == CSV_HEADER
    assert len(rows1) == 3
    assert _strip_seconds(rows1) == _strip_seconds(rows2)


def test_table_rows_match_independent_dof_recount():
    spec = ExperimentSpec(model="A", nh_list=(16,), cells_list=(1,), solvers=("cg",))
    rows = run_table(spec, "refinement")
    cells = rows[1].split(",")
    n, n0, n_gamma = int(cells[9]), int(cells[10]), int(cells[11])
    mesh = build_mesh(16)
    dofmap = build_dofmap(mesh, label_model_a(mesh, 1))
    assert (n, n0, n_gamma) == (dofmap.n, dofmap.n0, dofmap.n_gamma)
    assert int(cells[6]) >= 1  # iterations on success


def test_empty_solver_list_gives_header_only():
    spec = ExperimentSpec(model="A", nh_list=(8,), cells_list=(1,), solvers=())
    rows = run_table(spec, "refinement")
    assert rows == [CSV_HEADER]


def test_tau_table_single_value():
    spec = ExperimentSpec(
        model="A", nh_list=(16,), cells_list=(1,), tau_list=(0.05,), solvers=("cg", "amg")
    )
    rows = run_table(spec, "tau")
    assert len(rows) == 3
    assert all(",0.05," in row for row in rows[1:])


def test_table_rejects_a_list_it_does_not_sweep(monkeypatch):
    """The unswept lists hold one value each; the check comes before any build."""
    monkeypatch.setattr(harness, "build_mesh", lambda nh: pytest.fail("a mesh was built"))
    spec = ExperimentSpec(model="A", nh_list=(16,), cells_list=(1,), tau_list=(0.01, 1.0))
    with pytest.raises(ConfigError, match="expected one tau value, got 2"):
        run_table(spec, "refinement")


def test_tau_table_rejects_model_b():
    spec = ExperimentSpec(model="B", nh_list=(16,), cells_list=(1,), solvers=("cg",))
    with pytest.raises(ConfigError):
        run_table(spec, "tau")


def test_cells_table_geometry_only_densest_case():
    """Membrane share of the finest-grid, most-crowded partition."""
    spec = ExperimentSpec(
        model="A", nh_list=(1024,), cells_list=(116281,), solvers=("geometry",)
    )
    rows = run_table(spec, "cells")
    cells = rows[1].split(",")
    n, n_gamma = int(cells[9]), int(cells[11])
    assert round(n_gamma / n, 3) == 0.470


def test_cells_table_multiple_counts():
    spec = ExperimentSpec(
        model="A", nh_list=(32,), cells_list=(1, 25), solvers=("cg",)
    )
    rows = run_table(spec, "cells")
    assert len(rows) == 3
    assert rows[1].split(",")[1] == "1"
    assert rows[2].split(",")[1] == "25"


def test_failed_run_recorded_in_row():
    spec = ExperimentSpec(
        model="A", nh_list=(16,), cells_list=(1,), solvers=("cg",), maxiter=2
    )
    rows = run_table(spec, "refinement")
    cells = rows[1].split(",")
    assert cells[6] == "-1"  # not converged within two iterations


def test_failed_solve_reports_its_cause(monkeypatch, capsys):
    """A solver that raises gives the -1 row, and one stderr line names the cause."""

    def stagnate(matrix):
        raise AmgError("aggregation stagnated: 289 -> 280 aggregates")

    monkeypatch.setattr(harness, "amg_build", stagnate)
    spec = ExperimentSpec(model="A", nh_list=(16,), cells_list=(1,), solvers=("amg",))
    rows = run_table(spec, "refinement")
    assert len(rows) == 2
    assert rows[1].split(",")[6:9] == ["-1", "nan", "0.000"]
    captured = capsys.readouterr()
    assert captured.err == (
        "A/16/1/0.01 amg: AmgError: aggregation stagnated: 289 -> 280 aggregates\n"
    )
    assert captured.out == ""


def test_spectral_suite_distances_decrease():
    """The suite's own reports shrink toward the symbols under refinement."""
    spec = ExperimentSpec(model="A", nh_list=(8, 16), cells_list=(1,))
    results = run_spectral_suite(spec)
    for kind in ("scaled", "szego"):
        coarse, fine = (rep.quantile_distance for _, rep in results[kind])
        assert fine < coarse
    frac = [rep["fraction_above"] for _, rep in results["offdiag_zero"]]
    bound = [rep["bound"] for _, rep in results["offdiag_zero"]]
    assert all(f <= b for f, b in zip(frac, bound))
    out_coarse, out_fine = (
        rep.outlier_count / rep.matrix_size for _, rep in results["preconditioned"]
    )
    assert out_fine < out_coarse


def test_spectral_suite_outputs(tmp_path):
    spec = ExperimentSpec(
        model="A", nh_list=(8,), cells_list=(1,), solvers=("cg",), outdir=str(tmp_path)
    )
    results = run_spectral_suite(spec)
    assert set(results) == {"scaled", "offdiag_zero", "preconditioned", "szego"}
    nh, zero_stats = results["offdiag_zero"][0]
    assert zero_stats["fraction_above"] <= zero_stats["bound"]
    assert (tmp_path / "spectra_summary.json").exists()
    assert (tmp_path / "spectra_scaled_nh8.csv").exists()
    lines = (tmp_path / "spectra_scaled_nh8.csv").read_text().splitlines()
    assert lines[0] == "eigenvalue_quantile,symbol_quantile"
    assert len(lines) > 10


def test_spectral_suite_builds_no_pinned_system(monkeypatch):
    """The suite reads the unpinned system only: it neither builds a Case nor pins."""
    monkeypatch.setattr(harness, "build_case", lambda *a, **k: pytest.fail("a case was built"))
    monkeypatch.setattr(harness, "pin_nullspace", lambda *a: pytest.fail("a system was pinned"))
    results = run_spectral_suite(ExperimentSpec(model="B", nh_list=(16,), cells_list=(4,)))
    reports = [rep for entries in results.values() for _, rep in entries]
    assert len(reports) == 4
    assert not any(isinstance(rep, dict) and "error" in rep for rep in reports)


def test_spectral_suite_szego_check_uses_the_kronecker_sum(monkeypatch):
    """The Szego report is that of the Kronecker-sum spectrum, and the
    harness eigensolves no nh^2 x nh^2 matrix: the Toeplitz matrix is never
    densified."""
    sizes = []
    original = harness.eig_rearranged
    monkeypatch.setattr(
        harness, "eig_rearranged", lambda M, *a: sizes.append(M.shape[0]) or original(M, *a)
    )
    results = run_spectral_suite(ExperimentSpec(model="A", nh_list=(16, 32), cells_list=(1,)))
    assert sizes and not {16 * 16, 32 * 32} & set(sizes)
    f = spectral.p1_laplacian_symbol()
    for nh, rep in results["szego"]:
        want = spectral.distribution_distance(spectral.toeplitz_eigenvalues(f, (nh, nh)), f)
        assert rep.eig_quantiles.tobytes() == want.eig_quantiles.tobytes()
        assert rep.matrix_size == nh * nh


def test_spectral_suite_integrates_each_symbol_once(monkeypatch):
    """The suite's symbols come from cached factories, so their integrals
    are computed at most once per process, not on every suite call."""
    calls = []
    original = spectral._symbol_integral_averages
    monkeypatch.setattr(
        spectral, "_symbol_integral_averages", lambda *a: calls.append(a) or original(*a)
    )
    spec = ExperimentSpec(model="A", nh_list=(8,), cells_list=(1,))
    run_spectral_suite(spec)
    first = len(calls)
    run_spectral_suite(spec)
    assert first <= 2 and len(calls) == first


def _pencil(model, nh, n_cells):
    """The pair (A, P) of the suite's ``preconditioned`` check."""
    case = build_case(model, nh, n_cells, 0.01, 1e-4)
    return build_system(case.operators).matrix, blockdiag_matrix(case.operators, 1e-4)


def _csr_snapshot(*matrices):
    return [(M.data.tobytes(), M.indices.tobytes(), M.indptr.tobytes()) for M in matrices]


@pytest.mark.parametrize("model,nh,n_cells", [("A", 32, 1), ("B", 16, 4)])
def test_pencil_spectrum_bitwise_matches_potrf_sygst_evd(model, nh, n_cells):
    """The pencil's spectrum is bitwise the evd spectrum of L^-1 A L^-T as
    dpotrf and dsygst form it, and the sparse inputs are left as they were."""
    A, P = _pencil(model, nh, n_cells)
    before = _csr_snapshot(A, P)
    eigs = eig_rearranged(A, P)
    L, info = la.lapack.dpotrf(P.toarray(), lower=1)
    assert info == 0
    C, info = la.lapack.dsygst(A.toarray(), L, itype=1, lower=1)
    assert info == 0
    expected = la.eigh(C, lower=True, driver="evd", eigvals_only=True)
    assert eigs.dtype == expected.dtype and eigs.tobytes() == expected.tobytes()
    assert _csr_snapshot(A, P) == before


@pytest.mark.parametrize("model,nh,n_cells", [("A", 32, 1), ("B", 16, 4)])
def test_pencil_spectrum_matches_generalized_eigh(model, nh, n_cells):
    """The reduction agrees with scipy's generalized solver to rounding."""
    A, P = _pencil(model, nh, n_cells)
    expected = la.eigh(A.toarray(), P.toarray(), eigvals_only=True)
    eigs = eig_rearranged(A, P)
    assert np.abs(eigs - expected).max() <= 1e-13 * np.abs(expected).max()


def test_eig_rearranged_pencil_memory_a32():
    """The two dense copies that LAPACK reduces in place, not the four n x n
    arrays of a copying call."""
    A, P = _pencil("A", 32, 1)
    n = A.shape[0]
    tracemalloc.start()
    try:
        eig_rearranged(A, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * n * n


@pytest.mark.parametrize("model,nh,n_cells", [("A", 16, 1), ("A", 32, 1), ("B", 16, 4), ("B", 16, 16)])
def test_offdiag_record_matches_full_spectrum(model, nh, n_cells):
    """The support eigensolve reports what the full n x n spectrum gives."""
    spec = ExperimentSpec(model=model, nh_list=(nh,), cells_list=(n_cells,))
    _, record = run_spectral_suite(spec)["offdiag_zero"][0]
    case = build_case(model, nh, n_cells, spec.tau_list[0], spec.eps)
    system = build_system(case.operators)
    offdiag = (system.matrix - block_diagonal(system)).tocsr()
    full = eig_rearranged(offdiag)
    n = system.n
    delta = 1e-10 * float(np.abs(system.matrix).sum(axis=1).max())
    assert record == {
        "fraction_above": float(np.count_nonzero(np.abs(full) > delta)) / n,
        "bound": 2.0 * system.dofmap.n_gamma / n,
        "delta": delta,
        "n": n,
    }
    offdiag.eliminate_zeros()
    rows = np.flatnonzero(np.diff(offdiag.indptr))
    on_support = eig_rearranged(offdiag[rows][:, rows])
    nonzero = np.sort(full[np.argsort(np.abs(full), kind="stable")[n - len(rows):]])
    scale = np.abs(full).max()
    assert np.allclose(on_support, nonzero, rtol=0.0, atol=1e-12 * scale)


def test_offdiag_record_without_cells_is_zero():
    """No cells, no off-diagonal part: the support is empty and so is the spectrum."""
    spec = ExperimentSpec(model="A", nh_list=(8,), cells_list=(0,))
    _, record = run_spectral_suite(spec)["offdiag_zero"][0]
    assert record["fraction_above"] == 0.0
    assert record["bound"] == 0.0


def test_build_case_pins_system():
    case = build_case("A", 16, 1, 0.01)
    assert case.system.pinned_dof is not None
    assert build_system(case.operators).pinned_dof is None


@pytest.mark.parametrize("model", ["C", "a", None])
def test_build_case_rejects_unknown_model(model):
    """Only "A" and "B" name a labeler; anything else is a GeometryError."""
    with pytest.raises(GeometryError, match="unknown model"):
        build_case(model, 16, 4, 1e-2)
    assert build_case("B", 16, 4, 1e-2).system.model == "B"


# Bytes that tracemalloc still traces after a call, over the pinned system's
# CSR bytes, at A/128/441 and tau 1e-5 (the AMG interface basis is on).
# SuperLU's own allocations are not traced: the caps bound what is kept
# beside the factors.
MEMORY_CASE = ("A", 128, 441, 1e-5)


def _held_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held


def _csr_bytes(m):
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def test_build_case_memory_a128():
    """A case keeps the pinned system and the operators, no unpinned twin."""
    case, held = _held_bytes(lambda: build_case(*MEMORY_CASE))
    assert held <= 4.8 * _csr_bytes(case.system.matrix)


@pytest.mark.parametrize("solver, cap", [("ilu", 0.25), ("amg", 4.0)])
def test_preconditioner_memory_a128(solver, cap):
    """The triangle factors are the only copy of the ILU and Gauss-Seidel triangles."""
    case = build_case(*MEMORY_CASE)
    _, held = _held_bytes(lambda: harness._build_preconditioner(case, solver, 1e-4))
    assert held <= cap * _csr_bytes(case.system.matrix)


def test_amg_basis_gate():
    """Tiny time steps switch the multilevel build to the interface basis."""
    from emilab.harness import _build_preconditioner, _membrane_mass_dominates, solve_case

    moderate = build_case("A", 32, 1, 0.01)
    assert not _membrane_mass_dominates(moderate)
    assert _build_preconditioner(moderate, "amg", 1e-4).basis is None

    stiff = build_case("A", 32, 1, 1e-5)
    assert _membrane_mass_dominates(stiff)
    prec = _build_preconditioner(stiff, "amg", 1e-4)
    assert prec.basis is not None
    report, _ = solve_case(stiff, "amg", 1e-9, 1000, 1e-4)
    assert report.converged
    assert report.iterations <= 40


def test_amg_interface_basis_at_paper_scale():
    """A/256/7225 at tau 1e-5: the first level aggregates only the average
    channels, so the Galerkin operators stay sparse and the count stays low."""
    case = build_case("A", 256, 7225, 1e-5)
    prec = harness._build_preconditioner(case, "amg", 1e-4)
    assert prec.basis is not None
    h = prec.hierarchy
    stored = sum(lvl.matrix.nnz for lvl in h.levels) + h.sizes[-1] ** 2
    assert stored / h.levels[0].matrix.nnz <= 1.5
    _, report = cg_solve(case.system.matrix, case.system.rhs, SolverConfig(tol=1e-9), M=prec)
    assert report.converged
    assert report.iterations <= 12


# ---------------------------------------------------------------------------
# CLI


def test_cli_mesh(capsys):
    code = main(["mesh", "--model", "A", "--nh", "16", "--cells", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n=321" in out and "nGamma=32" in out


def test_cli_mesh_export(tmp_path, capsys):
    out_file = tmp_path / "mesh.txt"
    code = main(["mesh", "--nh", "8", "--cells", "1", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    n_verts, n_tris = map(int, lines[0].split())
    assert n_verts == 81 and n_tris == 128
    assert len(lines) == 1 + n_verts + n_tris
    # triangle lines end with the subdomain id
    assert lines[-1].split()[-1] in {"0", "1"}


def test_cli_geometry_error_exit_code(capsys):
    code = main(["mesh", "--nh", "12", "--cells", "1"])
    assert code == 2


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    code = main(["table", "--kind", "refinement", "--config", str(cfg)])
    assert code == 2


def test_cli_non_finite_tau_exit_code(capsys):
    code = main(["solve", "--model", "A", "--nh", "8", "--cells", "1", "--tau", "nan"])
    assert code == 2


def test_cli_solve_and_csv(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    code = main(
        ["solve", "--model", "A", "--nh", "16", "--cells", "1", "--solver", "amg",
         "--csv", str(csv)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out
    body = csv.read_text().splitlines()
    assert body[0] == CSV_HEADER
    assert len(body) == 2


def test_cli_solver_failure_exit_code(capsys):
    code = main(
        ["solve", "--model", "A", "--nh", "16", "--cells", "1", "--maxiter", "3"]
    )
    assert code == 3


def test_cli_assemble_export_roundtrip(tmp_path, capsys):
    mm = tmp_path / "system.mtx"
    code = main(
        ["assemble", "--model", "A", "--nh", "8", "--cells", "1",
         "--export-mm", str(mm)]
    )
    assert code == 0
    A = read_matrix_market(mm)
    rhs = read_vector(str(mm) + ".rhs.txt")
    assert A.shape[0] == rhs.shape[0]
    assert abs(A - A.T).max() == 0.0
    header = mm.read_text().splitlines()[0]
    assert "symmetric" in header
    case = build_case("A", 8, 1, 0.01)
    assert abs(A - case.system.matrix).max() <= 1e-12


def test_operator_export_roundtrip(tmp_path):
    """Every assembled block is exportable; rectangular blocks go out general."""
    case = build_case("A", 16, 1, 0.01)
    ops = case.operators
    for name, mat in (
        ("stiffness", ops.dofmap.block(ops.stiffness, 1)),
        ("membrane", ops.dofmap.block(ops.membrane_mass, 1)),
        ("coupling", ops.dofmap.block(ops.coupling, 0, 1)),
    ):
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(mat, path)
        back = read_matrix_market(path)
        assert abs(back - mat).max() <= 1e-15
    assert "general" in (tmp_path / "coupling.mtx").read_text().splitlines()[0]


def test_matrix_market_square_nonsymmetric_goes_out_general(tmp_path):
    """A square gap-junction block is not symmetric: no half of it may be lost."""
    case = build_case("B", 16, 4, 0.01)
    block = case.dofmap.block(case.operators.coupling, 1, 2)
    assert block.shape == (49, 49) and (block != block.T).nnz > 0
    path = tmp_path / "gap.mtx"
    write_matrix_market(block, path)
    assert "general" in path.read_text().splitlines()[0]
    assert (read_matrix_market(path) != block).nnz == 0
    # the pinned system matrix is symmetric and keeps the compact header
    write_matrix_market(case.system.matrix, path)
    assert "symmetric" in path.read_text().splitlines()[0]
    assert (read_matrix_market(path) != case.system.matrix).nnz == 0


def test_cli_solve_imported_system(tmp_path, capsys):
    mm = tmp_path / "system.mtx"
    csv = tmp_path / "runs.csv"
    main(["assemble", "--model", "A", "--nh", "8", "--cells", "1", "--export-mm", str(mm)])
    code = main(
        ["solve", "--import-mm", str(mm), "--import-rhs", str(mm) + ".rhs.txt",
         "--model", "B", "--tau", "0.5", "--eps", "0.3", "--csv", str(csv)]
    )
    assert code == 0
    # model, tau and eps flags do not describe an imported system
    assert csv.read_text().splitlines()[1].startswith(",0,0,,,cg,")


def test_cli_solve_imported_system_rejects_preconditioner(tmp_path, capsys):
    """An imported system has no blocks to precondition: only plain cg runs."""
    mm = tmp_path / "system.mtx"
    csv = tmp_path / "runs.csv"
    main(["assemble", "--model", "A", "--nh", "8", "--cells", "1", "--export-mm", str(mm)])
    code = main(["solve", "--import-mm", str(mm), "--solver", "amg", "--csv", str(csv)])
    assert code == 2
    assert "plain cg" in capsys.readouterr().err
    assert not csv.exists()


def _tridiagonal(n=5):
    return sp.diags([-np.ones(n - 1), 4 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")


def _with_entry(value):
    A = _tridiagonal().tolil()
    A[2, 2] = value
    return A.tocsr()


# an imported matrix and rhs (None: the default ones) that CG cannot take
_BAD_IMPORTS = {
    "non-square": (sp.csr_matrix(np.ones((5, 4))), None),
    "nan-entry": (_with_entry(np.nan), None),
    "inf-entry": (_with_entry(np.inf), None),
    "nan-rhs": (_tridiagonal(), np.array([1.0, 1.0, np.nan, 1.0, 1.0])),
    "inf-rhs": (_tridiagonal(), np.array([1.0, -np.inf, 1.0, 1.0, 1.0])),
    "short-rhs": (_tridiagonal(), np.ones(3)),
}


@pytest.mark.parametrize("name", list(_BAD_IMPORTS))
def test_cli_solve_rejects_bad_imported_system(tmp_path, capsys, name):
    """An imported system CG cannot solve exits 2 before CG and writes no CSV row."""
    A, rhs = _BAD_IMPORTS[name]
    mm = tmp_path / "system.mtx"
    csv = tmp_path / "runs.csv"
    write_matrix_market(A, mm)
    argv = ["solve", "--import-mm", str(mm), "--csv", str(csv)]
    if rhs is not None:
        write_vector(tmp_path / "rhs.txt", rhs)
        argv += ["--import-rhs", str(tmp_path / "rhs.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: imported ")
    assert not csv.exists()


# a file the subcommand cannot read or write
_FILE_ERRORS = {
    "missing-config": ["table", "--config", "{tmp}/none.cfg"],
    "missing-mtx": ["solve", "--import-mm", "{tmp}/none.mtx"],
    "missing-rhs": ["solve", "--import-mm", "{mm}", "--import-rhs", "{tmp}/none.txt"],
    "mesh-out": ["mesh", "--nh", "8", "--cells", "1", "--out", "{tmp}/none/mesh.txt"],
    "export-mm": ["assemble", "--nh", "8", "--cells", "1", "--export-mm", "{tmp}/none/s.mtx"],
    "solve-csv": ["solve", "--import-mm", "{mm}", "--csv", "{tmp}/none/runs.csv"],
    "table-csv": ["table", "--nh", "8", "--cells", "1", "--solver", "geometry",
                  "--csv", "{tmp}/none/table.csv"],
    "outdir-is-a-file": ["table", "--nh", "8", "--cells", "1", "--solver", "geometry",
                         "--outdir", "{mm}"],
}


@pytest.mark.parametrize("name", list(_FILE_ERRORS))
def test_cli_file_system_error_exit_code(tmp_path, capsys, name):
    """A missing input file or an unwritable output path is a configuration error."""
    mm = tmp_path / "system.mtx"
    write_matrix_market(_tridiagonal(), mm)
    argv = [arg.format(tmp=tmp_path, mm=mm) for arg in _FILE_ERRORS[name]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


_IGNORED_FLAG_RUNS = {
    "solve-config": ["solve", "--config", "{cfg}"],
    "solve-rhs-without-import": ["solve", "--import-rhs", "{tmp}/x.txt", "--csv", "{out}"],
    "solve-import-and-export": ["solve", "--import-mm", "{tmp}/s.mtx", "--export-mm", "{out}"],
    "mesh-csv": ["mesh", "--nh", "8", "--csv", "{out}"],
    "mesh-outdir": ["mesh", "--nh", "8", "--outdir", "{out}"],
    "mesh-config": ["mesh", "--config", "{cfg}"],
    "mesh-tau": ["mesh", "--nh", "8", "--tau", "0.1"],
    "mesh-nh-list": ["mesh", "--nh", "8,16", "--out", "{out}"],
    "assemble-tol": ["assemble", "--nh", "8", "--tol", "1e-6"],
    # the assembled system does not depend on eps
    "assemble-eps": ["assemble", "--model", "B", "--nh", "16", "--cells", "4", "--eps", "0.5",
                     "--export-mm", "{out}"],
    # assemble --export-mm is the one export of the pinned system
    "solve-export": ["solve", "--nh", "8", "--export-mm", "{out}"],
    "spectra-csv": ["spectra", "--nh", "8", "--csv", "{out}"],
    "spectra-solver": ["spectra", "--nh", "8", "--solver", "amg"],
    "spectra-config-and-flag": ["spectra", "--config", "{cfg}", "--nh", "8", "--outdir", "{out}"],
    "table-config-and-solver": ["table", "--config", "{cfg}", "--solver", "amg", "--csv", "{out}"],
    # the spectral suite sweeps nh only: a second cell count or tau is an error
    "spectra-cells-list": ["spectra", "--nh", "16", "--cells", "1,25", "--outdir", "{out}"],
    "spectra-tau-list": ["spectra", "--nh", "16", "--tau", "0.01,1.0", "--outdir", "{out}"],
    "spectra-config-cells-list": ["spectra", "--config", "{cells_cfg}"],
    # a table sweeps one list: the other two hold one value each
    "table-cells-list": ["table", "--kind", "refinement", "--nh", "16", "--cells", "1,25",
                         "--solver", "geometry", "--csv", "{out}"],
    "table-tau-list": ["table", "--kind", "cells", "--cells", "1", "--tau", "0.01,1.0",
                       "--solver", "geometry", "--csv", "{out}"],
    "table-config-nh-list": ["table", "--kind", "cells", "--config", "{nh_cfg}"],
    # solve runs one solver, and geometry is not one it runs
    "solve-solver-list": ["solve", "--nh", "8", "--solver", "cg,amg", "--csv", "{out}"],
    "solve-geometry": ["solve", "--nh", "8", "--solver", "geometry", "--csv", "{out}"],
}


@pytest.mark.parametrize("name", list(_IGNORED_FLAG_RUNS))
def test_cli_rejects_flags_its_subcommand_ignores(tmp_path, capsys, name):
    """A flag the handler would not read exits 2 before anything is built or written."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text("model=B\nnh=16\ncells=4\n")
    out = tmp_path / "out"
    cells_cfg = tmp_path / "cells.cfg"
    cells_cfg.write_text(f"nh=16\ncells=1,25\noutdir={out}\n")
    nh_cfg = tmp_path / "nh.cfg"
    nh_cfg.write_text(f"nh=16,32\ncells=1\nsolvers=geometry\noutdir={out}\n")
    argv = [
        arg.format(cfg=cfg, cells_cfg=cells_cfg, nh_cfg=nh_cfg, tmp=tmp_path, out=out)
        for arg in _IGNORED_FLAG_RUNS[name]
    ]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: unknown flag or bad value
        code = exc.code
    assert code == 2
    assert not out.exists()


# config key, its flag, a value's text, and the spec field it sets to what
_PARAMETER_SPELLINGS = [
    ("model", "--model", "B", "model", "B"),
    ("nh", "--nh", "16,32", "nh_list", (16, 32)),
    ("cells", "--cells", "25", "cells_list", (25,)),
    ("tau", "--tau", "0.5, 1e-3", "tau_list", (0.5, 1e-3)),
    ("solvers", "--solver", "ilu,amg", "solvers", ("ilu", "amg")),
    ("eps", "--eps", "0.003", "eps", 0.003),
    ("tol", "--tol", "1e-6", "tol", 1e-6),
    ("maxiter", "--maxiter", "77", "maxiter", 77),
    ("outdir", "--outdir", "runs/a", "outdir", "runs/a"),
]


def test_parameter_spellings_cover_the_table():
    assert [key for key, *_ in _PARAMETER_SPELLINGS] == list(harness.PARAMETERS)


@pytest.mark.parametrize(
    "key,flag,text,field,value", _PARAMETER_SPELLINGS, ids=[s[0] for s in _PARAMETER_SPELLINGS]
)
def test_config_line_and_flag_give_the_same_spec(
    tmp_path, capsys, monkeypatch, key, flag, text, field, value
):
    specs = []
    monkeypatch.setattr(cli, "run_table", lambda spec, kind: specs.append(spec) or [CSV_HEADER])
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key}={text}\n")
    assert main(["table", "--config", str(cfg)]) == 0
    assert main(["table", flag, text]) == 0
    from_config, from_flag = specs
    assert from_config == from_flag == ExperimentSpec(**{field: value})


def test_cli_table(tmp_path, capsys):
    csv = tmp_path / "table.csv"
    code = main(
        ["table", "--kind", "refinement", "--model", "A", "--nh", "8,16",
         "--cells", "1", "--solver", "cg,amg", "--csv", str(csv)]
    )
    assert code == 0
    body = csv.read_text().splitlines()
    assert body[0] == CSV_HEADER
    assert len(body) == 5


def test_cli_spectra(capsys):
    code = main(["spectra", "--model", "A", "--nh", "8", "--cells", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "szego" in out and "scaled" in out


def test_cli_spectra_failed_check_exit_code(tmp_path, capsys, monkeypatch):
    """A check that records an error makes the run a solver failure."""

    def failing(M, *args, **kwargs):
        raise SpectralError("eigenpair residual 1.00e+00 exceeds 1e-08 * |A|")

    monkeypatch.setattr(harness, "eig_rearranged", failing)
    code = main(["spectra", "--model", "A", "--nh", "8", "--cells", "1", "--outdir", str(tmp_path)])
    assert code == 3
    assert "scaled nh=8: failed (SpectralError: eigenpair residual" in capsys.readouterr().out
    summary = json.loads((tmp_path / "spectra_summary.json").read_text())
    for kind in ("scaled", "preconditioned"):  # both go through harness.eig_rearranged
        assert summary[kind][0]["error"].startswith("SpectralError: eigenpair residual")


_ADMISSIBILITY = [
    ("A", 8, 1, True),
    ("A", 16, 25, True),
    ("A", 64, 441, True),
    ("A", 32, 0, True),
    ("A", 12, 1, False),  # nh not a power of two
    ("A", 2, 0, False),  # nh below 4
    ("A", 8, 25, False),  # scale 16 does not divide nh
    ("A", 16, 4, False),  # N not of the form ((4^k-1)/3)^2
    ("A", 16, 2, False),  # N not a square
    ("A", 16, -1, False),
    ("B", 16, 4, True),
    ("B", 16, 9, True),
    ("B", 64, 144, True),
    ("B", 8, 0, True),
    ("B", 4, 1, False),  # 8 does not divide nh
    ("B", 16, 25, False),  # sqrt(N) does not divide 3*nh/4
    ("B", 16, 2, False),  # N not a square
    ("B", 16, -4, False),
]


@pytest.mark.parametrize("model,nh,n_cells,admissible", _ADMISSIBILITY)
def test_spec_and_labelers_share_admissibility(model, nh, n_cells, admissible, capsys):
    label = label_model_a if model == "A" else label_model_b

    def spec():
        return ExperimentSpec(model=model, nh_list=(nh,), cells_list=(n_cells,))

    def labeling():
        return label(build_mesh(nh), n_cells)

    if admissible:
        spec()
        assert labeling().n_cells == n_cells
        return
    with pytest.raises(GeometryError) as from_spec:
        spec()
    with pytest.raises(GeometryError) as from_labeler:
        labeling()
    assert str(from_spec.value) == str(from_labeler.value)
    cli = ["mesh", "--model", model, "--nh", str(nh), f"--cells={n_cells}"]
    assert main(cli) == 2
