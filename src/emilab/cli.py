"""Command line front end.

Subcommands: mesh, assemble, solve, spectra, table.  Exit codes: 0 success,
2 configuration/geometry error, 3 solver failure (for spectra: a check that
recorded an error).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as eio
from .harness import (
    ConfigError,
    ExperimentSpec,
    _build_geometry,
    build_case,
    parse_config,
    run_spectral_suite,
    run_table,
    solve_case,
)
from .meshgen import GeometryError
from .solvers import SolverConfig, cg_solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _int_list(raw: str):
    return tuple(int(v) for v in raw.split(","))


def _float_list(raw: str):
    return tuple(float(v) for v in raw.split(","))


def _str_list(raw: str):
    return tuple(raw.split(","))


# the flags of the one problem that mesh, assemble and solve build
_CASE_FLAGS = {
    "--model": dict(choices=("A", "B"), default="A"),
    "--nh": dict(type=int, default=64),
    "--cells": dict(type=int, default=1),
    "--tau": dict(type=float, default=0.01),
    "--eps": dict(type=float, default=1e-4),
    "--tol": dict(type=float, default=1e-9),
    "--maxiter": dict(type=int, default=20000),
}

# the ExperimentSpec fields spectra and table take from flags: an unset flag
# leaves the spec's default, and a config file replaces all of them
_SPEC_FLAGS = {
    "--model": dict(dest="model", choices=("A", "B")),
    "--nh": dict(dest="nh_list", type=_int_list, help="comma separated sizes"),
    "--cells": dict(dest="cells_list", type=_int_list, help="comma separated cell counts"),
    "--tau": dict(dest="tau_list", type=_float_list, help="comma separated time constants"),
    "--eps": dict(dest="eps", type=float),
    "--tol": dict(dest="tol", type=float),
    "--maxiter": dict(dest="maxiter", type=int),
    "--solver": dict(dest="solvers", type=_str_list, help="comma separated solver list"),
    "--outdir": dict(dest="outdir", help="directory for suite outputs"),
}


def _add_flags(p: argparse.ArgumentParser, table: dict, *flags):
    for flag in flags:
        p.add_argument(flag, **table[flag])


def _spec_from_args(args) -> ExperimentSpec:
    given = {
        flag: getattr(args, kw["dest"])
        for flag, kw in _SPEC_FLAGS.items()
        if getattr(args, kw["dest"], None) is not None
    }
    if args.config:
        if given:
            raise ConfigError(f"--config sets the whole experiment; drop {', '.join(given)}")
        return parse_config(args.config)
    return ExperimentSpec(**{_SPEC_FLAGS[flag]["dest"]: value for flag, value in given.items()})


def _cmd_mesh(args) -> int:
    mesh, labeling, dofmap = _build_geometry(args.model, args.nh, args.cells)
    print(
        f"model {args.model} nh={mesh.nh} N={args.cells}: "
        f"n={dofmap.n} n0={dofmap.n0} n_in={dofmap.n_in} nGamma={dofmap.n_gamma} "
        f"(nGamma/n = {dofmap.n_gamma / dofmap.n:.3f})"
    )
    if args.out:
        eio.export_mesh_text(mesh, labeling, args.out)
        print(f"wrote mesh to {args.out}")
    return EXIT_OK


def _cmd_assemble(args) -> int:
    case = build_case(args.model, args.nh, args.cells, args.tau, args.eps)
    A = case.system.matrix
    asym = abs(A - A.T).max() if A.nnz else 0.0
    print(f"assembled n={A.shape[0]} nnz={A.nnz} |A - A^T|_max = {asym:.3e} (pinned)")
    if args.export_mm:
        eio.write_matrix_market(A, args.export_mm)
        eio.write_vector(str(args.export_mm) + ".rhs.txt", case.system.rhs)
        print(f"wrote {args.export_mm} and {args.export_mm}.rhs.txt")
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.import_rhs and not args.import_mm:
        raise ConfigError("--import-rhs is the right-hand side of an --import-mm system")
    if args.import_mm:
        if args.export_mm:
            raise ConfigError("--export-mm writes an assembled system, not an imported one")
        if args.solver != "cg":
            raise ConfigError(f"imported systems are solved with plain cg, not {args.solver}")
        A = eio.read_matrix_market(args.import_mm)
        rhs = (
            eio.read_vector(args.import_rhs)
            if args.import_rhs
            else np.ones(A.shape[0])
        )
        cfg = SolverConfig(tol=args.tol, maxiter=args.maxiter)
        _, report = cg_solve(A, rhs, cfg)
        seconds = report.wall_time
        dof_info = (A.shape[0], 0, 0)
        # no model, size, tau or eps describes an imported system
        problem = ("", 0, 0, None, None)
    else:
        case = build_case(args.model, args.nh, args.cells, args.tau, args.eps)
        report, seconds = solve_case(case, args.solver, args.tol, args.maxiter, args.eps)
        dof_info = (case.dofmap.n, case.dofmap.n0, case.dofmap.n_gamma)
        problem = (args.model, args.cells, args.nh, args.tau, args.eps)
        if args.export_mm:
            eio.write_matrix_market(case.system.matrix, args.export_mm)
            eio.write_vector(str(args.export_mm) + ".rhs.txt", case.system.rhs)
    status = "converged" if report.converged else "FAILED"
    print(
        f"{args.solver}: {report.iterations} iterations, "
        f"relres {report.final_rel_residual:.3e}, {seconds:.3f}s [{status}]"
    )
    if args.csv:
        row = eio.format_result_row(
            *problem, args.solver,
            report.iterations if report.converged else -1,
            report.final_rel_residual, seconds, *dof_info,
        )
        with open(args.csv, "a") as fh:
            fh.write(eio.CSV_HEADER + "\n" if fh.tell() == 0 else "")
            fh.write(row + "\n")
    return EXIT_OK if report.converged else EXIT_SOLVER


def _cmd_spectra(args) -> int:
    spec = _spec_from_args(args)
    results = run_spectral_suite(spec)
    failed = False
    for kind, entries in results.items():
        for nh, rep in entries:
            if isinstance(rep, dict) and "error" in rep:
                print(f"{kind} nh={nh}: failed ({rep['error']})")
                failed = True
            elif isinstance(rep, dict):
                print(
                    f"{kind} nh={nh}: fraction {rep['fraction_above']:.4f} "
                    f"<= bound {rep['bound']:.4f}"
                )
            else:
                print(
                    f"{kind} nh={nh}: quantile distance {rep.quantile_distance:.4f}, "
                    f"outliers {rep.outlier_count}"
                )
    return EXIT_SOLVER if failed else EXIT_OK


def _cmd_table(args) -> int:
    spec = _spec_from_args(args)
    rows = run_table(spec, args.kind)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    else:
        print("\n".join(rows))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emilab",
        description="Assemble, solve, and spectrally analyze cell-by-cell systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="build a mesh and report dof counts")
    _add_flags(p_mesh, _CASE_FLAGS, "--model", "--nh", "--cells")
    p_mesh.add_argument("--out", help="write a plain-text node/element file")

    p_asm = sub.add_parser("assemble", help="assemble the pinned global system")
    _add_flags(p_asm, _CASE_FLAGS, "--model", "--nh", "--cells", "--tau", "--eps")
    p_asm.add_argument("--export-mm", help="Matrix Market output path")

    p_solve = sub.add_parser("solve", help="assemble and solve one system")
    _add_flags(p_solve, _CASE_FLAGS, *_CASE_FLAGS)
    p_solve.add_argument("--solver", default="cg", choices=("cg", "ilu", "blockdiag", "amg"))
    p_solve.add_argument("--csv", help="append the result row to this path")
    p_solve.add_argument("--export-mm", help="Matrix Market output path")
    p_solve.add_argument("--import-mm", help="solve an imported Matrix Market system")
    p_solve.add_argument("--import-rhs", help="plain vector file for the imported system")

    p_spec = sub.add_parser("spectra", help="run the spectral verification suite")
    p_spec.add_argument("--config", help="flat key=value config file in place of the flags")
    _add_flags(p_spec, _SPEC_FLAGS, "--model", "--nh", "--cells", "--tau", "--eps", "--outdir")

    p_table = sub.add_parser("table", help="reproduce an iteration table")
    p_table.add_argument("--config", help="flat key=value config file in place of the flags")
    _add_flags(p_table, _SPEC_FLAGS, *_SPEC_FLAGS)
    p_table.add_argument("--kind", choices=("refinement", "tau", "cells"), default="refinement")
    p_table.add_argument("--csv", help="write the rows to this path")

    args = parser.parse_args(argv)
    handlers = {
        "mesh": _cmd_mesh,
        "assemble": _cmd_assemble,
        "solve": _cmd_solve,
        "spectra": _cmd_spectra,
        "table": _cmd_table,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, GeometryError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
