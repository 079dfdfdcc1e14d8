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
    PARAMETERS,
    ConfigError,
    _build_geometry,
    build_case,
    parse_config,
    run_spectral_suite,
    run_table,
    single_values,
    solve_case,
    spec_from_text,
)
from .meshgen import GeometryError
from .solvers import SolverConfig, cg_solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _add_parameters(p: argparse.ArgumentParser, *keys):
    # the flag's text is parsed with the config file's parser, in spec_from_text
    for key in keys:
        p.add_argument(PARAMETERS[key].flag, dest=key)


def _spec_from_args(args):
    given = {key: getattr(args, key) for key in PARAMETERS if getattr(args, key, None) is not None}
    if getattr(args, "config", None):
        if given:
            flags = ", ".join(PARAMETERS[key].flag for key in given)
            raise ConfigError(f"--config sets the whole experiment; drop {flags}")
        return parse_config(args.config)
    return spec_from_text(given)


def _cmd_mesh(args) -> int:
    spec = _spec_from_args(args)
    nh, n_cells = single_values(spec, "nh", "cells")
    mesh, labeling, dofmap = _build_geometry(spec.model, nh, n_cells)
    print(
        f"model {spec.model} nh={mesh.nh} N={n_cells}: "
        f"n={dofmap.n} n0={dofmap.n0} n_in={dofmap.n_in} nGamma={dofmap.n_gamma} "
        f"(nGamma/n = {dofmap.n_gamma / dofmap.n:.3f})"
    )
    if args.out:
        eio.export_mesh_text(mesh, labeling, args.out)
        print(f"wrote mesh to {args.out}")
    return EXIT_OK


def _cmd_assemble(args) -> int:
    spec = _spec_from_args(args)
    case = build_case(spec.model, *single_values(spec, "nh", "cells", "tau"), spec.eps)
    A = case.system.matrix
    asym = abs(A - A.T).max() if A.nnz else 0.0
    print(f"assembled n={A.shape[0]} nnz={A.nnz} |A - A^T|_max = {asym:.3e} (pinned)")
    if args.export_mm:
        eio.write_matrix_market(A, args.export_mm)
        eio.write_vector(str(args.export_mm) + ".rhs.txt", case.system.rhs)
        print(f"wrote {args.export_mm} and {args.export_mm}.rhs.txt")
    return EXIT_OK


def _cmd_solve(args) -> int:
    spec = _spec_from_args(args)
    nh, n_cells, tau, solver = single_values(spec, "nh", "cells", "tau", "solvers")
    if solver == "geometry":
        raise ConfigError("solve runs cg, ilu, blockdiag or amg; geometry is a table-only solver")
    if args.import_rhs and not args.import_mm:
        raise ConfigError("--import-rhs is the right-hand side of an --import-mm system")
    if args.import_mm:
        if args.export_mm:
            raise ConfigError("--export-mm writes an assembled system, not an imported one")
        if solver != "cg":
            raise ConfigError(f"imported systems are solved with plain cg, not {solver}")
        A = eio.read_matrix_market(args.import_mm)
        rhs = (
            eio.read_vector(args.import_rhs)
            if args.import_rhs
            else np.ones(A.shape[0])
        )
        cfg = SolverConfig(tol=spec.tol, maxiter=spec.maxiter)
        _, report = cg_solve(A, rhs, cfg)
        seconds = report.wall_time
        dof_info = (A.shape[0], 0, 0)
        # no model, size, tau or eps describes an imported system
        problem = ("", 0, 0, None, None)
    else:
        case = build_case(spec.model, nh, n_cells, tau, spec.eps)
        report, seconds = solve_case(case, solver, spec.tol, spec.maxiter, spec.eps)
        dof_info = (case.dofmap.n, case.dofmap.n0, case.dofmap.n_gamma)
        problem = (spec.model, n_cells, nh, tau, spec.eps)
        if args.export_mm:
            eio.write_matrix_market(case.system.matrix, args.export_mm)
            eio.write_vector(str(args.export_mm) + ".rhs.txt", case.system.rhs)
    status = "converged" if report.converged else "FAILED"
    print(
        f"{solver}: {report.iterations} iterations, "
        f"relres {report.final_rel_residual:.3e}, {seconds:.3f}s [{status}]"
    )
    if args.csv:
        row = eio.format_result_row(
            *problem, solver,
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
    _add_parameters(p_mesh, "model", "nh", "cells")
    p_mesh.add_argument("--out", help="write a plain-text node/element file")

    p_asm = sub.add_parser("assemble", help="assemble the pinned global system")
    _add_parameters(p_asm, "model", "nh", "cells", "tau", "eps")
    p_asm.add_argument("--export-mm", help="Matrix Market output path")

    p_solve = sub.add_parser("solve", help="assemble and solve one system")
    _add_parameters(p_solve, "model", "nh", "cells", "tau", "eps", "tol", "maxiter", "solvers")
    p_solve.add_argument("--csv", help="append the result row to this path")
    p_solve.add_argument("--export-mm", help="Matrix Market output path")
    p_solve.add_argument("--import-mm", help="solve an imported Matrix Market system")
    p_solve.add_argument("--import-rhs", help="plain vector file for the imported system")

    p_spec = sub.add_parser("spectra", help="run the spectral verification suite")
    p_spec.add_argument("--config", help="flat key=value config file in place of the flags")
    _add_parameters(p_spec, "model", "nh", "cells", "tau", "eps", "outdir")

    p_table = sub.add_parser("table", help="reproduce an iteration table")
    p_table.add_argument("--config", help="flat key=value config file in place of the flags")
    _add_parameters(p_table, *PARAMETERS)
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
