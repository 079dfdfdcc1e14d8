"""Experiment driver: parameters, solver tables, spectral suite, CSV output.

``PARAMETERS`` spells and parses each experiment parameter for config files
and the CLI alike.  A table run sweeps one list (nh, tau or the cell count),
takes the single value of the other two (``single_values``) and runs one
pipeline: build the mesh and partition, assemble operators, pin the
nullspace, then time one solve per requested solver.  Rows carry the dof
bookkeeping next to the iteration counts so a table is self-describing;
failed runs are recorded in-row with -1 iterations, their cause goes to
stderr, and the run continues.
Reruns of the same spec are byte-identical except for the wall-time column.
"""

from __future__ import annotations

import json
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as la  # not called here: perfbench/tracing.py wraps harness.la

from . import io as eio
from .fem import OperatorSet, ProblemConfig, assemble_operators
from .meshgen import (
    DofMap,
    GeometryError,
    build_dofmap,
    build_mesh,
    check_compatible,
    label_model_a,
    label_model_b,
)
from .solvers import (
    AmgPreconditioner,
    SolverConfig,
    amg_build,
    blockdiag_matrix,
    blockdiag_prec,
    cg_solve,
    ilu0_factor,
)
from .spectral import (
    constant_symbol,
    distribution_distance,
    eig_rearranged,
    p1_laplacian_symbol,
    toeplitz_from_symbol,
)
from .system import (
    BlockSystem,
    build_scaled,
    build_system,
    interface_basis,
    pin_nullspace,
    vertex_channels,
)

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "PARAMETERS",
    "SOLVER_NAMES",
    "parse_config",
    "single_values",
    "build_case",
    "solve_case",
    "run_table",
    "run_spectral_suite",
]

SOLVER_NAMES = ("cg", "ilu", "blockdiag", "amg", "geometry")
AMG_BASIS_MASS_RATIO = 10.0  # membrane over scaled stiffness diagonal that gates the amg basis


class ConfigError(ValueError):
    """Raised for malformed experiment specifications."""


@dataclass(frozen=True)
class ExperimentSpec:
    model: str = "A"
    nh_list: tuple = (64,)
    cells_list: tuple = (1,)
    tau_list: tuple = (0.01,)
    solvers: tuple = ("cg",)
    eps: float = 1e-4
    tol: float = 1e-9
    maxiter: int = 20000
    outdir: str | None = None

    def __post_init__(self):
        if self.model not in ("A", "B"):
            raise ConfigError(f"unknown model {self.model!r}")
        for solver in self.solvers:
            if solver not in SOLVER_NAMES:
                raise ConfigError(f"unknown solver {solver!r}")
        if any(not (t > 0) or not np.isfinite(t) for t in self.tau_list):
            raise ConfigError("all tau values must be positive and finite")
        for name in ("eps", "tol"):
            value = getattr(self, name)
            if not (value > 0) or not np.isfinite(value):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.maxiter <= 0:
            raise ConfigError("maxiter must be positive")
        for nh in self.nh_list:
            for n_cells in self.cells_list:
                check_compatible(self.model, int(nh), int(n_cells))


def _list_of(item):
    return lambda raw: tuple(item(v.strip()) for v in raw.split(","))


# config key -> ExperimentSpec field, command-line flag, parser of the text;
# a list value is comma separated, e.g. nh=8,16,32
Parameter = namedtuple("Parameter", "field flag parse")
PARAMETERS = {
    "model": Parameter("model", "--model", str),
    "nh": Parameter("nh_list", "--nh", _list_of(int)),
    "cells": Parameter("cells_list", "--cells", _list_of(int)),
    "tau": Parameter("tau_list", "--tau", _list_of(float)),
    "solvers": Parameter("solvers", "--solver", _list_of(str)),
    "eps": Parameter("eps", "--eps", float),
    "tol": Parameter("tol", "--tol", float),
    "maxiter": Parameter("maxiter", "--maxiter", int),
    "outdir": Parameter("outdir", "--outdir", str),
}


def spec_from_text(text: dict) -> ExperimentSpec:
    """The spec whose given parameters are ``{config key: text}``; the rest keep defaults."""
    fields = {}
    for key, raw in text.items():
        try:
            fields[PARAMETERS[key].field] = PARAMETERS[key].parse(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {raw.strip()!r} ({exc})") from exc
    return ExperimentSpec(**fields)


def parse_config(path) -> ExperimentSpec:
    """Flat key=value config, one parameter per line; a repeated key is an error."""
    text = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in PARAMETERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in text:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        text[key] = raw
    try:
        return spec_from_text(text)
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc


def single_values(spec: ExperimentSpec, *keys) -> tuple:
    """The one value of each list parameter named by config key; ConfigError otherwise."""
    for key in keys:
        given = getattr(spec, PARAMETERS[key].field)
        if len(given) != 1:
            raise ConfigError(f"expected one {key} value, got {len(given)}: {given}")
    return tuple(getattr(spec, PARAMETERS[key].field)[0] for key in keys)


@dataclass
class Case:
    """One assembled and pinned problem instance."""

    dofmap: DofMap
    operators: OperatorSet
    system: BlockSystem  # pinned


def _build_geometry(model: str, nh: int, n_cells: int):
    labelers = {"A": label_model_a, "B": label_model_b}
    if model not in labelers:
        raise GeometryError(f"unknown model {model!r}; expected 'A' or 'B'")
    mesh = build_mesh(nh)
    labeling = labelers[model](mesh, n_cells)
    return mesh, labeling, build_dofmap(mesh, labeling)


def _build_operators(model: str, nh: int, n_cells: int, tau: float, eps: float) -> OperatorSet:
    mesh, labeling, dofmap = _build_geometry(model, nh, n_cells)
    return assemble_operators(mesh, labeling, dofmap, ProblemConfig(tau=tau, epsilon=eps))


def build_case(model: str, nh: int, n_cells: int, tau: float, eps: float = 1e-4) -> Case:
    operators = _build_operators(model, nh, n_cells, tau, eps)
    return Case(operators.dofmap, operators, pin_nullspace(build_system(operators)))


def _membrane_mass_dominates(case: Case) -> bool:
    """True when the membrane mass dwarfs the scaled stiffness on the diagonal.

    In that regime, point relaxation in nodal variables cannot see the
    curvature of trace-continuous modes, so the multilevel preconditioner is
    built in the interface average/difference basis instead.
    """
    dofmap = case.dofmap
    ops = case.operators
    mem = dofmap.is_membrane
    if not mem.any():
        return False
    mass = ops.membrane_mass.diagonal()[mem]
    stiff = ops.config.tau_per_dof(dofmap.block_sizes)[mem] * ops.stiffness.diagonal()[mem]
    return float(np.median(mass)) >= AMG_BASIS_MASS_RATIO * float(np.median(stiff))


def _build_preconditioner(case: Case, solver: str, eps: float):
    if solver == "cg":
        return None
    if solver == "ilu":
        return ilu0_factor(case.system.matrix)
    if solver == "blockdiag":
        return blockdiag_prec(case.operators, eps=eps)
    if solver == "amg":
        if _membrane_mass_dominates(case):
            basis = interface_basis(case.dofmap)
            transformed = (basis.T @ case.system.matrix @ basis).tocsr()
            # the jump channels are mass-dominated and smoothed by relaxation
            # alone, so the coarse space only spans the average channels
            _, average = vertex_channels(case.dofmap)
            return AmgPreconditioner(amg_build(transformed, cover=average), basis=basis)
        return AmgPreconditioner(amg_build(case.system.matrix))
    raise ConfigError(f"unknown solver {solver!r}")


def solve_case(case: Case, solver: str, tol: float, maxiter: int, eps: float):
    """Run one solver on a pinned case; returns (report, seconds)."""
    t0 = time.perf_counter()
    M = _build_preconditioner(case, solver, eps)
    cfg = SolverConfig(tol=tol, maxiter=maxiter)
    _, report = cg_solve(case.system.matrix, case.system.rhs, cfg, M=M)
    return report, time.perf_counter() - t0


def _result_row(spec, case: Case | None, dofmap: DofMap, nh, n_cells, tau, solver) -> str:
    iterations, relres, seconds = 0, 0.0, 0.0  # a geometry row carries dofs only
    if solver != "geometry":
        try:
            report, seconds = solve_case(case, solver, spec.tol, spec.maxiter, spec.eps)
            iterations = report.iterations if report.converged else -1
            relres = report.final_rel_residual
        except Exception as exc:
            iterations, relres, seconds = -1, float("nan"), 0.0
            print(
                f"{spec.model}/{nh}/{n_cells}/{tau:g} {solver}: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
    return eio.format_result_row(
        spec.model, n_cells, nh, tau, spec.eps, solver,
        iterations, relres, seconds, dofmap.n, dofmap.n0, dofmap.n_gamma,
    )


_TABLE_AXES = {"refinement": "nh", "tau": "tau", "cells": "cells"}


def run_table(spec: ExperimentSpec, kind: str) -> list:
    """One row per (value, solver) along the axis named by ``kind``.

    ``refinement`` varies nh, ``tau`` the time constant (model A only) and
    ``cells`` the cell count; the other two lists must hold one value each.
    A run whose solvers are all ``geometry`` builds only the dof map.
    With ``spec.outdir`` the rows are also written to ``table_<kind>.csv``.
    """
    if kind not in _TABLE_AXES:
        raise ConfigError(f"unknown table kind {kind!r}")
    if kind == "tau" and spec.model != "A":
        raise ConfigError("the time-step table is defined for model A")
    axis = _TABLE_AXES[kind]
    fixed = [key for key in _TABLE_AXES.values() if key != axis]
    point = dict(zip(fixed, single_values(spec, *fixed)))
    geometry_only = all(solver == "geometry" for solver in spec.solvers)
    rows = [eio.CSV_HEADER]
    for value in getattr(spec, PARAMETERS[axis].field):
        point[axis] = value
        nh, n_cells, tau = int(point["nh"]), int(point["cells"]), float(point["tau"])
        if geometry_only:
            case, dofmap = None, _build_geometry(spec.model, nh, n_cells)[2]
        else:
            case = build_case(spec.model, nh, n_cells, tau, spec.eps)
            dofmap = case.dofmap
        for solver in spec.solvers:
            rows.append(_result_row(spec, case, dofmap, nh, n_cells, tau, solver))
    if spec.outdir:
        outdir = Path(spec.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"table_{kind}.csv").write_text("\n".join(rows) + "\n")
    return rows


def run_spectral_suite(spec: ExperimentSpec) -> dict:
    """Distribution reports over the nh list for one cell count and one tau.

    A spec with more than one cell count or tau value is a configuration
    error: the suite sweeps nh only.  Emits, per size: the scaled-matrix
    comparison against the stiffness symbol, the off-diagonal
    zero-distribution statistics (eigensolved on the rows the off-diagonal
    part touches, over the full n), the spectrum of the block-preconditioned
    matrix against the constant symbol, and a Toeplitz comparison of
    matching size.
    """
    n_cells, tau = single_values(spec, "cells", "tau")
    symbol = p1_laplacian_symbol()
    results = {"scaled": [], "offdiag_zero": [], "preconditioned": [], "szego": []}

    def record(kind, nh, compute):
        # eigensolve failures are recorded in place of the report
        try:
            results[kind].append((nh, compute()))
        except Exception as exc:
            results[kind].append((nh, {"error": f"{type(exc).__name__}: {exc}"}))

    for nh in spec.nh_list:
        nh = int(nh)
        # the suite reads the unpinned system only, so none is pinned
        operators = _build_operators(spec.model, nh, n_cells, tau, spec.eps)
        system = build_system(operators)
        n = system.n

        record(
            "scaled", nh,
            lambda: distribution_distance(eig_rearranged(build_scaled(system)), symbol),
        )

        def offdiag_stats():
            # the off-diagonal part is the coupling operator; the rows and
            # columns outside its support are zero, so each adds an exact
            # zero eigenvalue
            offdiag = operators.coupling
            support = np.union1d(np.flatnonzero(np.diff(offdiag.indptr)), offdiag.indices)
            delta = 1e-10 * float(np.abs(system.matrix).sum(axis=1).max())
            off_eigs = eig_rearranged(offdiag[support][:, support])
            frac = float(np.count_nonzero(np.abs(off_eigs) > delta)) / n
            bound = 2.0 * operators.dofmap.n_gamma / n
            return {"fraction_above": frac, "bound": bound, "delta": delta, "n": n}

        record("offdiag_zero", nh, offdiag_stats)

        def preconditioned_report():
            block_matrix = blockdiag_matrix(operators, spec.eps)
            gen_eigs = eig_rearranged(system.matrix, block_matrix)
            return distribution_distance(gen_eigs, constant_symbol(1.0))

        record("preconditioned", nh, preconditioned_report)

        record(
            "szego", nh,
            lambda: distribution_distance(
                eig_rearranged(toeplitz_from_symbol(symbol, (nh, nh))), symbol
            ),
        )

    if spec.outdir:
        outdir = Path(spec.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        summary = {}
        for kind, entries in results.items():
            summary[kind] = []
            for nh, rep in entries:
                if isinstance(rep, dict):
                    summary[kind].append({"nh": nh, **rep})
                else:
                    summary[kind].append({"nh": nh, **rep.summary()})
                    lines = ["eigenvalue_quantile,symbol_quantile"]
                    lines += [
                        f"{a:.12e},{b:.12e}"
                        for a, b in zip(rep.eig_quantiles, rep.symbol_quantiles)
                    ]
                    (outdir / f"spectra_{kind}_nh{nh}.csv").write_text("\n".join(lines) + "\n")
        (outdir / "spectra_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return results

