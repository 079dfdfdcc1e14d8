"""Spans around calls into emilab's modules, recorded from the benchmark's side.

A ``Tracer`` replaces, for one traced pass, the names that ``emilab.harness``,
``emilab.fem``, ``emilab.spectral`` and ``emilab.io`` look up at call time
(``build_mesh``, ``assemble_operators``, ``cg_solve``, ...) with wrappers that
record one span per call: name, start, end, parent span, case id and the
solver being run.  The matrix and preconditioner handed to ``cg_solve`` are
wrapped too, so every matrix-vector product and preconditioner apply is a
span.  Nothing in the package changes; ``restore`` puts the originals back.

The first word of a span name is its layer, so a layer's self time is the
summed duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

SOLVERS = ("cg", "ilu", "blockdiag", "amg")
LAYERS = ("meshgen", "fem", "system", "solvers", "spectral", "harness", "io")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    case: str | None
    solver: str | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for a tracer in untraced passes."""

    case = None

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.case: str | None = None
        self.solver: str | None = None
        self._stack: list[int] = []
        self._patched: list = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.case, self.solver))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, counts=None, enter=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``enter(args)`` runs before the span opens.  ``counts(args, result)``
        returns a dict stored on the span; it runs after the span closes, so
        its cost is not charged to the call.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            idx = self.begin(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.end(idx)
            if counts is not None:
                self.spans[idx].counts.update(counts(args, out))
            return out

        self._replace(owner, attr, traced)

    def install(self, emilab) -> None:
        """Wrap every call boundary the benchmark measures."""
        h, fem, spectral, io = emilab.harness, emilab.fem, emilab.spectral, emilab.io

        def enter_case(args):
            model, nh, n_cells, tau = args[:4]
            self.case = f"{model}/{nh}/{n_cells}/{tau:g}"

        self.patch(h, "build_case", "harness.build_case", enter=enter_case)
        self._patch_solve_case(h)
        self.patch(h, "run_spectral_suite", "harness.run_spectral_suite")

        def membrane(args, labeling):
            return {"membrane_edges": len(labeling.membrane_edges)}

        self.patch(h, "build_mesh", "meshgen.build_mesh")
        self.patch(h, "label_model_a", "meshgen.label", membrane)
        self.patch(h, "label_model_b", "meshgen.label", membrane)
        self.patch(
            h, "build_dofmap", "meshgen.build_dofmap",
            lambda args, d: {"n_dofs": d.n, "n_gamma": d.n_gamma},
        )

        self.patch(h, "assemble_operators", "fem.assemble_operators")
        for attr in ("assemble_stiffness", "assemble_membrane_mass", "assemble_bulk_mass",
                     "assemble_coupling", "assemble_rhs"):
            self.patch(fem, attr, "fem." + attr)

        self.patch(h, "build_system", "system.build_system",
                   lambda args, s: {"nnz": s.matrix.nnz})
        self.patch(h, "pin_nullspace", "system.pin_nullspace")
        self.patch(h, "interface_basis", "system.interface_basis",
                   lambda args, q: {"bytes": _sparse_bytes(q)})
        self.patch(h, "build_scaled", "system.build_scaled")

        self.patch(h, "ilu0_factor", "solvers.ilu0_factor", _ilu_counts)
        self.patch(h, "blockdiag_prec", "solvers.blockdiag_prec", _blockdiag_counts)
        self.patch(h, "amg_build", "solvers.amg_build", _amg_counts)
        self._patch_cg(h)

        self.patch(h, "eig_rearranged", "spectral.eig_rearranged",
                   lambda args, eigs: {"n": len(eigs)})
        self.patch(h, "toeplitz_from_symbol", "spectral.toeplitz_from_symbol")
        self.patch(h, "distribution_distance", "spectral.distribution_distance")
        self.patch(spectral, "lanczos_eigenvalues", "spectral.lanczos")
        # the generalized eigensolve of the preconditioned check is scipy's,
        # called through the harness's own ``la`` module reference
        geneig = _Namespace(h.la)
        self._replace(h, "la", geneig)
        self.patch(geneig, "eigh", "spectral.geneig",
                   lambda args, eigs: {"n": len(eigs)})

        self.patch(io, "format_result_row", "io.format_result_row")

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch_solve_case(self, h) -> None:
        original = h.solve_case

        def traced(case, solver, *args, **kwargs):
            self.solver = solver
            idx = self.begin("harness.solve_case")
            try:
                return original(case, solver, *args, **kwargs)
            finally:
                self.end(idx)
                self.solver = None

        self._replace(h, "solve_case", traced)

    def _patch_cg(self, h) -> None:
        original = h.cg_solve

        def traced(A, b, config=None, M=None, callback=None):
            timed_m = None if M is None else _TimedApply(M, self)
            idx = self.begin("solvers.cg_solve")
            try:
                x, report = original(_TimedMatrix(A, self), b, config, M=timed_m,
                                     callback=callback)
            finally:
                self.end(idx)
            self.spans[idx].counts.update(iters=report.iterations)
            return x, report

        self._replace(h, "cg_solve", traced)


class _Namespace:
    """A module stand-in whose attributes can be replaced one by one."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class _TimedMatrix:
    """The operator handed to ``cg_solve``; each product is a span."""

    def __init__(self, matrix, tracer: Tracer):
        self._matrix = matrix
        self._tracer = tracer
        self.shape = matrix.shape

    def __matmul__(self, v):
        idx = self._tracer.begin("solvers.spmv")
        try:
            return self._matrix @ v
        finally:
            self._tracer.end(idx)


class _TimedApply:
    """The preconditioner handed to ``cg_solve``; each apply is a span."""

    def __init__(self, apply, tracer: Tracer):
        self._apply = apply
        self._tracer = tracer

    def __call__(self, r):
        idx = self._tracer.begin("solvers.apply")
        try:
            return self._apply(r)
        finally:
            self._tracer.end(idx)


# Bytes one preconditioner apply reads and writes, computed from the stored
# arrays (values, indices, row pointers) plus the vectors each sweep touches.
# These are array sizes, not measured traffic: cache reuse is ignored.


def _sparse_bytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _vector_bytes(n: int, sweeps: int) -> int:
    return 16 * n * sweeps  # each sweep reads one vector and writes one


def _ilu_counts(args, prec) -> dict:
    n = prec.lower.shape[0]
    return {
        "shift": prec.shift,
        "factor_nnz": prec.lower.nnz + prec.upper.nnz,
        "apply_bytes": _sparse_bytes(prec.lower) + _sparse_bytes(prec.upper)
        + _vector_bytes(n, 2),
    }


def _blockdiag_counts(args, prec) -> dict:
    lu = prec._lu
    n = prec.matrix.shape[0]
    return {
        "lu_nnz": lu.L.nnz + lu.U.nnz,
        "apply_bytes": _sparse_bytes(lu.L) + _sparse_bytes(lu.U)
        + lu.perm_r.nbytes + lu.perm_c.nbytes + _vector_bytes(n, 2),
    }


def _amg_counts(args, hierarchy) -> dict:
    fine_nnz = args[0].nnz
    coarse = hierarchy.sizes[-1]
    nnz = sum(lvl.matrix.nnz for lvl in hierarchy.levels) + coarse * coarse
    apply_bytes = 8 * coarse * coarse + _vector_bytes(coarse, 1)
    for lvl in hierarchy.levels:
        n = lvl.matrix.shape[0]
        # two triangular sweeps, two residuals, restriction and prolongation
        apply_bytes += (_sparse_bytes(lvl.lower) + _sparse_bytes(lvl.upper)
                        + 2 * _sparse_bytes(lvl.matrix) + 2 * _sparse_bytes(lvl.prolong)
                        + _vector_bytes(n, 6))
    return {
        "levels": len(hierarchy.sizes),
        "op_complexity": nnz / fine_nnz,
        "apply_bytes": apply_bytes,
    }


# Per-layer metrics of one traced pass.  Times are summed over the pass,
# counts summed over the cases (op_complexity and the ILU shift: largest).

_TIMES = {
    "meshgen.build_mesh": "meshgen.mesh_s",
    "meshgen.label": "meshgen.label_s",
    "meshgen.build_dofmap": "meshgen.dofmap_s",
    "fem.assemble_operators": "fem.assemble_s",
    "fem.assemble_stiffness": "fem.stiffness_s",
    "fem.assemble_membrane_mass": "fem.membrane_mass_s",
    "fem.assemble_bulk_mass": "fem.bulk_mass_s",
    "fem.assemble_coupling": "fem.coupling_s",
    "fem.assemble_rhs": "fem.rhs_s",
    "system.build_system": "system.build_s",
    "system.pin_nullspace": "system.pin_s",
    "spectral.eig_rearranged": "spectral.eig_s",
    "spectral.geneig": "spectral.geneig_s",
    "spectral.toeplitz_from_symbol": "spectral.toeplitz_s",
    "spectral.distribution_distance": "spectral.distance_s",
}
_SUMMED_COUNTS = {
    ("meshgen.build_dofmap", "n_dofs"): "meshgen.n_dofs",
    ("meshgen.build_dofmap", "n_gamma"): "meshgen.n_gamma",
    ("meshgen.label", "membrane_edges"): "meshgen.membrane_edges",
    ("system.build_system", "nnz"): "system.nnz",
}
_BLOCK_BUILDERS = ("fem.assemble_stiffness", "fem.assemble_membrane_mass",
                   "fem.assemble_bulk_mass", "fem.assemble_coupling")
_SETUP_SPANS = {"ilu": "solvers.ilu0_factor", "blockdiag": "solvers.blockdiag_prec",
                "amg": "solvers.amg_build"}


def layer_metrics(spans: list[Span], pass_seconds: float) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    out = {name: 0.0 for name in _TIMES.values()}
    out.update({name: 0 for name in _SUMMED_COUNTS.values()})
    out.update({"fem.sparse_blocks": 0, "fem.coupling_pairs": 0, "spectral.max_n": 0,
                "spectral.lanczos_calls": 0})
    covered = [0.0] * len(spans)  # time of each span covered by its children
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            covered[s.parent] += s.seconds
            children.setdefault(s.parent, []).append(i)
    self_time = {layer: 0.0 for layer in LAYERS + ("bench",)}
    top_level = 0.0
    for i, s in enumerate(spans):
        self_time[s.name.split(".", 1)[0]] += s.seconds - covered[i]
        if s.parent is None:
            top_level += s.seconds
        if s.name in _TIMES:
            out[_TIMES[s.name]] += s.seconds
        for (span_name, key), metric in _SUMMED_COUNTS.items():
            if s.name == span_name:
                out[metric] += s.counts[key]
        if s.name in _BLOCK_BUILDERS:
            out["fem.sparse_blocks"] += 1
        if s.name == "fem.assemble_coupling":
            out["fem.coupling_pairs"] += 1
        if s.name in ("spectral.eig_rearranged", "spectral.geneig"):
            out["spectral.max_n"] = max(out["spectral.max_n"], s.counts["n"])
        if s.name == "spectral.lanczos":
            out["spectral.lanczos_calls"] += 1
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    # the benchmark's own loop and correctness checks, inside or outside its spans
    out["bench.outside_s"] = self_time["bench"] + pass_seconds - top_level
    out.update(_solver_metrics(spans, children))
    return out


def _solver_metrics(spans: list[Span], children: dict) -> dict:
    out = {}
    for solver in SOLVERS:
        mine = [(i, s) for i, s in enumerate(spans) if s.solver == solver]
        total = {name: 0.0 for name in ("harness.solve_case", "solvers.cg_solve",
                                        "solvers.apply", "solvers.spmv")}
        calls = dict.fromkeys(total, 0)
        iters = replacements = 0
        for i, s in mine:
            if s.name in total:
                total[s.name] += s.seconds
                calls[s.name] += 1
            if s.name == "solvers.cg_solve":
                spmv = sum(spans[c].name == "solvers.spmv" for c in children.get(i, ()))
                iters += s.counts["iters"]
                replacements += spmv - s.counts["iters"] - 1
        p = f"solvers.{solver}."
        out[p + "cg_s"] = total["solvers.cg_solve"]
        out[p + "spmv_calls"] = calls["solvers.spmv"]
        out[p + "spmv_ms"] = 1e3 * total["solvers.spmv"] / max(calls["solvers.spmv"], 1)
        out[p + "iters"] = iters
        out[p + "replacements"] = replacements
        if solver == "cg":
            continue
        # preconditioner set-up: everything solve_case does before iterating
        out[p + "setup_s"] = total["harness.solve_case"] - total["solvers.cg_solve"]
        out[p + "apply_calls"] = calls["solvers.apply"]
        out[p + "apply_ms"] = 1e3 * total["solvers.apply"] / max(calls["solvers.apply"], 1)
        built = [s for _, s in mine if s.name == _SETUP_SPANS[solver]]
        out[p + "apply_bytes"] = sum(s.counts["apply_bytes"] for s in built)
        if solver == "ilu":
            out[p + "shift"] = max((s.counts["shift"] for s in built), default=0.0)
            out[p + "factor_nnz"] = sum(s.counts["factor_nnz"] for s in built)
        elif solver == "blockdiag":
            out[p + "lu_nnz"] = sum(s.counts["lu_nnz"] for s in built)
        else:
            bases = [s for _, s in mine if s.name == "system.interface_basis"]
            # the basis is applied twice per V-cycle: Q^T r and Q z
            out[p + "apply_bytes"] += sum(2 * s.counts["bytes"] for s in bases)
            out[p + "basis"] = len(bases)
            out[p + "levels"] = sum(s.counts["levels"] for s in built)
            out[p + "op_complexity"] = max((s.counts["op_complexity"] for s in built),
                                           default=0.0)
    return out


def span_records(spans: list[Span], origin: float, pass_index: int):
    """JSON-ready dicts of the spans, times in seconds since ``origin``."""
    for i, s in enumerate(spans):
        yield {
            "pass": pass_index, "id": i, "name": s.name,
            "start": round(s.start - origin, 9), "end": round(s.end - origin, 9),
            "parent": s.parent, "case": s.case, "solver": s.solver, "counts": s.counts,
        }
