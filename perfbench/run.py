"""emilab's benchmark: set-up time and time to a converged solution per solver.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload tau-a441 --seed 1 --seconds 35 --trace 0

The program under test is the ``emilab`` package in the checkout's ``src``
directory; without it the benchmark exits with code 2.  The workloads are
defined in ``workloads.py``.  One pass of a workload is what a user of the
laboratory waits for: every case is built (``harness.build_case``), solved
with every solver to tol 1e-9 (``harness.solve_case``), turned into a CSV row
(``io.format_result_row``), and the model's spectral report is computed
(``harness.run_spectral_suite``).  Passes repeat while the next one still
fits in ``--seconds``; every metric is the median over the run's passes.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics::

    setup_s          build_case summed over the cases (at least three
                     set-ups per run; extra set-up rounds are timed alone)
    solve_s.<solver> solve_case summed over the cases: preconditioner set-up
                     plus CG to a true relative residual of 1e-9
    spectra_s        the run_spectral_suite call
    total_s          one whole pass
    peak_rss_mb      the process's peak resident memory

With ``--trace 1`` untraced and traced passes alternate.  The traced passes
record a span at every call into the package (see ``tracing.py``), write
them to ``.bench_out/trace-<workload>-seed<seed>.jsonl`` and report the
per-layer metrics; ``bench.trace_overhead`` is the traced pass time over the
untraced one, minus one.

Every pass is checked against ``reference.json``: the dof counts, nnz and
fingerprints of each pinned system, convergence and the true residual of
every solve, pairwise agreement of the four solutions of a case, and the
spectral report's numbers.  Each miss counts as a failed operation.  A moved
iteration count is printed as a named diff but is not a failure, because a
different rounding order may legitimately move it by a few.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer, layer_metrics, span_records
from workloads import EPS, MAXITER, SOLVERS, TOL, WORKLOADS, Case, task_order

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 3
FINGERPRINT_RTOL = 1e-12
SPECTRAL_RTOL = 1e-6


def import_program():
    """Import ``emilab`` from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "emilab" / "__init__.py").is_file():
        print(f"error: no emilab package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    emilab = importlib.import_module("emilab")
    for name in ("harness", "fem", "spectral", "io"):
        importlib.import_module(f"emilab.{name}")
    if Path(emilab.__file__).resolve().parent != (src / "emilab").resolve():
        print(f"error: imported emilab from {emilab.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return emilab


class SolutionCapture:
    """Keeps the solution of the last ``cg_solve`` call, which ``solve_case`` drops."""

    def __init__(self, harness):
        self.x = None
        original = harness.cg_solve

        def capture(*args, **kwargs):
            self.x, report = original(*args, **kwargs)
            return self.x, report

        harness.cg_solve = capture

    def take(self):
        x, self.x = self.x, None
        return x


class Checker:
    """Counts attempted and failed operations against the reference values."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.iteration_diffs: dict[str, str] = {}

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def case(self, spec: Case, case) -> None:
        ref = self.reference["cases"].get(spec.id)
        if ref is None:
            self.check(False, f"{spec.id}: no reference values")
            return
        got = case_record(case)
        bad = [k for k in ("n", "n0", "n_gamma", "nnz") if got[k] != ref[k]]
        bad += [k for k in ("abs_sum", "rhs_norm", "probe")
                if abs(got[k] - ref[k]) > FINGERPRINT_RTOL * abs(ref[k])]
        self.check(not bad, f"{spec.id}: system differs from reference in "
                   + ", ".join(f"{k} {got[k]!r} != {ref[k]!r}" for k in bad))

    def solve(self, spec: Case, solver: str, case, report, x) -> None:
        label = f"{spec.id} {solver}"
        if report is None:
            return  # the exception was already counted
        rel = true_residual(case, x)
        self.check(report.converged and rel <= TOL,
                   f"{label}: converged={report.converged}, true residual {rel:.3e}")
        expected = self.reference["cases"].get(spec.id, {}).get("iterations", {}).get(solver)
        if expected is not None and report.iterations != expected:
            self.iteration_diffs[label] = f"{expected} -> {report.iterations}"

    def agreement(self, spec: Case, solutions: dict) -> None:
        if len(solutions) < 2:
            return
        worst = worst_disagreement(solutions)
        bound = self.reference["cases"].get(spec.id, {}).get("agreement_bound", 0.0)
        self.check(worst <= bound, f"{spec.id}: solutions disagree by {worst:.3e} > {bound:.1e}")

    def suite(self, suite, results: dict) -> None:
        ref = self.reference["suites"].get(suite.id, {})
        got = suite_record(results)
        for key, values in got.items():
            if "error" in values:
                self.check(False, f"{suite.id} {key}: {values['error']}")
                continue
            expected = ref.get(key)
            ok = expected is not None and values.keys() == expected.keys() and all(
                abs(values[k] - expected[k]) <= SPECTRAL_RTOL * abs(expected[k])
                for k in values
            )
            self.check(ok, f"{suite.id} {key}: {values} != reference {expected}")
        missing = sorted(set(ref) - set(got))
        if missing:
            self.check(False, f"{suite.id}: checks missing from the report: {missing}")


def case_record(case) -> dict:
    """Sizes and fingerprints of a pinned system."""
    a, b = case.system.matrix, case.system.rhs
    w = np.sin(1.0 + np.arange(a.shape[0]))  # a fixed probe vector
    return {
        "n": case.dofmap.n,
        "n0": case.dofmap.n0,
        "n_gamma": case.dofmap.n_gamma,
        "nnz": int(a.nnz),
        "abs_sum": float(np.abs(a.data).sum()),
        "rhs_norm": float(np.linalg.norm(b)),
        "probe": float(w @ (a @ w)),
    }


def true_residual(case, x) -> float:
    a, b = case.system.matrix, case.system.rhs
    return float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))


def worst_disagreement(solutions: dict) -> float:
    """Largest pairwise difference of the solutions, relative to the largest one."""
    xs = list(solutions.values())
    scale = max(np.linalg.norm(x) for x in xs)
    return max(
        float(np.linalg.norm(xa - xb)) / scale
        for i, xa in enumerate(xs) for xb in xs[i + 1:]
    )


def suite_record(results: dict) -> dict:
    """The numbers of a spectral report that must not change, per check and size."""
    out = {}
    for kind, entries in results.items():
        for nh, rep in entries:
            key = f"{kind}/{nh}"
            if isinstance(rep, dict):
                if "error" in rep:
                    out[key] = {"error": rep["error"]}
                else:
                    out[key] = {k: float(rep[k]) for k in ("fraction_above", "bound", "n")}
            else:
                out[key] = {
                    "matrix_size": float(rep.matrix_size),
                    "outlier_count": float(rep.outlier_count),
                    "quantile_distance": float(rep.quantile_distance),
                }
    return out


@dataclass
class Pass:
    """Timings of one workload pass."""

    setup: float = 0.0
    solve: dict = field(default_factory=lambda: dict.fromkeys(SOLVERS, 0.0))
    spectra: float = 0.0
    total: float = 0.0


def run_pass(emilab, workload, tasks, checker: Checker, capture: SolutionCapture,
             tracer=None) -> Pass:
    h, io = emilab.harness, emilab.io
    tracer = tracer or NullTracer()
    result = Pass()
    rows = [io.CSV_HEADER]
    start = time.perf_counter()
    with tracer.span("bench.pass"):
        for task, solvers in tasks:
            tracer.case = task.id
            if solvers is None:
                with tracer.span("bench.suite"):
                    spec = h.ExperimentSpec(model=task.model, nh_list=task.nh_list,
                                            cells_list=(task.cells,), tau_list=(task.tau,),
                                            eps=EPS, tol=TOL, maxiter=MAXITER)
                    t0 = time.perf_counter()
                    results = h.run_spectral_suite(spec)
                    result.spectra += time.perf_counter() - t0
                    checker.suite(task, results)
                continue
            with tracer.span("bench.case"):
                t0 = time.perf_counter()
                case = h.build_case(task.model, task.nh, task.cells, task.tau, EPS)
                result.setup += time.perf_counter() - t0
                checker.case(task, case)
                solutions = {}
                for solver in solvers:
                    t0 = time.perf_counter()
                    try:
                        report, _ = h.solve_case(case, solver, TOL, MAXITER, EPS)
                    except Exception as exc:  # a failed solve is recorded, the pass goes on
                        report = None
                        checker.check(False, f"{task.id} {solver}: "
                                             f"{type(exc).__name__}: {exc}")
                    result.solve[solver] += time.perf_counter() - t0
                    x = capture.take()
                    ok = report is not None and report.converged
                    rows.append(io.format_result_row(
                        task.model, task.cells, task.nh, task.tau, EPS, solver,
                        report.iterations if ok else -1,
                        report.final_rel_residual if report else float("nan"),
                        time.perf_counter() - t0, case.dofmap.n, case.dofmap.n0,
                        case.dofmap.n_gamma,
                    ))
                    checker.solve(task, solver, case, report, x)
                    if ok:
                        solutions[solver] = x
                checker.agreement(task, solutions)
                del case
    result.total = time.perf_counter() - start
    return result


def setup_round(emilab, workload, rng) -> float:
    """Build every case of the workload once more; only the builds are timed."""
    seconds = 0.0
    for spec in rng.sample(workload.cases, len(workload.cases)):
        t0 = time.perf_counter()
        emilab.harness.build_case(spec.model, spec.nh, spec.cells, spec.tau, EPS)
        seconds += time.perf_counter() - t0
    return seconds


def warm_up(emilab) -> None:
    """Let lazy library set-up finish before anything is timed.

    The first large BLAS call of a process starts OpenBLAS's thread pool,
    which added about 1 s to the first CG solve of A/128/441 on a 2-core
    host.  numpy and scipy each bundle their own OpenBLAS, so both are
    called; the small cases below also run every solver and every spectral
    check once.
    """
    import scipy.linalg

    v = np.ones(1 << 16)
    for _ in range(8):
        float(v @ v)
    m = np.random.default_rng(0).standard_normal((400, 400))
    scipy.linalg.eigh(m + m.T)
    h = emilab.harness
    case = h.build_case("B", 32, 4, 0.01, EPS)
    for solver in SOLVERS:
        h.solve_case(case, solver, TOL, MAXITER, EPS)
    h.run_spectral_suite(h.ExperimentSpec(model="A", nh_list=(16,), cells_list=(1,)))


def blas_threads() -> str:
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")},
    }


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list[Pass], setups: list[float]) -> dict:
    metrics = {"setup_s": (median(setups), "s")}
    for solver in SOLVERS:
        metrics[f"solve_s.{solver}"] = (median(p.solve[solver] for p in passes), "s")
    metrics["spectra_s"] = (median(p.spectra for p in passes), "s")
    metrics["total_s"] = (median(p.total for p in passes), "s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics


_UNITS = {"_s": "s", "_ms": "ms", "_bytes": "bytes-computed", "_overhead": "ratio",
          "_complexity": "ratio", ".shift": "value"}


def unit_of(name: str) -> str:
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def measure(one_pass, emilab, workload, rng, deadline) -> dict:
    """Untraced passes while the next one fits before the deadline."""
    passes = [one_pass()]
    while time.perf_counter() + passes[-1].total <= deadline:
        passes.append(one_pass())
    setups = [p.setup for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_round(emilab, workload, rng))
    print(f"passes {len(passes)}, set-up samples {len(setups)}")
    return end_to_end(passes, setups)


def measure_traced(one_pass, emilab, sidecar: Path, header: dict, deadline) -> dict:
    """Untraced and traced passes in turn; the spans go to ``sidecar``."""
    untraced, traced, per_pass = [], [], []
    sidecar.parent.mkdir(exist_ok=True)
    with sidecar.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        while True:
            untraced.append(one_pass())
            tracer = Tracer()
            tracer.install(emilab)
            try:
                traced.append(one_pass(tracer))
            finally:
                tracer.restore()
            per_pass.append(layer_metrics(tracer.spans, traced[-1].total))
            origin = tracer.spans[0].start
            for record in span_records(tracer.spans, origin, len(traced) - 1):
                fh.write(json.dumps(record) + "\n")
            if time.perf_counter() + untraced[-1].total + traced[-1].total > deadline:
                break
    layer = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
    layer["bench.trace_overhead"] = (median(p.total for p in traced)
                                     / median(p.total for p in untraced) - 1.0)
    print(f"passes {len(untraced)} untraced + {len(traced)} traced; spans in {sidecar}")
    return {name: (value, unit_of(name)) for name, value in sorted(layer.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    emilab = import_program()
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    checker = Checker(json.loads(REFERENCE.read_text()))
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    warm_up(emilab)
    capture = SolutionCapture(emilab.harness)
    deadline = time.perf_counter() + args.seconds

    def one_pass(tracer=None) -> Pass:
        return run_pass(emilab, workload, task_order(workload, rng), checker, capture, tracer)

    if args.trace:
        sidecar = ROOT / ".bench_out" / f"trace-{workload.name}-seed{args.seed}.jsonl"
        header = {"environment": env, "workload": workload.name, "seed": args.seed}
        metrics = measure_traced(one_pass, emilab, sidecar, header, deadline)
    else:
        metrics = measure(one_pass, emilab, workload, rng, deadline)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for label, diff in sorted(checker.iteration_diffs.items()):
        print(f"iterations moved: {label}: {diff}")
    for message in checker.messages:
        print(f"FAILED {message}")
    print(f"failed_frac = {checker.failed / max(checker.attempted, 1):.6g} "
          f"({checker.failed} of {checker.attempted} operations)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
