"""The names the benchmark's tracer patches and reads still exist in emilab.

``perfbench/tracing.py`` wraps call boundaries of ``emilab.harness``,
``emilab.fem``, ``emilab.spectral`` and ``emilab.io`` by name and reads
fields of the objects they return; a refactor that drops one of them breaks
``perfbench/run.py --trace 1`` without failing any other test.  This runs one
small traced pass, checks that every public assembler was traced, and
checks the per-layer metric names against ``BENCHMARK.json``.
"""

import json
import sys
import time
from pathlib import Path

import emilab
from emilab import fem, harness, spectral
from emilab import io as eio

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

SOLVERS = ("cg", "ilu", "blockdiag", "amg")


def test_traced_pass_yields_benchmark_layer_metrics():
    modules = (harness, fem, spectral, eio)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install(emilab)
    try:
        assert harness.build_case is not before[0]["build_case"]
        t0 = time.perf_counter()
        case = harness.build_case("A", 16, 1, 1e-5)
        for solver in SOLVERS:
            report, _ = harness.solve_case(case, solver, 1e-9, 20000, 1e-4)
            assert report.converged, solver
        # A/16/1 has an 81-dof cell (a SuperLU cell factor); B/16/4 has
        # 49-dof cells, which share one dense inverse Cholesky factor
        report, _ = harness.solve_case(harness.build_case("B", 16, 4, 0.01), "blockdiag",
                                       1e-9, 20000, 1e-4)
        assert report.converged
        spec = harness.ExperimentSpec(model="A", nh_list=(16,), cells_list=(1,))
        harness.run_spectral_suite(spec)
        seconds = time.perf_counter() - t0
    finally:
        tracer.restore()

    for module, names in zip(modules, before):
        for name, value in names.items():
            assert vars(module)[name] is value, f"{module.__name__}.{name} not restored"

    blockdiag = [s for s in tracer.spans if s.name == "solvers.blockdiag_prec"]
    assert [s.case for s in blockdiag] == ["A/16/1/1e-05", "B/16/4/0.01"]
    assert all(s.counts["lu_nnz"] > 0 for s in blockdiag)
    # the tracer patches the public assemblers; a refactor that bypasses one drops its span
    names = {s.name for s in tracer.spans}
    for attr in ("assemble_stiffness", "assemble_membrane_mass", "assemble_bulk_mass",
                 "assemble_coupling", "assemble_rhs"):
        assert "fem." + attr in names, attr
    metrics = tracing.layer_metrics(tracer.spans, seconds)
    assert metrics["fem.stiffness_s"] > 0 and metrics["fem.bulk_mass_s"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | {"bench.trace_overhead"} == {m["name"] for m in declared}
