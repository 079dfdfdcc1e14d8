"""Write ``reference.json``, the values every benchmark pass is checked against.

Usage, from the root of a source checkout::

    python3 perfbench/record.py

For every case of every workload it records the dof counts, nnz and
fingerprints of the pinned system, the iteration count of each solver and
the largest pairwise disagreement of the four solutions, with a bound ten
times that; for every spectral report it records the numbers the check in
``run.py`` compares.  The reference describes the program at the commit that
recorded it: a change that claims a speed-up does not re-record it.
"""

from __future__ import annotations

import json
import math

import run
from workloads import EPS, MAXITER, SOLVERS, TOL, WORKLOADS

NOTES = [
    "Cases are fixed paper cases; tol 1e-9, eps 1e-4, maxiter 20000.",
    "The assembly case A/256/7225 (about 40 s and 1.8 GB per build) and the blockdiag "
    "case B/512/16 (about 30 s and 658 MB) are replaced by cells-b64 and fine-b16: they "
    "exercise the same mechanisms in a run short enough to repeat many times per check.",
    "Passes are kept under about 7 s so a run takes medians over five or more: "
    "tau-a441 runs at nh=64 instead of the paper table's 128 (a 10 s pass), fine-b16 "
    "at nh=128 instead of 256 (a 15 s pass), and B/64/2304 (a 6 s build) is left out "
    "of cells-b64.",
    "B/64/576 cg is the known-red acceptance count 2b (paper 535).",
]
AGREEMENT_MARGIN = 10.0


def bound_for(worst: float) -> float:
    """``AGREEMENT_MARGIN`` times the measured value, rounded up to one digit."""
    value = AGREEMENT_MARGIN * worst
    exponent = math.floor(math.log10(value))
    return float(f"{math.ceil(value / 10.0 ** exponent)}e{exponent}")


def main() -> None:
    emilab = run.import_program()
    h = emilab.harness
    run.warm_up(emilab)
    capture = run.SolutionCapture(h)
    reference = {"notes": NOTES, "cases": {}, "suites": {}}
    for workload in WORKLOADS.values():
        for spec in workload.cases:
            case = h.build_case(spec.model, spec.nh, spec.cells, spec.tau, EPS)
            record = run.case_record(case)
            solutions, iterations = {}, {}
            for solver in SOLVERS:
                report, _ = h.solve_case(case, solver, TOL, MAXITER, EPS)
                x = capture.take()
                if not report.converged or run.true_residual(case, x) > TOL:
                    raise SystemExit(f"{spec.id} {solver} did not converge; nothing recorded")
                iterations[solver] = report.iterations
                solutions[solver] = x
            worst = run.worst_disagreement(solutions)
            record.update(iterations=iterations, agreement_measured=worst,
                          agreement_bound=bound_for(worst))
            reference["cases"][spec.id] = record
            print(spec.id, json.dumps(record))
        suite = workload.suite
        results = h.run_spectral_suite(h.ExperimentSpec(
            model=suite.model, nh_list=suite.nh_list, cells_list=(suite.cells,),
            tau_list=(suite.tau,), eps=EPS, tol=TOL, maxiter=MAXITER,
        ))
        record = run.suite_record(results)
        errors = [key for key, values in record.items() if "error" in values]
        if errors:
            raise SystemExit(f"{suite.id}: spectral checks failed: {errors}")
        reference["suites"][suite.id] = record
        print(suite.id, json.dumps(record))
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
