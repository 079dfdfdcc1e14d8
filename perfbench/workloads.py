"""The benchmark's workloads: fixed paper cases, ordered by the seed.

Every workload is what one user of the laboratory runs: an iteration table
over its cases with all four solvers (what ``emilab table`` waits for) and
the spectral report of the same model at desk scale (what ``emilab spectra``
waits for).  Each workload therefore reaches every module, so every metric
is measured on every workload; the workloads differ in which module
dominates the pass.

The cases are fixed, so the seed only shuffles the order of tasks within a
pass: the cases, the solvers of each case and the place of the spectral
report.  Order effects then do not always land on the same metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SOLVERS = ("cg", "ilu", "blockdiag", "amg")
TOL = 1e-9
EPS = 1e-4
MAXITER = 20000


@dataclass(frozen=True)
class Case:
    model: str
    nh: int
    cells: int
    tau: float

    @property
    def id(self) -> str:
        return f"{self.model}/{self.nh}/{self.cells}/{self.tau:g}"


@dataclass(frozen=True)
class Suite:
    """Arguments of one ``run_spectral_suite`` call."""

    model: str
    nh_list: tuple
    cells: int
    tau: float = 0.01

    @property
    def id(self) -> str:
        nhs = ",".join(str(nh) for nh in self.nh_list)
        return f"spectra:{self.model}/{nhs}/{self.cells}/{self.tau:g}"


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    suite: Suite


# Why each workload exists is recorded with its name in BENCHMARK.json.  The
# sizes keep one pass under about 7 s on a 2-core host, so that a run holds
# five or more passes: the host's speed drifts by 10-30 percent over seconds
# to minutes, and a median over one or two 15 s passes followed it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tau-a441",
            (Case("A", 64, 441, 1e-2), Case("A", 64, 441, 1e-5)),
            Suite("A", (8, 16, 32), 1),
        ),
        Workload(
            "cells-b64",
            (Case("B", 64, 144, 1e-2), Case("B", 64, 576, 1e-2)),
            Suite("B", (16,), 16),
        ),
        Workload(
            "fine-b16",
            (Case("B", 128, 16, 1e-2),),
            Suite("B", (16,), 4),
        ),
    )
}


def task_order(workload: Workload, rng: random.Random) -> list:
    """One pass as a list of (case, solvers) and (suite, None) tasks."""
    tasks = [(case, tuple(rng.sample(SOLVERS, len(SOLVERS)))) for case in workload.cases]
    tasks.append((workload.suite, None))
    rng.shuffle(tasks)
    return tasks
