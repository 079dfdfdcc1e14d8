"""Reference iteration-count reproduction at table scale.

These runs mirror the reference iteration tables at their original sizes
wherever the counts are reproducible; ordering-sensitive counts are recorded
rather than asserted.  This module is the slowest part of the suite
(roughly one minute).
"""

from emilab.harness import ExperimentSpec, run_table


def _counts(rows, solver):
    out = {}
    for row in rows[1:]:
        cells = row.split(",")
        if cells[5] == solver:
            out[(int(cells[1]), int(cells[2]))] = int(cells[6])  # (N, nh) -> iters
    return out


def test_model_a_cg_refinement_counts():
    """Plain CG at N=441 for two grids: 392 and 743 within 15 percent."""
    spec = ExperimentSpec(model="A", nh_list=(64, 128), cells_list=(441,), solvers=("cg",))
    counts = _counts(run_table(spec, "refinement"), "cg")
    assert abs(counts[(441, 64)] - 392) <= 0.15 * 392
    assert abs(counts[(441, 128)] - 743) <= 0.15 * 743


def test_model_b_ilu_count():
    """Zero fill-in ILU on the cardiac layout: 129 within 25 percent."""
    spec = ExperimentSpec(model="B", nh_list=(64,), cells_list=(576,), solvers=("ilu",))
    counts = _counts(run_table(spec, "refinement"), "ilu")
    assert abs(counts[(576, 64)] - 129) <= 0.25 * 129


def test_model_a_ilu_count_recorded():
    """The natural-order ILU count is ordering-sensitive; record, don't band."""
    spec = ExperimentSpec(model="A", nh_list=(64,), cells_list=(441,), solvers=("ilu",))
    counts = _counts(run_table(spec, "refinement"), "ilu")
    its = counts[(441, 64)]
    assert its > 0  # converged
    print(f"model A ILU-CG at N=441, nh=64: {its} iterations (reference 103, "
          "subdomain-major ordering differs)")


def test_model_a_amg_refinement_trend():
    """One-cycle AMG stays under 40 iterations and within 2x across grids."""
    spec = ExperimentSpec(model="A", nh_list=(64, 128), cells_list=(441,), solvers=("amg",))
    counts = _counts(run_table(spec, "refinement"), "amg")
    c64, c128 = counts[(441, 64)], counts[(441, 128)]
    assert max(c64, c128) <= 40
    assert max(c64, c128) <= 2 * min(c64, c128)


def test_model_b_blockdiag_growth_with_cells():
    """Exact block preconditioning degrades with the cell count (>= 3x from 1 to 16)."""
    spec = ExperimentSpec(
        model="B", nh_list=(512,), cells_list=(1, 16), solvers=("blockdiag",)
    )
    counts = _counts(run_table(spec, "cells"), "blockdiag")
    assert counts[(16, 512)] >= 3 * counts[(1, 512)]
    assert counts[(1, 512)] > 0 and counts[(16, 512)] > 0
