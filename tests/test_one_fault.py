"""Reflect's contract on a model one edit from the truth.

``tools/width_report.py``'s one-fault table starts both agents from a
width-family member's true graph with one fault.  At d = 2 repair undoes
three kinds of fault in every run of the table: a halved action
coefficient, an action edge one tick too slow, and a missing action edge.
The fit-only agent refits the coefficient but keeps the wrong structure,
so its final SHD shows that the two structural faults are real.
"""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("width_report", os.path.join(ROOT, "tools", "width_report.py"))
width_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(width_report)

# fault -> the fit-only agent's final SHD in every run
REPAIRED = {"action coef x0.5": 0, "action delay +1": 2, "action edge missing": 1}


def test_repair_undoes_each_fault_it_wins_at_d2():
    runs = [(2, s) for s in (0, 1, 2)]
    rows = width_report.fault_rows(runs, tuple(REPAIRED))
    assert [(fault, d, s) for fault, d, s, *_ in rows] == [(f, d, s) for f in REPAIRED for d, s in runs]
    for fault, d, s, repair_shd, fit_only_shd, triggers in rows:
        assert (repair_shd, fit_only_shd) == (0, REPAIRED[fault]), (fault, s)
        assert triggers >= 1, (fault, s)


def test_each_fault_is_one_edit_of_the_true_graph():
    sc = width_report.width_scenario(width_report.np.random.default_rng(3000 + 17 * 4), 4)
    true = sc.graph.edges
    faulted = width_report.faulted_edges(sc.graph)
    assert tuple(faulted) == width_report.FAULTS
    for fault, edges in faulted.items():
        changed = set(edges) ^ set(true)
        assert len(changed) == (1 if "missing" in fault or "spurious" in fault else 2), fault
