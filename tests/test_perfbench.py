"""The benchmark still drives the program: a change to ``src/`` that breaks
the calls ``perfbench/stage.py`` makes (``cli.main``, ``SolveOptions``,
``solve_bias``, ``evaluate_against``, the writers) fails here rather than
in a benchmark run.  Times are not checked."""

import importlib.util
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_stage_prepares_and_solves(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # stage.py imports its siblings by name
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    spec = importlib.util.spec_from_file_location("perfbench_stage", os.path.join(PERFBENCH, "stage.py"))
    stage_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_mod)

    stage = stage_mod.Stage({"stage": "solve", "work": str(tmp_path), "traced": False})
    products = stage.prepare_once(str(tmp_path / "prepare"))
    assert os.path.getsize(products["sweep"]) > 0 and os.path.getsize(products["model"]) > 0

    out = stage.solve_command(str(tmp_path / "solve"), products["sweep"], products["model"],
                              vg=0.75, epochs=5, seed=1)
    assert out["epochs"] == 5
    assert sorted(out["digests"]) == ["vg0.75_loss_history", "vg0.75_prediction", "vg0.75_report"]
    quality = out["quality"]
    assert quality["finite"] is True and quality["vg"] == 0.75
    for key in ("max_phi_err_pct", "max_logn_err_pct", "v_gate_err_mV", "best_loss"):
        assert math.isfinite(quality[key]), key
