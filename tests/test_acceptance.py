"""Acceptance on the canonical device: the paper's headline solve, end to end.

``generate``, ``fit-lr`` (cutoff 40) and a 5k-epoch ``solve`` at 0.75 V,
2.5x beyond the surrogate's training range, with seed 42, each through
the command line as a user runs them.  The solve's report against the
oracle is held to bounds on its max phi error, its max log-n error and
|V_G' - 0.75|.

The bounds come from runs of the same commands with the generator and
Adam in float64, at seeds 42, 1, 2 and 3:

| seed | max phi error | max log-n error | abs(V_G' - 0.75) |
|------|---------------|-----------------|------------------|
|   42 | 0.0511%       | 0.0661%         | 0.023 mV         |
|    1 | 0.0534%       | 0.0699%         | 0.017 mV         |
|    2 | 0.0520%       | 0.0755%         | 0.027 mV         |
|    3 | 0.0576%       | 0.0720%         | 0.041 mV         |

Each bound is 1.5x the worst of those four, rounded down.  The float32
generator reads 0.0660%, 0.0818% and 0.035 mV at seed 42, on the sweep
that the oracle ramp's secant predictor gives.
"""

import pytest

from wirepinn import cli, dataset_io

EPOCHS, SEED, V_GATE = 5000, 42, 0.75
MAX_PHI_ERR_PCT = 0.086      # 1.5 x 0.0576 (seed 3)
MAX_LOGN_ERR_PCT = 0.113     # 1.5 x 0.0755 (seed 2)
MAX_V_GATE_ERR_V = 6.1e-5    # 1.5 x 0.041 mV (seed 3)


@pytest.mark.slow
def test_headline_solve_meets_bounds(tmp_path):
    sweep, model, out = tmp_path / "sweep.wpnn", tmp_path / "surrogate.wpnn", tmp_path / "solve"
    assert cli.main(["generate", "--out", str(sweep)]) == cli.EXIT_OK
    assert cli.main(["fit-lr", "--sweep", str(sweep), "--cutoff", "40", "--out", str(model)]) == cli.EXIT_OK
    assert cli.main(["solve", "--surrogate", str(model), "--sweep", str(sweep), "--vg", str(V_GATE),
                     "--epochs", str(EPOCHS), "--seed", str(SEED), "--out", str(out)]) == cli.EXIT_OK
    scalars, _ = dataset_io.read_report(out / f"vg{V_GATE:g}_report.txt")
    assert scalars["epochs"] == EPOCHS
    report = (f"phi {scalars['max_phi_err_pct']:.4f}%, log-n {scalars['max_logn_err_pct']:.4f}%, "
              f"V_G' {scalars['v_gate_extracted']:.6f} V")
    assert scalars["max_phi_err_pct"] <= MAX_PHI_ERR_PCT, report
    assert scalars["max_logn_err_pct"] <= MAX_LOGN_ERR_PCT, report
    assert abs(scalars["v_gate_extracted"] - V_GATE) <= MAX_V_GATE_ERR_V, report
