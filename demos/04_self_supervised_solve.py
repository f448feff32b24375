# Solve a gate bias with no labeled data: a fresh generator network is
# trained against the two physics losses (gate boundary + Fermi-Dirac
# consistency) through the frozen low-bias surrogate.  Short run for
# demonstration; the headline accuracy needs the full epoch budget.

import numpy as np

from wirepinn import fermi, surrogate
from wirepinn.mesh import build_device_mesh
from wirepinn.oracle import ramp_sweep
from wirepinn.pinn import PinnProblem, SolveOptions, best_losses_within, evaluate_against, solve_bias

mesh = build_device_mesh()
params = fermi.default_params()
dataset = ramp_sweep(mesh, params, 0.0, 0.75, 0.0075)
sur = surrogate.fit(dataset.snapshots[:40], mesh.fingerprint())
problem = PinnProblem(mesh=mesh, surrogate=sur, params=params)

# the losses have the oracle as a fixed point (up to surrogate error):
# feed the oracle density in place of the generator's
for label, s in (("in-sample:    ", dataset.snapshots[20]), ("out-of-range: ", dataset.snapshots[100])):
    l1, l2, total = problem.build_losses(surrogate.normalize_density(s.n), s.v_gate)[:3]
    print(f"teacher-forced {label} loss1={l1:.2e}  loss2={l2:.2e}")

v_gate = 0.6  # 2x the training cutoff; solved directly, no ramping
print(f"\ntraining 20000 epochs at V_G = {v_gate} V (seed 42)...")
result = solve_bias(problem, v_gate, SolveOptions(epochs=20000, seed=42))
l1, l2, _ = best_losses_within(result.history, result.epochs)  # the prediction's state
print(f"wall time {result.wall_time_s / 60:.1f} min; best-state losses l1={l1:.2e} l2={l2:.2e}")

oracle_snap = dataset.snapshot_at(v_gate)
report = evaluate_against(result.prediction, oracle_snap, gate_nodes=problem.gate_nodes)
print(f"extracted gate voltage V_G' = {report.v_gate_extracted:.5f} V")
print(f"max phi error:   {report.max_phi_err_pct:.4f} % of max |phi|")
print(f"max log-n error: {report.max_logn_err_pct:.4f} % of max |log10 n~|")

# loss trajectory, decimated
steps = result.history[::2000]
print("\n  step      lr     loss1      loss2      total")
for row in steps:
    print(f"{int(row[0]):7d}  {row[1]:.0e}  {row[2]:.3e}  {row[3]:.3e}  {row[4]:.3e}")
