# Generate the 101-snapshot gate ramp, fit the density -> potential
# surrogate on the first 40 snapshots only, and watch it predict biases
# it has never seen (2.5x beyond the training range).

import numpy as np

from wirepinn import surrogate
from wirepinn.mesh import build_device_mesh, probe_node
from wirepinn.oracle import extract_probe, ramp_sweep
from wirepinn import fermi

mesh = build_device_mesh()
params = fermi.default_params()

dataset = ramp_sweep(mesh, params, 0.0, 0.75, 0.0075)
print(f"sweep: {len(dataset)} snapshots, V_G {dataset.biases[0]:g} .. {dataset.biases[-1]:g} V")

node = probe_node(mesh)
biases, phi_probe, n_probe = extract_probe(dataset, mesh, node)
print(f"probe node {node}: phi rises {phi_probe[0]:.3f} -> {phi_probe[-1]:.3f} V, "
      f"n spans {n_probe[0]:.2e} -> {n_probe[-1]:.2e} cm^-3")

# train on the subthreshold prefix only
sur = surrogate.fit(dataset.snapshots[:40], mesh.fingerprint())
print(f"\nsurrogate trained on V_G <= {sur.meta.bias_max:g} V "
      f"({sur.meta.n_snapshots} snapshots, rank {sur.right.shape[0]})")

stats = surrogate.scatter_stats(sur, dataset, mesh.gate_nodes())
print(f"R^2 over all 101 x {mesh.n_nodes} points: {stats['r2']:.8f}")
print(f"max |dphi| anywhere: {stats['max_abs_err'] * 1e3:.3f} mV")
print(f"max gate-mean error: {np.abs(stats['gate_err']).max() * 1e3:.3f} mV")

print("\nper-snapshot max |dphi| (mV): training range vs extrapolation")
for k in (0, 20, 39, 40, 60, 80, 100):
    tag = "train" if k < 40 else "extrapolated"
    print(f"  V_G = {dataset.biases[k]:6.4f} V ({tag:12s}): "
          f"{stats['per_snapshot_max_err'][k] * 1e3:9.5f}")

# the affine map interpolates its own training set essentially exactly
x = surrogate.normalize_density(dataset.snapshots[10].n)
err = np.max(np.abs(surrogate.predict_phi(sur, x) - dataset.snapshots[10].phi))
print(f"\nin-sample reconstruction error: {err:.2e} V")
