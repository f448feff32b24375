# Solve the gated nanowire at a single bias with the finite-volume oracle
# and look at what comes out.

import numpy as np

from wirepinn import fermi
from wirepinn.mesh import assemble_fv_coefficients, build_device_mesh, probe_node
from wirepinn.oracle import default_tolerance, residual_check, solve_equilibrium

mesh = build_device_mesh()
print(f"mesh: {mesh.nx} x {mesh.ny} = {mesh.n_nodes} nodes")
print(f"gate contact nodes: {len(mesh.gate_nodes())}")

coeffs = assemble_fv_coefficients(mesh)
params = fermi.default_params()
print(f"constants: N_C={params.n_c:g} cm^-3, V_T={params.v_t:g} V, phi_ref={params.phi_ref:g} V")

snapshot = solve_equilibrium(mesh, coeffs, params, v_gate=0.45)
print(f"\nV_G = 0.45 V converged in {snapshot.newton_iterations} Newton iterations")
print(f"residual norm {snapshot.residual_norm:.3e} (tolerance {default_tolerance(mesh, coeffs):.3e})")

# the independent from-scratch residual agrees
print(f"independent residual check: {residual_check(mesh, coeffs, params, snapshot):.3e}")

# mirror symmetry of the half-device
phi2 = snapshot.phi.reshape(mesh.nx, mesh.ny)
print(f"mirror asymmetry of phi: {np.max(np.abs(phi2 - phi2[::-1, :])):.2e} V")

# channel conditions at the probe node the reports read: mid-axis, half
# the silicon radius
probe = probe_node(mesh)
print(f"\nprobe node {probe} at (40.5 nm, 2 nm):")
print(f"  phi = {snapshot.phi[probe]:.4f} V")
print(f"  n   = {snapshot.n[probe]:.4e} cm^-3")

# a quick look at the potential profile through the channel center
column = phi2[mesh.nx // 2, :]
for y_um, phi in zip(mesh.y_nodes, column):
    bar = "#" * int(60 * (phi - column.min()) / (column.max() - column.min() + 1e-30))
    print(f"  y={y_um * 1e3:5.2f} nm  phi={phi:+.4f} V  {bar}")
