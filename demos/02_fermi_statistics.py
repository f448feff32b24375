# The Fermi-Dirac order-1/2 machinery: closed form vs quadrature, the
# inverse, and the potential -> density closure.

import numpy as np

from wirepinn import fermi

# closed form against the quadrature reference across the working range
grid = np.linspace(-30, 50, 161)
approx = fermi.fermi_half(grid)[0]
quad = np.array([fermi.fermi_half_quadrature(e) for e in grid])
rel = np.abs(approx - quad) / quad
print(f"closed form vs quadrature on [-30, 50]: max rel err = {rel.max():.3e} "
      f"at eta = {grid[rel.argmax()]:.1f}")

# limits
print(f"\nF(-10) = {fermi.fermi_half(-10.0)[0]:.6e}   (Boltzmann e^-10 = {np.exp(-10):.6e})")
print(f"F(0)   = {fermi.fermi_half(0.0)[0]:.6f}   (exact 0.765147)")
print(f"F(20)  = {fermi.fermi_half(20.0)[0]:.3f}     (Sommerfeld ~ 67.5)")

# inverse: fixes the source/drain boundary potential by charge neutrality
params = fermi.default_params()
eta_bi = fermi.inverse_fermi_half(1e20 / params.n_c)
phi_bi = params.phi_ref + params.v_t * eta_bi
print(f"\ncontact neutrality: eta = {eta_bi:.4f}, built-in potential = {phi_bi:.4f} V")
print(f"round trip F(inverse(u)) - u at u=3.5: {fermi.fermi_half(fermi.inverse_fermi_half(3.5))[0] - 3.5:.2e}")

# the closure used everywhere: n(phi) on silicon, zero on oxide
phis = np.linspace(0.0, 0.75, 6)
print("\nphi [V] -> n [cm^-3] on silicon:")
for phi in phis:
    print(f"  {phi:5.2f} -> {fermi.electron_density(phi, params)[0]:.3e}")
