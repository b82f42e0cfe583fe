"""Closed evolution of one inflationary mode pair, three ways.

The same trajectory is computed with the mode-function engine, the
covariance transport engine and the squeezing-parameter engine, and
compared against the closed-form solution.  The squeezing amplitude grows
once the mode exits the Hubble radius (x = -k eta < 1) while the state
stays exactly pure.

Run:  python demos/01_closed_evolution.py
"""

import numpy as np

from gausslind import (
    bogoliubov_from_mode,
    covariance_from_bogoliubov,
    de_sitter_covariance_closed,
    de_sitter_frequency,
    de_sitter_mode,
    de_sitter_squeezing,
    evolve_open,
    evolve_squeezing,
    integrate_mode_function,
)

x_grid = np.geomspace(100.0, 0.01, 9)
freq = de_sitter_frequency()

# engine 1: integrate the mode function, read the covariance off the
# induced Bogoliubov pair
mode_traj = integrate_mode_function(freq, -100.0, -0.01, de_sitter_mode(100.0))

# engine 2: transport the covariance entries directly (no environment source)
cov_traj = evolve_open(freq, None, (-100.0, -0.01),
                       ic=de_sitter_covariance_closed(100.0), t_eval=-x_grid)

# engine 3: evolve the squeezing parameters (r, phi)
r0, phi0 = de_sitter_squeezing(100.0)
_, r_traj, phi_traj = evolve_squeezing(freq, (-100.0, -0.01), (r0, phi0),
                                       t_eval=-x_grid)

print(f"{'x':>10} {'g22 closed':>14} {'mode dev':>10} {'transport dev':>14} "
      f"{'r':>8} {'purity':>8}")
for i, x in enumerate(x_grid):
    want = de_sitter_covariance_closed(x)
    b_mode = covariance_from_bogoliubov(
        bogoliubov_from_mode(mode_traj.state(-x), 1.0))
    dev_mode = abs(b_mode.g22 / want.g22 - 1.0)
    dev_tr = abs(cov_traj.g22[i] / want.g22 - 1.0)
    print(f"{x:10.4g} {want.g22:14.6g} {dev_mode:10.2e} {dev_tr:14.2e} "
          f"{r_traj[i]:8.4f} {cov_traj.purity[i]:8.6f}")

print("\nSub-Hubble (x >> 1): r ~ 0, the state is the vacuum.")
print("Super-Hubble (x << 1): r ~ -2 ln x, gamma_22 ~ 1/x^4, purity = 1.")
