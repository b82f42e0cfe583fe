"""Closed evolution of one inflationary mode pair against the closed forms.

The covariance transport engine (no environment source) runs from deep
inside the Hubble radius to far outside it, and each sample is compared
with the closed-form covariance; its squeezing amplitude r, read off the
trajectory, is compared with the closed-form r.  The amplitude grows once
the mode exits the Hubble radius (x = -k eta < 1) while the state stays
exactly pure.

Run:  python demos/01_closed_evolution.py
"""

import numpy as np

from gausslind import (
    de_sitter_covariance_closed,
    de_sitter_frequency,
    de_sitter_squeezing,
    evolve_open,
)

x_grid = np.geomspace(100.0, 0.01, 9)

# transport the covariance entries from the closed form at x = 100
traj = evolve_open(de_sitter_frequency(), None, (-100.0, -0.01),
                   ic=de_sitter_covariance_closed(100.0), t_eval=-x_grid)
r, _, _ = traj.squeezing()

print(f"{'x':>10} {'g22 closed':>14} {'g22 dev':>10} {'r':>8} {'r closed':>9} "
      f"{'purity':>8}")
for i, x in enumerate(x_grid):
    want = de_sitter_covariance_closed(x)
    r_want, _ = de_sitter_squeezing(x)
    dev = abs(traj.g22[i] / want.g22 - 1.0)
    print(f"{x:10.4g} {want.g22:14.6g} {dev:10.2e} {r[i]:8.4f} {r_want:9.4f} "
          f"{traj.purity[i]:8.6f}")

print("\nSub-Hubble (x >> 1): r ~ 0, the state is the vacuum.")
print("Super-Hubble (x << 1): r ~ -2 ln x, gamma_22 ~ 1/x^4, purity = 1.")
print("Deep outside the Hubble radius r is read from the entries' own")
print("determinant, pure cancellation there (ROADMAP item 1b): at x = 0.01")
print("it is off the closed form while the entries hold to ~1e-10.")
