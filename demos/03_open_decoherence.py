"""Decoherence of an inflationary mode coupled to a sub-Hubble
environment.

The environment switches on when the mode outgrows the correlation
length (x = 1/(ell_E H)) and pumps the momentum-momentum covariance,
making the determinant -- the squared inverse purity -- grow.  The
transported covariance agrees with the closed-form Green's-function
integrals (`exact_open_covariance`), and its determinant with the
super-Hubble asymptotics.

Run:  python demos/03_open_decoherence.py
"""

import numpy as np

from gausslind import (
    CosmoParams,
    cosmo_kernel,
    de_sitter_covariance_closed,
    evolve_de_sitter,
    exact_open_covariance,
    sigma0_sq_approx,
    particle_statistics,
)

params = CosmoParams(kGamma_over_kstar=10.0, p=2.1, ellH=0.1)
source = cosmo_kernel(params)
print(f"environment: power law, p={params.p}, ellH={params.ellH}, "
      f"kGamma/k*={params.kGamma_over_kstar}")
print(f"coupling window opens at x = {params.x_coupling_on}\n")

x_grid = np.geomspace(params.x_coupling_on, 1e-3, 9)
traj = evolve_de_sitter(params.x_coupling_on, 1e-3, source, x_eval=x_grid)

print(f"{'x':>10} {'ln det':>10} {'approx':>10} {'purity':>10} "
      f"{'n pairs':>12} {'exact g22 dev':>14}")
for i, x in enumerate(x_grid):
    det = traj.det[i]
    try:
        approx = np.log(sigma0_sq_approx(float(x), params))
    except Exception:
        approx = float("nan")  # outside the super-Hubble window
    stats = particle_statistics(traj.block(i))
    # an independent route: the Green's-function integrals in closed
    # form, inside the open window 0 < x < 1/ellH; at x = 1/ellH the
    # source is still off and the free closed form holds
    if x < params.x_coupling_on:
        exact = exact_open_covariance(float(x), params)
    else:
        exact = de_sitter_covariance_closed(float(x))
    dev = abs(exact.g22 / traj.g22[i] - 1.0)
    print(f"{x:10.4g} {np.log(det):10.4f} {approx:10.4f} "
          f"{traj.purity[i]:10.3e} {stats.n:12.4g} {dev:14.2e}")

print("\nThe determinant saturates for p = 2.1 once the x^(2-p) growth "
      "slows; purity is lost but, as demo 05 shows, discord survives.")
