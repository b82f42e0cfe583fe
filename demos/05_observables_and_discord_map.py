"""Observational corridor: power-spectrum corrections, decoherence
thresholds and the discord map over the coupling parameter space.

The growth index p organizes everything:
  p < 2   decoherence requires couplings that would also distort the
          power spectrum;
  2 < p < 6  a corridor exists where the state decoheres, the spectrum
          is intact, and the discord keeps growing;
  p > 6   decoherence wins and the discord is suppressed.

Run:  python demos/05_observables_and_discord_map.py
"""

import math

import numpy as np

from gausslind import (
    CosmoParams,
    decoherence_threshold,
    discord_cosmo,
    offset_singular_p,
    power_spectrum_correction,
)

ellH = 1e-3
x_late = math.exp(-20.0)  # twenty e-folds after Hubble exit

print("power-spectrum correction regimes (kGamma/k* = 0.1, ellH = 1e-3):")
for p in (3.0, 5.0, 6.5, 9.0):
    corr = power_spectrum_correction(CosmoParams(0.1, p, ellH))
    tag = "grows on large scales" if corr.time_dependent else "frozen"
    print(f"  p = {p}: dP/P = {corr.value:+.3e} ({corr.regime.value}, {tag}, "
          f"k-exponent {corr.k_exponent:+.1f})")

print("\ndecoherence threshold kGamma/k* at 20 e-folds:")
for p in (1.0, 3.0, 5.0, 7.0):
    thr = decoherence_threshold(CosmoParams(1.0, p, ellH), math.exp(20.0))
    print(f"  p = {p}: {thr:.3e}")

print("\ndiscord map D(p, kGamma/k*) at x = e^-20, theta = -pi/4:")
log_k = (-8.0, -4.0, 0.0, 4.0)
print(" " * 9 + "".join(f"  lg k={lk:+4.0f}" for lk in log_k))
# integer p >= 2 hits gamma-order poles (and p in {2,4,5,8} is outright
# logarithmic), so such p is evaluated 1e-4 above the integer; one call
# covers a whole row of couplings
for p in (1.0, 3.1, 5.0, 5.9, 6.5, 8.5):
    params = CosmoParams(kGamma_over_kstar=0.0, p=offset_singular_p(p), ellH=ellH)
    row = discord_cosmo(x_late, -math.pi / 4.0, params, "approx",
                        kGamma_over_kstar=10.0 ** np.array(log_k)).discord
    print(f"p = {p:4.1f} " + "".join(f"{d:10.3f}" for d in row))

print("\nBelow p = 6 the discord stays large even deep in the decohered")
print("region; above, any appreciable coupling kills it.")
