"""Built-in validation suite.

Runs the fast subset of the acceptance checks that make sense on an end
user's machine: cross-engine agreement of the closed evolution, discord
baselines, the super-Hubble coefficient table against the exact
determinant, the incomplete-gamma accuracy battery, and the transport
discord map against the super-Hubble one.  Each check
returns (name, ok, detail) and prints one line; the CLI maps failure to
a non-zero exit.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .closed import (
    bogoliubov_from_mode,
    covariance_from_bogoliubov,
    evolve_squeezing,
    integrate_mode_function,
)
from .cosmology import (
    CosmoParams,
    asymptotic_coefficients,
    de_sitter_covariance_closed,
    de_sitter_frequency,
    de_sitter_mode,
    de_sitter_squeezing,
    discord_cosmo,
    evolve_de_sitter,
    exact_open_det,
    offset_singular_p,
    sigma0_sq_approx,
)
from .discord import discord, discord_squeezed, entropy_kernel
from .specfun import upper_incomplete_gamma
from .symplectic import covariance_from_squeezing, SqueezingState

__all__ = ["run_all", "CHECKS"]


def reference_upper_gamma(a: float, z: complex, epsrel: float = 5e-14) -> complex:
    """Quadrature reference for Gamma(a, z): integrate t^(a-1) e^-t along
    the ray t = z + s, s in [0, inf).  The integrand is non-oscillatory
    along this path (the phase of e^-z is constant), so plain adaptive
    quadrature reaches near-machine accuracy."""
    import warnings
    from scipy.integrate import IntegrationWarning, quad

    z = complex(z)

    def fre(s):
        t = z + s
        return (t ** (a - 1.0) * np.exp(-t)).real

    def fim(s):
        t = z + s
        return (t ** (a - 1.0) * np.exp(-t)).imag

    with warnings.catch_warnings():
        # roundoff-detection warnings at epsrel ~ 5e-14 are expected; the
        # returned values are still accurate, as the battery itself shows
        warnings.simplefilter("ignore", IntegrationWarning)
        re, _ = quad(fre, 0.0, np.inf, limit=400, epsabs=0.0, epsrel=epsrel)
        im, _ = quad(fim, 0.0, np.inf, limit=400, epsabs=0.0, epsrel=epsrel)
    return complex(re, im)


def check_closed_engines() -> tuple[str, bool, str]:
    """Mode-function, squeezing and transport engines against the closed
    de Sitter forms, x from 100 to 0.01; purity drift below 1e-9."""
    x_grid = np.geomspace(100.0, 0.01, 41)
    closed = np.array([
        [b.g11, b.g12, b.g22]
        for b in (de_sitter_covariance_closed(x) for x in x_grid)
    ])

    worst = 0.0
    drift = 0.0

    # transport engine (determinant transported alongside)
    traj = evolve_de_sitter(100.0, 0.01, x_eval=x_grid)
    got = np.column_stack([traj.g11, traj.g12, traj.g22])
    worst = max(worst, float(np.abs(got / closed - 1.0).max()))
    drift = max(drift, float(np.abs(traj.purity - 1.0).max()))

    # mode-function engine; its purity is the squared Wronskian over 2ik
    freq = de_sitter_frequency()
    mtraj = integrate_mode_function(freq, -100.0, -0.01, de_sitter_mode(100.0))
    for i, x in enumerate(x_grid):
        st = mtraj.state(-x)
        pair = bogoliubov_from_mode(st, 1.0)
        b = covariance_from_bogoliubov(pair)
        rel = np.abs(np.array([b.g11, b.g12, b.g22]) / closed[i] - 1.0).max()
        worst = max(worst, float(rel))
        norm = (st.wronskian() / 2j).real
        drift = max(drift, abs(1.0 / (norm * norm) - 1.0))

    # squeezing engine (purity 1 by construction)
    r0, phi0 = de_sitter_squeezing(100.0)
    _, rr, pp = evolve_squeezing(freq, (-100.0, -0.01), (r0, phi0), t_eval=-x_grid)
    for i in range(len(x_grid)):
        b = covariance_from_squeezing(SqueezingState(rr[i], pp[i], 1.0))
        rel = np.abs(np.array([b.g11, b.g12, b.g22]) / closed[i] - 1.0).max()
        worst = max(worst, float(rel))

    ok = worst < 1e-6 and drift < 1e-9
    return ("closed-evolution cross-engine agreement",
            ok, f"max rel dev {worst:.2e}, purity drift {drift:.2e}")


def check_discord_baseline() -> tuple[str, bool, str]:
    """Discord vanishes in the reference partition, also for squeezed
    mixed blocks whose determinant is below the noise of their entries
    (the purity snap); pure-state discord matches the entropy kernel of
    sqrt(1 + sinh^2(2r) sin^2(2theta))."""
    rng = np.random.default_rng(42)
    worst0 = 0.0
    states = [SqueezingState(rng.uniform(0.0, 3.0), rng.uniform(-np.pi / 2, np.pi / 2),
                             rng.uniform(1.0, 50.0)) for _ in range(1000)]
    states += [SqueezingState(6.0, 0.3, 1.0), SqueezingState(9.0, 0.3, 1e6),
               SqueezingState(11.0, -0.7, 1e8)]
    for state in states:
        worst0 = max(worst0, discord(covariance_from_squeezing(state), 0.0).discord)

    worst_pure = 0.0
    for r in np.linspace(0.0, 30.0, 121):
        for theta in (-np.pi / 4, 0.3, 1.1, 2.0):
            want = entropy_kernel(math.sqrt(
                1.0 + math.sinh(2.0 * r) ** 2 * math.sin(2.0 * theta) ** 2
            ))
            got = discord_squeezed(r, 1.0, theta).discord
            scale = max(1.0, abs(want))
            worst_pure = max(worst_pure, abs(got - want) / scale)

    ok = worst0 < 1e-12 and worst_pure < 1e-10
    return ("discord baseline (theta=0 and pure states)",
            ok, f"max D(0) {worst0:.2e}, pure-state dev {worst_pure:.2e}")


def check_coefficient_identities() -> tuple[str, bool, str]:
    """The super-Hubble coefficient table: the identity that ties its
    non-analytic coefficients, and sigma^2(0) from the table against the
    exact determinant quadrature at x = 1e-4, deep in the window where
    both hold."""
    worst = 0.0
    for p in (0.5, 2.1, 3.7, 6.1, 9.3):
        t = asymptotic_coefficients(CosmoParams(1.0, p, 0.1))
        worst = max(worst, abs((4.0 - p) * t.a22 - 2.0 * (6.0 - p) * t.a11 - 1.0))
    worst_det = 0.0
    for p in (0.5, 2.1):
        params = CosmoParams(1.0, p, 0.1)
        worst_det = max(worst_det, abs(sigma0_sq_approx(1e-4, params)
                                       / exact_open_det(1e-4, params) - 1.0))
    ok = worst < 1e-12 and worst_det < 1e-8
    return ("super-Hubble coefficient table", ok,
            f"identity residual {worst:.2e}, sigma0^2 vs exact det {worst_det:.2e}")


def check_route_agreement() -> tuple[str, bool, str]:
    """The transport route against the super-Hubble asymptotics on a 12x12
    plane of the default map ranges (p 0.1..9.9, kGamma/k* 1e-10..1e6) at
    x = e^-20, ellH = 0.1, where both hold: discord to 3e-13 relative
    where it exceeds 1e-10 and to 2e-12 absolute, ln sigma(0) to 6e-13
    (measured: 2.9e-14, 5.7e-14, 1.4e-14 with both phases collocated, as
    with the e-fold phase alone on DOP853; 2.9e-14, 2.8e-13, 1.1e-13 with
    both on DOP853; 1.0e-13, 7.0e-13, 1.9e-13 when transport ran in
    conformal time all the way down to x)."""
    ps = np.array([offset_singular_p(p) for p in np.linspace(0.1, 9.9, 12).tolist()])
    couplings = 10.0 ** np.linspace(-10.0, 6.0, 12)
    x, theta, params = math.exp(-20.0), -math.pi / 4.0, CosmoParams(0.0, ps[0], 0.1)
    got, want = (discord_cosmo(x, theta, params, method, kGamma_over_kstar=couplings, p=ps)
                 for method in ("transport", "approx"))
    large = want.discord > 1e-10
    rel = float(np.max(np.abs(got.discord[large] / want.discord[large] - 1.0)))
    dev = float(np.max(np.abs(got.discord - want.discord)))
    dev_s0 = float(np.max(np.abs(got.log_sigma_zero - want.log_sigma_zero)))
    ok = rel < 3e-13 and dev < 2e-12 and dev_s0 < 6e-13
    return ("transport against super-Hubble discord map", ok,
            f"D rel dev {rel:.2e}, D abs dev {dev:.2e}, ln sigma0 dev {dev_s0:.2e}")


def check_special_functions() -> tuple[str, bool, str]:
    """Incomplete gamma against the ray-quadrature reference plus the
    recurrence Gamma(a+1,z) = a Gamma(a,z) + z^a e^-z."""
    worst = 0.0
    worst_rec = 0.0
    orders = (-9.5, -5.3, -2.5, -1.1, -0.5, 0.5, 2.5, 7.7, 10.0)
    radii = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4)
    args = (0.5 * math.pi, -0.5 * math.pi, 0.25 * math.pi)
    for a in orders:
        for az in radii:
            for ph in args:
                if abs(ph) < 0.45 * math.pi and az > 500.0:
                    continue  # |e^-z| underflows; value not representable
                z = az * complex(math.cos(ph), math.sin(ph))
                ref = reference_upper_gamma(a, z)
                got = upper_incomplete_gamma(a, z)
                worst = max(worst, abs(got - ref) / abs(ref))
                up = upper_incomplete_gamma(a + 1.0, z)
                direct = z ** a * np.exp(-z)
                scale = max(abs(up), abs(direct), 1e-300)
                worst_rec = max(worst_rec, abs(up - a * got - direct) / scale)
    ok = worst < 1e-12 and worst_rec < 1e-11
    return ("incomplete-gamma accuracy battery",
            ok, f"max rel dev {worst:.2e}, recurrence residual {worst_rec:.2e}")


CHECKS = (
    check_closed_engines,
    check_discord_baseline,
    check_coefficient_identities,
    check_special_functions,
    check_route_agreement,
)


def run_all() -> bool:
    all_ok = True
    for fn in CHECKS:
        t0 = time.perf_counter()
        name, ok, detail = fn()
        dt = time.perf_counter() - t0
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({dt:.2f}s)")
    return all_ok
