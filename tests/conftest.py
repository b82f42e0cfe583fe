"""Shared fixtures and independent oracles for the test suite."""

import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from gausslind.closed import ModeFrequency
from gausslind.cosmology import CosmoParams, _approx_block, offset_singular_p
from gausslind.discord import entropy_kernel
from gausslind.errors import DegenerateSqueezingError
from gausslind.symplectic import (
    DEGENERATE_R,
    CovarianceBlock,
    SqueezingState,
    covariance_from_squeezing,
    particle_statistics,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def default_map():
    """(x, theta, params, p row, coupling row) of the default 40x40
    `discord_map`: the CLI defaults x = e^-20, theta = -pi/4, ellH = 1e-3,
    p in 0.1..9.9 (poles offset) and log10 kGamma/k* in -10..6."""
    ps = np.array([offset_singular_p(p) for p in np.linspace(0.1, 9.9, 40).tolist()])
    return (math.exp(-20.0), -math.pi / 4.0, CosmoParams(0.0, float(ps[0]), 1e-3), ps,
            10.0 ** np.linspace(-10.0, 6.0, 40))


def count_rhs_calls(monkeypatch, *targets) -> list:
    """A list that grows by one per call of each RHS callback handed to the
    integrators that targets name, (module, name) pairs such as
    (opensys, "solve_ivp")."""
    calls = []
    for module, name in targets:
        def counting(rhs, *args, _real=getattr(module, name), **kwargs):
            return _real(lambda t, y: calls.append(1) or rhs(t, y), *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def record_intervals(monkeypatch, name: str) -> list:
    """A list that grows by the (t, h) of each interval that the
    collocation step cosmology.<name> (`_subhubble_interval`, t = -x, or
    `_efold_interval`, t = -ln x) tries."""
    from gausslind import cosmology
    intervals, real = [], getattr(cosmology, name)

    def recorded(t, h, *args, **kwargs):
        intervals.append((t, h))
        return real(t, h, *args, **kwargs)

    monkeypatch.setattr(cosmology, name, recorded)
    return intervals


def default_map_logs():
    """(ln sigma(0)^2, ln q), each (40, 40), of the default map as its
    approx route hands them to the discord assembly."""
    return _approx_block(*default_map())


def random_block(rng, r_max=3.0, lam_max=50.0) -> CovarianceBlock:
    """Random valid covariance block via the squeezing parameterization."""
    r = rng.uniform(0.0, r_max)
    phi = rng.uniform(-np.pi / 2, np.pi / 2)
    lam = rng.uniform(1.0, lam_max)
    return covariance_from_squeezing(SqueezingState(r, phi, lam))


def trajectory_rows_oracle(traj, x_grid, open_run: bool) -> list:
    """CSV rows of a trajectory built one sample at a time, with the
    scalar squeezing formulas written out: a validated CovarianceBlock
    per sample, r and phi from its own determinant (0 where r <=
    DEGENERATE_R), lam and purity from the transported det, and for open
    runs sigma0, n_pairs and |c| from ParticleStatistics.  hypot, log1p
    and atan2 are numpy's, called on one value at a time."""
    rows = []
    for i, x in enumerate(x_grid):
        b = traj.block(i)
        sqrt_det = math.sqrt(max(b.det, 1.0))
        s = 0.5 * np.hypot(b.g11 - b.g22, 2.0 * b.g12) / sqrt_det
        r = 0.5 * np.log1p(s + s * (s / (1.0 + np.hypot(1.0, s))))
        phi = 0.5 * np.arctan2(-b.g12, 0.5 * (b.g22 - b.g11))
        if phi <= -0.5 * math.pi:
            phi += math.pi
        if r <= DEGENERATE_R:
            r = phi = 0.0
        lam = max(traj.det[i], 1.0)
        row = [x, b.g11, b.g12, b.g22, r, phi, lam, traj.purity[i]]
        if open_run:
            stats = particle_statistics(b)
            row += [math.sqrt(lam), stats.n, np.hypot(stats.c.real, stats.c.imag)]
        rows.append([float(v) for v in row])
    return rows


def gauss_legendre_quad(f, a, b, n=64, pieces=8):
    """Fixed-order composite Gauss-Legendre quadrature (independent oracle;
    deliberately not scipy.integrate.quad, which the library itself uses)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    total = 0.0
    edges = np.linspace(a, b, pieces + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * np.sum(weights * np.array([f(mid + half * t) for t in nodes]))
    return total


def third_order_residual(g11_of_t, freq: ModeFrequency, t: float,
                         source=None, h: float | None = None) -> float:
    """Residual of the scalar third-order form of the transport system.

    (1/k^3) g11''' + 4 (w/k) g11' + (2/k) w' g11 - 2*source  with
    w = omega^2/k^2, evaluated by central differences: an independent
    diagnostic on trajectories, not an engine.
    """
    k = freq.k
    if h is None:
        h = 1e-4 / k
    f = g11_of_t
    d1 = (f(t + h) - f(t - h)) / (2.0 * h)
    d3 = (f(t + 2 * h) - 2.0 * f(t + h) + 2.0 * f(t - h) - f(t - 2 * h)) / (2.0 * h ** 3)
    w = freq.ratio(t)
    dw = (freq.ratio(t + h) - freq.ratio(t - h)) / (2.0 * h)
    s = source(t) if source is not None else 0.0
    return d3 / k ** 3 + 4.0 * w * d1 / k + 2.0 * dw * f(t) / k - 2.0 * s


#: the squeezing-angle equation has a 1/tanh(2r) factor; below this
#: amplitude generalized_squeezing_rhs refuses
SQUEEZING_R_FLOOR = 1e-6


def generalized_squeezing_rhs(
    state: SqueezingState,
    freq: ModeFrequency,
    s: float | None,
    t: float,
) -> tuple[float, float, float]:
    """Source-extended equations of motion for (lam, r, phi) at time t,
    given the source value s = S(t) (None: no environment).

    dlam/dt = k S sqrt(lam) [cosh 2r - cos 2phi sinh 2r]
    dr/dt   = (k/2) (w - 1) sin 2phi
              - (k S / (4 sqrt(lam))) [sinh 2r - cos 2phi cosh 2r]
    dphi/dt = -(k/2) (w + 1) + (k/2) (w - 1) cos 2phi / tanh 2r
              - k S sin 2phi / (4 sqrt(lam) sinh 2r)

    with w = omega^2/k^2; at S = 0 these are the closed equations.  A
    cross-check of the transport engine, not an engine: it is singular at
    r -> 0, stiff near lam ~ 1, and its dlam cancels at large r.
    """
    if state.r <= SQUEEZING_R_FLOOR:
        raise DegenerateSqueezingError(
            f"generalized squeezing engine needs r > {SQUEEZING_R_FLOOR}"
        )
    k = freq.k
    w = freq.ratio(t)
    c2, s2 = math.cos(2.0 * state.phi), math.sin(2.0 * state.phi)
    dr = 0.5 * k * (w - 1.0) * s2
    dphi = -0.5 * k * (w + 1.0) + 0.5 * k * (w - 1.0) * c2 / math.tanh(2.0 * state.r)
    if not s:  # None or 0
        return (0.0, dr, dphi)
    ch, sh = math.cosh(2.0 * state.r), math.sinh(2.0 * state.r)
    sqrt_lam = math.sqrt(state.lam)
    dlam = k * s * sqrt_lam * (ch - c2 * sh)
    dr -= k * s / (4.0 * sqrt_lam) * (sh - c2 * ch)
    dphi -= k * s * s2 / (4.0 * sqrt_lam * sh)
    return (dlam, dr, dphi)


def discord_from_particles(block: CovarianceBlock, theta: float) -> float:
    """Pure-state discord written through the pair occupation:
    f(sqrt(1 + 4 sin^2(2 theta) n (n+1))); agrees with ``discord`` for
    pure states.
    """
    n = particle_statistics(block).n
    s2 = math.sin(2.0 * theta) ** 2
    return entropy_kernel(math.sqrt(1.0 + 4.0 * s2 * n * (n + 1.0)))


def oscillatory_moment_quad(alpha: float, x: float, ell_h: float,
                            epsrel: float = 1e-12) -> complex:
    """Direct quadrature of the oscillatory moment, subdivided at the
    half-periods (pi/2) of the e^{2ix'} factor before adaptive refinement."""
    lo, hi = min(x, 1.0 / ell_h), max(x, 1.0 / ell_h)
    sign = 1.0 if x >= 1.0 / ell_h else -1.0
    breaks = _half_period_breaks(lo, hi)
    re = im = 0.0
    for a0, b0 in zip(breaks[:-1], breaks[1:]):
        r, _ = quad(lambda t: math.cos(2.0 * t) * t ** alpha, a0, b0,
                    epsabs=1e-14, epsrel=epsrel, limit=200)
        i, _ = quad(lambda t: math.sin(2.0 * t) * t ** alpha, a0, b0,
                    epsabs=1e-14, epsrel=epsrel, limit=200)
        re += r
        im += i
    return sign * complex(re, im)


def _half_period_breaks(lo: float, hi: float, half_period: float = math.pi / 2.0):
    """Breakpoints of [lo, hi] at multiples of the oscillation half-period."""
    pts = [lo]
    k = int(math.ceil(lo / half_period))
    while k * half_period < hi:
        if k * half_period > lo:
            pts.append(k * half_period)
        k += 1
    pts.append(hi)
    return np.array(pts)


def super_hubble_series(t) -> SimpleNamespace:
    """The full super-Hubble series of the dressed covariance from the
    independent coefficients of an AsymptoticCoefficients table t.

    Component NM of the dressed covariance is its free value minus
    2 (kGamma/k)^2 corrNM, with
      corr11 = a11 x^(6-p) + b11/x^2 + c11 + d11 x + e11 x^3 + f11 x^4
               + g11 x^5 + h11 x^6,
      corr12 = a12 x^(5-p) + b12/x^3 + c12 + d12 x^2 + e12 x^3 + f12 x^4
               + g12 x^5 + h12 x^6,
      corr22 = a22 x^(4-p) + b22/x^4 + c22/x^2 + d22/x + e22 + f22 x
               + g22 x^2 + h22 x^3 + i22 x^4 + j22 x^5 + k22 x^6,
    and every analytic coefficient a fixed rational multiple of b11, d11
    or f11.
    """
    b, d, f = t.b11, t.d11, t.f11
    return SimpleNamespace(
        **asdict(t),
        c11=b, e11=0.4 * d, g11=-6.0 / 35.0 * d, h11=-0.2 * f,
        b12=b, c12=-0.5 * d, d12=-0.6 * d, e12=-2.0 * f,
        f12=3.0 / 7.0 * d, g12=0.6 * f, h12=-2.0 / 27.0 * d,
        b22=b, c22=-b, d22=-2.0 * d, e22=b,
        f22=1.4 * d, g22=4.0 * f, h22=-34.0 / 35.0 * d,
        i22=-1.6 * f, j22=218.0 / 945.0 * d, k22=43.0 / 175.0 * f,
    )
