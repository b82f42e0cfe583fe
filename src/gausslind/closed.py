"""Environment-free evolution of one mode pair by three equivalent engines.

1. mode-function engine: integrate v'' + omega^2 v = 0 and reconstruct the
   covariance from the induced linear map on ladder operators;
2. transport engine: integrate the first-order system for the covariance
   entries directly;
3. squeezing engine: integrate the equations of motion of the squeezing
   parameters (r, phi) (valid away from r = 0).

All three must agree; the cross-engine test is part of the acceptance
suite.  The transport system is integrated by `opensys.evolve_open`,
whose source=None case is the closed evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateSqueezingError, StepFailureError
from .symplectic import (
    DEGENERATE_R,
    CovarianceBlock,
    ParticleStatistics,
    SqueezingState,
    _libm,
    _ln,
    _q_theta,
    _require_blocks,
    _squeezing_columns,
    _two_product,
)

__all__ = [
    "ModeFrequency",
    "ModeState",
    "BogoliubovPair",
    "ModeTrajectory",
    "CovarianceTrajectory",
    "WignerEllipse",
    "integrate_mode_function",
    "bogoliubov_from_mode",
    "covariance_from_bogoliubov",
    "transport_rhs_closed",
    "squeezing_rhs_closed",
    "evolve_squeezing",
    "wigner_ellipse",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, with scipy.integrate imported at the
    first call: that import costs more than the rest of the package's
    together, and the routes that integrate nothing (the approx discord
    map, the ellipse series, the spectrum) never pay it."""
    import scipy.integrate
    return scipy.integrate.solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class ModeFrequency:
    """Time-dependent squared frequency omega^2(k, t) at fixed wavenumber k."""

    k: float
    omega_sq: Callable[[float, float], float]

    def w(self, t: float) -> float:
        return self.omega_sq(self.k, t)

    def ratio(self, t: float) -> float:
        """omega^2 / k^2."""
        return self.omega_sq(self.k, t) / (self.k * self.k)

    @staticmethod
    def free(k: float) -> "ModeFrequency":
        return ModeFrequency(k, lambda kk, t: kk * kk)


@dataclass(frozen=True)
class ModeState:
    """Mode function value and derivative at one instant."""

    v: complex
    dv: complex
    time: float

    def wronskian(self) -> complex:
        """v dv* - v* dv; conserved and equal to 2ik for vacuum data."""
        return self.v * self.dv.conjugate() - self.v.conjugate() * self.dv

    @staticmethod
    def vacuum(k: float, time: float) -> "ModeState":
        return ModeState(1.0 + 0.0j, -1j * k, time)


@dataclass(frozen=True)
class BogoliubovPair:
    """Coefficients (u, w) of the linear map on ladder operators."""

    u: complex
    w: complex

    def normalization(self) -> float:
        """|u|^2 - |w|^2, equal to 1 for any unitary evolution.

        Evaluated as Re[(u + w*) conj(u - w*)], which is the same number
        but free of the |u|^2 - |w|^2 cancellation that dominates for
        strong squeezing; the remaining two products are compensated.
        """
        plus = self.u + self.w.conjugate()
        minus = self.u - self.w.conjugate()
        p1, e1 = _two_product(plus.real, minus.real)
        p2, e2 = _two_product(plus.imag, minus.imag)
        return (p1 + p2) + (e1 + e2)


class ModeTrajectory:
    """Dense-output solution of the mode equation on [t0, t1]."""

    def __init__(self, freq: ModeFrequency, sol, t0: float, t1: float):
        self.freq = freq
        self._sol = sol
        self.t0 = t0
        self.t1 = t1

    def state(self, t: float) -> ModeState:
        y = self._sol(t)
        return ModeState(complex(y[0], y[1]), complex(y[2], y[3]), t)

    def wronskian_drift(self, t: float) -> float:
        """Relative drift |W(t) - 2ik| / (2k)."""
        w = self.state(t).wronskian()
        k = self.freq.k
        return abs(w - 2j * k) / (2.0 * k)


def integrate_mode_function(
    freq: ModeFrequency,
    t0: float,
    t1: float,
    ic: ModeState,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ModeTrajectory:
    """Solve v'' + omega^2(k, t) v = 0 with dense output.

    Integration direction is inferred from (t0, t1).  The complex second
    order equation is split into a real 4-vector (Re v, Im v, Re v',
    Im v').
    """

    def rhs(t, y):
        w2 = freq.w(t)
        if not math.isfinite(w2):
            raise StepFailureError(f"omega^2 non-finite at t = {t}")
        return [y[2], y[3], -w2 * y[0], -w2 * y[1]]

    y0 = [ic.v.real, ic.v.imag, ic.dv.real, ic.dv.imag]
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True)
    if not sol.success:
        raise StepFailureError(f"mode integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise StepFailureError("mode function became non-finite")
    return ModeTrajectory(freq, sol.sol, t0, t1)


def bogoliubov_from_mode(m: ModeState, k: float) -> BogoliubovPair:
    """Bogoliubov pair carried by a mode state:
    u = (v + i v'/k)/2 and w = ((v - i v'/k)/2)^*, so that u + w^* = v and
    u - w^* = i v'/k.  |u|^2 - |w|^2 equals the (conserved) Wronskian over
    2ik, hence 1 for vacuum-normalized data.
    """
    plus = 0.5 * (m.v + 1j * m.dv / k)
    minus = 0.5 * (m.v - 1j * m.dv / k)
    return BogoliubovPair(u=plus, w=minus.conjugate())


def covariance_from_bogoliubov(
    pair: BogoliubovPair, init: ParticleStatistics | None = None
) -> CovarianceBlock:
    """Covariance block evolved from an initial particle content.

    g11 = (2n+1) |u + w*|^2 + 2 Re[(u + w*)^2 c]
    g22 = (2n+1) |u - w*|^2 - 2 Re[(u - w*)^2 c]
    g12 = 2 (2n+1) Im(u w)  - 2 Im[(u*^2 - w^2) c*]

    With vacuum initial data (n = c = 0) this reduces to the familiar
    |u +- w*|^2 / 2 Im(u w) forms and the determinant stays 1.
    """
    if init is None:
        init = ParticleStatistics.vacuum()
    u, w = pair.u, pair.w
    plus = u + w.conjugate()
    minus = u - w.conjugate()
    occ = 2.0 * init.n + 1.0
    c = init.c
    g11 = occ * abs(plus) ** 2 + 2.0 * (plus * plus * c).real
    g22 = occ * abs(minus) ** 2 - 2.0 * (minus * minus * c).real
    g12 = 2.0 * occ * (u * w).imag - 2.0 * ((u.conjugate() ** 2 - w ** 2) * c.conjugate()).imag
    return CovarianceBlock(g11, g12, g22)


def transport_rhs_closed(
    block: CovarianceBlock | Sequence[float], freq: ModeFrequency, t: float
) -> tuple[float, float, float]:
    """Time derivatives (dg11, dg12, dg22) of the covariance entries.

    (1/k) dg11/dt = 2 g12
    (1/k) d(2 g12)/dt = 2 g22 - 2 (omega^2/k^2) g11
    (1/k) dg22/dt = -(omega^2/k^2) 2 g12

    The symmetrized off-diagonal entry is kept as the single value g12.
    The determinant is conserved by this flow.
    """
    if isinstance(block, CovarianceBlock):
        g11, g12, g22 = block.g11, block.g12, block.g22
    else:
        g11, g12, g22 = block
    k = freq.k
    w = freq.ratio(t)
    return (2.0 * k * g12, k * (g22 - w * g11), -2.0 * k * w * g12)


#: the squeezing-angle equation has a 1/tanh(2r) factor; below this
#: amplitude the engine refuses to run and callers fall back to transport
SQUEEZING_R_FLOOR = 1e-6


def squeezing_rhs_closed(r: float, phi: float, freq: ModeFrequency,
                         t: float) -> tuple[float, float]:
    """Closed equations of motion of the squeezing parameters.

    dr/dt     = (k/2) (w - 1) sin 2phi
    dphi/dt   = -(k/2) (w + 1) + (k/2) (w - 1) cos 2phi / tanh 2r

    with w = omega^2/k^2.
    """
    if r <= SQUEEZING_R_FLOOR:
        raise DegenerateSqueezingError(
            f"squeezing engine needs r > {SQUEEZING_R_FLOOR}, got {r}"
        )
    k = freq.k
    w = freq.ratio(t)
    half = 0.5 * k
    s2, c2 = math.sin(2.0 * phi), math.cos(2.0 * phi)
    dr = half * (w - 1.0) * s2
    dphi = -half * (w + 1.0) + half * (w - 1.0) * c2 / math.tanh(2.0 * r)
    return (dr, dphi)


@dataclass
class CovarianceTrajectory:
    """Synchronized covariance history with a separately transported
    determinant (the naive determinant of strongly squeezed entries is
    pure cancellation noise, so purity is always reported from the
    transported value)."""

    times: np.ndarray
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    det: np.ndarray

    def block(self, i: int) -> CovarianceBlock:
        return CovarianceBlock(self.g11[i], self.g12[i], self.g22[i])

    @property
    def lam(self) -> np.ndarray:
        """The transported determinant floored at 1: sigma(0)^2."""
        return np.maximum(self.det, 1.0)

    @property
    def purity(self) -> np.ndarray:
        return 1.0 / self.lam

    def squeezing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Squeezing columns (r, phi, lam), one value per sample.

        lam is self.lam; r and phi follow squeezing_from_covariance on the
        entries, so r still comes from their own, noisy determinant (ROADMAP
        item 1b), and r = phi = 0 where r <= DEGENERATE_R.  The first sample
        that fails the CovarianceBlock checks raises as its block would.
        """
        g = (self.g11, self.g12, self.g22)
        with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic
            r, phi = _squeezing_columns(*g, np.maximum(_require_blocks(*g), 1.0))
        regular = r > DEGENERATE_R
        return np.where(regular, r, 0.0), np.where(regular, phi, 0.0), self.lam

    def _log_sigmas(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """(ln sigma(0)^2, ln q) of every sample across partition theta (checked
        by the caller), through `_libm`: sigma(0)^2 = self.lam, q = `_q_theta`.
        The first sample that fails the CovarianceBlock checks raises as its block would."""
        g = (self.g11, self.g12, self.g22)
        _require_blocks(*g)
        return (_libm(math.log, self.lam),
                _libm(lambda g11, g12, g22: _ln(_q_theta(g11, g12, g22, theta)), *g))

    def __len__(self) -> int:
        return len(self.times)


def evolve_squeezing(
    freq: ModeFrequency,
    t_span: tuple[float, float],
    ic: tuple[float, float],
    t_eval: Sequence[float] | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squeezing-engine evolution from ic = (r, phi); returns (times, r, phi).

    The initial amplitude must sit above the r floor; trajectories that
    reach it abort with DegenerateSqueezingError.
    """

    def rhs(t, y):
        return squeezing_rhs_closed(y[0], y[1], freq, t)

    sol = solve_ivp(rhs, t_span, list(ic), method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval, dense_output=t_eval is None)
    if not sol.success:
        raise StepFailureError(f"squeezing integration failed: {sol.message}")
    return sol.t, sol.y[0], sol.y[1]


@dataclass(frozen=True)
class WignerEllipse:
    semi_major: float
    semi_minor: float
    tilt: float
    area: float


def wigner_ellipse(s: SqueezingState, n_sigma: float = math.sqrt(2.0)) -> WignerEllipse:
    """Geometry of the n_sigma contour of the Wigner function.

    At the sqrt(2)-sigma contour the semi-axes are lam^(1/4) e^(+-r) and
    the tilt is the squeezing angle; other contours scale linearly.  The
    product of the axes (area / pi) is independent of r.
    """
    scale = n_sigma / math.sqrt(2.0)
    q = s.lam ** 0.25
    return WignerEllipse(
        semi_major=scale * q * math.exp(s.r),
        semi_minor=scale * q * math.exp(-s.r),
        tilt=s.phi,
        area=math.pi * math.sqrt(s.lam) * scale * scale,
    )
