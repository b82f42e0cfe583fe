"""Environment coupling at the covariance level.

The coupling acts through a single non-negative dimensionless source S(t)
added to the momentum-momentum transport equation:

    (1/k) dg22/dt  gets  + S(t),

everything else unchanged.  S(t) absorbs the coupling rate and the
environment autocorrelation in one function, because only their product
ever appears; a source is any plain callable t -> S(t) returning a
number, and None means no environment.  Consequences implemented here:
the transport engine `evolve_open` (the covariance integrator of the
package, closed evolution being its S = None case), determinant growth
d(det)/dt = k S g11 (monotone purity loss), and the Green's-function
representation of the dressed covariance as quadratures over a stored
mode trajectory.  The transport route of `cosmology.discord_cosmo`
integrates no ODE: it collocates its de Sitter response in `cosmology`.

scipy.integrate is imported at the first integrator call, not with the
module.  `quad` and `solve_ivp` stay module-level names, through which
this module calls the integrators: `perfbench/tracer.py` wraps
`opensys.quad` to count quadrature calls and warnings, and tests patch
`opensys.solve_ivp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .closed import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    CovarianceTrajectory,
    ModeFrequency,
    ModeTrajectory,
    solve_ivp,
    transport_rhs_closed,
)
from .errors import DomainError, StepFailureError
from .symplectic import CovarianceBlock

__all__ = [
    "GreenIntegrals",
    "transport_rhs_open",
    "det_rhs",
    "green_covariance",
    "evolve_open",
    "piecewise_oscillatory_quad",
    "RTOL_FLOOR",
]

#: smallest rtol that solve_ivp accepts without raising it to this value
RTOL_FLOOR = 100.0 * np.finfo(float).eps


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported at the first call (as closed.solve_ivp)."""
    import scipy.integrate
    return scipy.integrate.quad(*args, **kwargs)


@dataclass(frozen=True)
class GreenIntegrals:
    """Additive covariance corrections (I, J, K) from the environment.

    I and K are integrals of squared imaginary parts against a
    non-negative weight, hence non-negative, and I*K >= J^2 by
    Cauchy-Schwarz; both facts are asserted on construction.
    """

    I: float
    J: float
    K: float

    def __post_init__(self):
        scale = max(self.I, self.K, 1e-300)
        if self.I < -1e-12 * scale or self.K < -1e-12 * scale:
            raise DomainError(f"negative diagonal correction: I={self.I}, K={self.K}")
        if self.I * self.K < self.J ** 2 * (1.0 - 1e-9) - 1e-12 * scale ** 2:
            raise DomainError(
                f"Cauchy-Schwarz violated: I*K={self.I * self.K}, J^2={self.J ** 2}"
            )


def transport_rhs_open(
    block: CovarianceBlock | Sequence[float],
    freq: ModeFrequency,
    s: float | None,
    t: float,
) -> tuple[float, float, float]:
    """Open-system covariance derivatives at time t: closed flow plus k s on
    g22, s = S(t) the source value (None: no environment)."""
    d11, d12, d22 = transport_rhs_closed(block, freq, t)
    if s is not None:
        d22 += freq.k * s
    return (d11, d12, d22)


def det_rhs(
    block: CovarianceBlock | Sequence[float],
    s: float | None,
    k: float = 1.0,
) -> float:
    """d(det)/dt = k s g11 for the source value s = S(t); 0 for s None."""
    g11 = block.g11 if isinstance(block, CovarianceBlock) else block[0]
    return k * s * g11 if s is not None else 0.0


def piecewise_oscillatory_quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    half_period: float,
    epsrel: float = 1e-10,
) -> tuple[float, float]:
    """Adaptive quadrature with pre-subdivision at oscillation half-periods.

    Returns (value, error estimate).  Subdividing first keeps the
    adaptive rule from aliasing the oscillation.
    """
    if hi <= lo:
        return 0.0, 0.0
    n_breaks = int(math.floor((hi - lo) / half_period))
    pts = [lo] + [lo + i * half_period for i in range(1, n_breaks + 1)] + [hi]
    total = err = 0.0
    for a0, b0 in zip(pts[:-1], pts[1:]):
        if b0 - a0 < 1e-300:
            continue
        v, e = quad(f, a0, b0, epsabs=1e-13, epsrel=epsrel, limit=200)
        total += v
        err += abs(e)
    return total, err


def green_covariance(
    modes: ModeTrajectory,
    source: Callable[[float], float],
    t: float,
    quad_tol: float = 1e-10,
) -> GreenIntegrals:
    """Covariance corrections by quadrature over modes, from modes.t0 to t.

    With v the mode function and primes denoting the final-time values,

      I = k   * int S(t') Im^2[v(t') v*(t)] dt'
      J =       int S(t') Im[v(t') v*(t)] Im[v(t') v'*(t)] dt'
      K = (1/k) int S(t') Im^2[v(t') v'*(t)] dt'

    so that the dressed covariance is g11 = |v|^2 + I,
    g12 = Re(v v'*)/k + J, g22 = |v'|^2/k^2 + K.
    """
    k, t0 = modes.freq.k, modes.t0
    final = modes.state(t)
    v_f, dv_f = final.v, final.dv

    def im_v(tp: float) -> float:
        return (modes.state(tp).v * v_f.conjugate()).imag

    def im_dv(tp: float) -> float:
        return (modes.state(tp).v * dv_f.conjugate()).imag

    half_period = math.pi / (2.0 * k)  # e^{2ik t'} phase of the products
    lo, hi = min(t0, t), max(t0, t)
    sign = 1.0 if t >= t0 else -1.0
    results = []
    for f, pref in (
        (lambda tp: source(tp) * im_v(tp) ** 2, k),
        (lambda tp: source(tp) * im_v(tp) * im_dv(tp), 1.0),
        (lambda tp: source(tp) * im_dv(tp) ** 2, 1.0 / k),
    ):
        val, err = piecewise_oscillatory_quad(f, lo, hi, half_period,
                                              epsrel=quad_tol)
        scale = max(abs(val), 1e-30)
        if err > 100.0 * quad_tol * scale + 1e-10:
            raise StepFailureError(
                f"requested {quad_tol}, got error estimate {err} on scale {scale}"
            )
        results.append(sign * pref * val)
    return GreenIntegrals(I=results[0], J=results[1], K=results[2])


def evolve_open(
    freq: ModeFrequency,
    source: Callable[[float], float] | None,
    t_span: tuple[float, float],
    ic: CovarianceBlock | None = None,
    t_eval: Sequence[float] | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> CovarianceTrajectory:
    """Transport-engine evolution with an optional environment source;
    source=None is the closed (unitary) evolution.

    The state vector is (g11, g12, g22, det): the determinant is
    transported by its own (cancellation-free) equation and is the value
    behind the reported purity.  Each RHS evaluation calls the source
    once and feeds that value to both the g22 term and d(det)/dt.  With
    t_eval=None every step is kept; samples outside t_span or not strictly
    ordered along it raise DomainError before any integrator runs, as do
    an rtol below RTOL_FLOOR (solve_ivp would raise it to that floor
    silently) and a source whose value at t_span[0] is an array rather
    than a number.  The initial det is ic.lam, so an ic below the
    uncertainty bound raises BelowHeisenbergError.
    """
    if ic is None:
        ic = CovarianceBlock.vacuum()
    if not rtol >= RTOL_FLOOR:
        raise DomainError(f"rtol = {rtol} is below the floor {RTOL_FLOOR:.3g} of solve_ivp")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        # comparisons, not the sign of a step times the span, which can overflow
        if not (t_eval.ndim == 1 and np.all((t_eval >= min(t_span)) & (t_eval <= max(t_span)))
                and np.all(t_eval[1:] > t_eval[:-1] if t_span[1] > t_span[0]
                           else t_eval[1:] < t_eval[:-1])):
            raise DomainError(f"t_eval must lie within t_span = {tuple(t_span)} and be "
                              "strictly ordered along it")
    start = None if source is None else source(t_span[0])
    if np.ndim(start) > 0:
        raise DomainError(f"a source returns a number S(t), got shape {np.shape(start)}")
    k = freq.k

    def rhs(t, y):
        g = (y[0], y[1], y[2])  # indexing, not unpacking: cheaper per call
        s = None if source is None else source(t)
        # a new array per call: solve_ivp keeps the derivatives it is given
        out = np.empty(4)
        out[0], out[1], out[2] = transport_rhs_open(g, freq, s, t)
        out[3] = det_rhs(g, s, k)
        return out

    # overflow surfaces as a failed or non-finite solve, raised below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = solve_ivp(rhs, t_span, [ic.g11, ic.g12, ic.g22, ic.lam], method="DOP853",
                        rtol=rtol, atol=atol, t_eval=t_eval)
    if not sol.success:
        raise StepFailureError(f"covariance transport failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise StepFailureError("covariance transport produced non-finite values")
    return CovarianceTrajectory(times=sol.t, g11=sol.y[0], g12=sol.y[1], g22=sol.y[2],
                                det=sol.y[3])
