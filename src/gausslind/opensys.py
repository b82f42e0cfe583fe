"""Environment coupling at the covariance level.

The coupling acts through a single non-negative dimensionless source S(t)
added to the momentum-momentum transport equation:

    (1/k) dg22/dt  gets  + S(t),

everything else unchanged.  S(t) absorbs the coupling rate and the
environment autocorrelation in one function, because only their product
ever appears; a source is any plain callable t -> S(t) returning a
number, and None means no environment.  Consequences implemented here:
the transport engine `evolve_open` (the covariance integrator of the
package, closed evolution being its S = None case) and determinant growth
d(det)/dt = k S g11 (monotone purity loss).  `piecewise_oscillatory_quad`
is the half-period quadrature of `cosmology.exact_open_det`.  The
transport route of `cosmology.discord_cosmo` integrates no ODE: it
collocates its de Sitter response in `cosmology`.

scipy.integrate is imported at the first integrator call, not with the
module.  `quad` and `solve_ivp` stay module-level names, through which
this module calls the integrators: `perfbench/tracer.py` wraps
`opensys.quad` to count quadrature calls and warnings, and tests patch
`opensys.solve_ivp`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .closed import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    CovarianceTrajectory,
    ModeFrequency,
    solve_ivp,
    transport_rhs_closed,
)
from .errors import DomainError, StepFailureError
from .symplectic import CovarianceBlock

__all__ = [
    "transport_rhs_open",
    "det_rhs",
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
