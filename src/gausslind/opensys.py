"""Environment coupling at the covariance level.

The coupling acts through a single non-negative dimensionless source S(t)
added to the momentum-momentum transport equation:

    (1/k) dg22/dt  gets  + S(t),

everything else unchanged.  S(t) absorbs the coupling rate and the
environment autocorrelation in one function, because only their product
ever appears; a source is any plain callable t -> S(t), and None means
no environment.  Consequences implemented here: the transport engine
`evolve_open` (the only covariance integrator of the package, closed
evolution being its S = None case and a batch of N sources its
array-valued case), determinant growth
d(det)/dt = k S g11 (monotone purity loss), source-extended equations of
motion of the generalized squeezing parameters, and the Green's-function
representation of the dressed covariance as quadratures over a stored
mode trajectory.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp

from .closed import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    CovarianceTrajectory,
    ModeFrequency,
    ModeTrajectory,
    SQUEEZING_R_FLOOR,
    squeezing_rhs_closed,
    transport_rhs_closed,
)
from .errors import DegenerateSqueezingError, DomainError, StepFailureError
from .symplectic import CovarianceBlock, SqueezingState

__all__ = [
    "GreenIntegrals",
    "transport_rhs_open",
    "det_rhs",
    "generalized_squeezing_rhs",
    "green_covariance",
    "evolve_open",
    "max_members",
    "piecewise_oscillatory_quad",
    "RTOL_FLOOR",
]

#: smallest rtol that solve_ivp accepts without raising it to this value
RTOL_FLOOR = 100.0 * np.finfo(float).eps


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


def generalized_squeezing_rhs(
    state: SqueezingState,
    freq: ModeFrequency,
    s: float | None,
    t: float,
) -> tuple[float, float, float]:
    """Source-extended equations of motion for (lam, r, phi) at time t,
    given the source value s = S(t) (None: no environment).

    dlam/dt = k S sqrt(lam) [cosh 2r - cos 2phi sinh 2r]
    dr/dt   = closed part - (k S / (4 sqrt(lam))) [sinh 2r - cos 2phi cosh 2r]
    dphi/dt = closed part - k S sin 2phi / (4 sqrt(lam) sinh 2r)

    Reduces exactly to the closed equations when S = 0.  The transport
    engine remains the engine of record; this one is singular at r -> 0
    and stiff near lam ~ 1.
    """
    if state.r <= SQUEEZING_R_FLOOR:
        raise DegenerateSqueezingError(
            f"generalized squeezing engine needs r > {SQUEEZING_R_FLOOR}"
        )
    dr, dphi = squeezing_rhs_closed(state.r, state.phi, freq, t)
    if not s:  # None or 0
        return (0.0, dr, dphi)
    k = freq.k
    sqrt_lam = math.sqrt(state.lam)
    ch, sh = math.cosh(2.0 * state.r), math.sinh(2.0 * state.r)
    c2, s2 = math.cos(2.0 * state.phi), math.sin(2.0 * state.phi)
    dlam = k * s * sqrt_lam * (ch - c2 * sh)
    dr -= k * s / (4.0 * sqrt_lam) * (sh - c2 * ch)
    dphi -= k * s * s2 / (4.0 * sqrt_lam * sh)
    return (dlam, dr, dphi)


def piecewise_oscillatory_quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    half_period: float,
    epsrel: float = 1e-10,
    epsabs: float = 1e-13,
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
        v, e = quad(f, a0, b0, epsabs=epsabs, epsrel=epsrel, limit=200)
        total += v
        err += abs(e)
    return total, err


def green_covariance(
    modes: ModeTrajectory,
    source: Callable[[float], float],
    t: float,
    quad_tol: float = 1e-10,
    t_in: float | None = None,
) -> GreenIntegrals:
    """Covariance corrections by quadrature over a stored mode trajectory.

    With v the mode function and primes denoting the final-time values,

      I = k   * int S(t') Im^2[v(t') v*(t)] dt'
      J =       int S(t') Im[v(t') v*(t)] Im[v(t') v'*(t)] dt'
      K = (1/k) int S(t') Im^2[v(t') v'*(t)] dt'

    so that the dressed covariance is g11 = |v|^2 + I,
    g12 = Re(v v'*)/k + J, g22 = |v'|^2/k^2 + K.
    """
    k = modes.freq.k
    t0 = modes.t0 if t_in is None else t_in
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


def max_members(rtol: float) -> int:
    """Largest batch whose per-member tolerance rtol / sqrt(N) stays at or
    above RTOL_FLOOR: 0 when rtol itself is below it, or NaN."""
    if not rtol >= RTOL_FLOOR:
        return 0
    return int(min((rtol / RTOL_FLOOR) ** 2, sys.maxsize))


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
    once and feeds that value to both the g22 term and d(det)/dt.

    A source may return a numpy array of N amplitudes at each t, of any
    shape (a row of couplings, or a (p, coupling) plane): N members
    sharing freq, t_span and ic then evolve in one integration with
    state (4, *shape), and every trajectory field is (*shape,
    len(times)).  rtol and atol are divided by sqrt(N), so that each
    member meets the scalar error criterion (solve_ivp takes the RMS norm
    over all 4N components).  N = 1 runs the scalar arithmetic, bit for
    bit.  With t_eval=None every step is kept, all 4N values of it:
    about 32 B x N x steps.  The initial det is ic.lam, so an ic below
    the uncertainty bound raises BelowHeisenbergError.

    solve_ivp silently raises any rtol below RTOL_FLOOR to that floor, so
    a batch with rtol / sqrt(N) < RTOL_FLOOR, i.e. N > max_members(rtol),
    raises DomainError first.
    """
    if ic is None:
        ic = CovarianceBlock.vacuum()
    members = np.shape(source(t_span[0])) if source is not None else ()
    n = math.prod(members)
    if n == 0:
        raise DomainError("an array-valued source needs at least one member")
    if n > max_members(rtol):
        raise DomainError(
            f"rtol = {rtol} over {n} member(s) is below the floor {RTOL_FLOOR:.3g} "
            f"of solve_ivp: the batch needs rtol >= {RTOL_FLOOR * math.sqrt(n):.3g}")
    if members and n == 1:  # one member: scalar arithmetic is cheaper per call
        member, source = source, lambda t: member(t).item()
    shape = (4, *members) if n > 1 else (4,)
    k = freq.k

    def rhs(t, y):
        g = y.reshape(shape)
        g = (g[0], g[1], g[2])  # indexing, not unpacking: cheaper per call
        s = None if source is None else source(t)
        # a new array per call: solve_ivp keeps the derivatives it is given
        out = np.empty(shape)
        out[0], out[1], out[2] = transport_rhs_open(g, freq, s, t)
        out[3] = det_rhs(g, s, k)
        return out.ravel()

    y0 = np.repeat([ic.g11, ic.g12, ic.g22, ic.lam], n)
    # overflow surfaces as a failed or non-finite solve, raised below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=rtol / math.sqrt(n),
                        atol=atol / math.sqrt(n), t_eval=t_eval)
    if not sol.success:
        raise StepFailureError(f"covariance transport failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise StepFailureError("covariance transport produced non-finite values")
    y = sol.y.reshape(4, *members, -1)
    return CovarianceTrajectory(times=sol.t, g11=y[0], g12=y[1], g22=y[2], det=y[3])
