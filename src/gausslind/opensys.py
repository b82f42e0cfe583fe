"""Environment coupling at the covariance level.

The coupling acts through a single non-negative dimensionless source S(t)
added to the momentum-momentum transport equation:

    (1/k) dg22/dt  gets  + S(t),

everything else unchanged.  S(t) absorbs the coupling rate and the
environment autocorrelation in one function, because only their product
ever appears; a source is any plain callable t -> S(t), and None means
no environment.  Consequences implemented here: the transport engine
`evolve_open` (the only covariance integrator of the package, closed
evolution being its S = None case, and the linear response to n unit
sources, from which any coupling kap2 S_i follows, its array-valued
case), determinant growth
d(det)/dt = k S g11 (monotone purity loss), and the Green's-function
representation of the dressed covariance as quadratures over a stored
mode trajectory.

scipy.integrate is imported at the first integrator call, not with the
module.  `quad`, `ode` and `solve_ivp` stay module-level names, through
which this module calls the integrators: `perfbench/tracer.py` wraps
`opensys.quad` to count quadrature calls and warnings, and tests patch
`opensys.ode` and `opensys.solve_ivp`.
"""

from __future__ import annotations

import math
import warnings
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
    "TransportResponse",
    "piecewise_oscillatory_quad",
    "RTOL_FLOOR",
    "RESPONSE_MAX_STEPS",
]

#: smallest rtol that solve_ivp accepts without raising it to this value
RTOL_FLOOR = 100.0 * np.finfo(float).eps
#: steps the response integration of evolve_open may take to each sample:
#: twice the 90,400 of a de Sitter p = 0.1 row at ellH = 1e-4 from 1/ellH
#: down to x = 1, after which the transport route's e-fold phase takes 78
#: more to x = e^-20 (a 40-row ellH = 1e-3 plane: 10,700 and 128)
RESPONSE_MAX_STEPS = 200_000


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported at the first call (as closed.solve_ivp)."""
    import scipy.integrate
    return scipy.integrate.quad(*args, **kwargs)


def ode(*args, **kwargs):
    """scipy.integrate.ode, imported at the first call (as closed.solve_ivp)."""
    import scipy.integrate
    return scipy.integrate.ode(*args, **kwargs)


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


@dataclass(frozen=True)
class TransportResponse:
    """Linear response of the transport equations to the sources kap2 S_i(t).

    The equations are linear in (g, det) and their closed flow does not
    depend on the source, so a source kap2 * S_i(t) with a constant kap2
    gives, from the same initial block, the covariance and determinant

        g + kap2 F_i   and   det0 + kap2 a1_i + kap2^2 a2_i

    where g is the closed (source-free) covariance, F_i follows the closed
    flow plus k S_i on its g22 entry from F_i = 0, a1_i' = k S_i g11 and
    a2_i' = k S_i F_i11 from 0 (so a1_i, a2_i >= 0 and the det needs no
    cancellation).  g is (3, T), F is (3, n, T) and a1, a2 are (n, T) over
    the n unit amplitudes S_i and the T sample times.
    """

    times: np.ndarray
    g: np.ndarray
    F: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    det0: float

    def cells(self, kap2) -> CovarianceTrajectory:
        """The trajectories of the sources kap2[j] * S_i, each field (n,
        len(kap2), T): the covariance and det polynomials in kap2 above."""
        kap2 = np.asarray(kap2, dtype=float)[:, None]
        g11, g12, g22 = (g + kap2 * f[:, None, :] for g, f in zip(self.g, self.F))
        det = self.det0 + kap2 * self.a1[:, None, :] + kap2 * kap2 * self.a2[:, None, :]
        return CovarianceTrajectory(self.times, g11, g12, g22, det)


def _dop853(rhs: Callable[[float, np.ndarray], np.ndarray], y0: np.ndarray, t0: float,
            times, rtol: float, atol: float, first_step: float,
            max_step: float = 0.0) -> np.ndarray:
    """The samples (len(times), len(y0)) of y' = rhs(t, y) from y(t0) = y0 on
    scipy's compiled DOP853, with at most RESPONSE_MAX_STEPS steps to each
    sample; a failed step or a non-finite value raises StepFailureError, and
    an exception in rhs is raised as it is."""
    raised = []

    def guarded(t, y):
        if not raised:
            try:
                return rhs(t, y)
            except BaseException as exc:  # re-raised below
                raised.append(exc)
        # the compiled integrator does not stop on an exception; a NaN
        # derivative makes it fail at once
        return np.full_like(y, math.nan)

    solver = ode(guarded).set_integrator(
        "dop853", rtol=rtol, atol=atol, nsteps=RESPONSE_MAX_STEPS, first_step=first_step,
        max_step=max_step)
    solver.set_initial_value(y0, t0)
    # IWORK(4) < 0 of DOP853: no stiffness test, which a fast-varying source
    # trips on this non-stiff system
    solver._integrator.iwork[3] = -1
    ys = np.empty((len(times), len(y0)))
    # overflow surfaces as a failed or non-finite solve, raised below; the
    # integrator reports a failure as a UserWarning plus its return code
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, t in enumerate(times.tolist()):
                ys[i] = solver.integrate(t)
                if raised:
                    raise raised[0]
                if not solver.successful():
                    reason = "; ".join(str(w.message) for w in caught) or \
                        f"return code {solver.get_return_code()}"
                    raise StepFailureError(f"covariance transport failed at t = {t}: {reason}")
    finally:
        # the compiled integrator keeps a reference to the callback and to
        # the integrator object for good (scipy 1.17.1): cut what they hold
        # (rhs is the closure cell that guarded reads), or every integration
        # keeps its RHS buffers and work arrays alive to the end of the process
        rhs = None
        raised.clear()
        vars(solver._integrator).clear()
    if not np.all(np.isfinite(ys)):
        raise StepFailureError("covariance transport produced non-finite values")
    return ys


def _response(freq: ModeFrequency, source: Callable[[float], np.ndarray], amplitudes,
              t_span: tuple[float, float], ic: CovarianceBlock, t_eval,
              rtol: float, atol: float) -> TransportResponse:
    """The response integration of evolve_open: 3 + 5n values, on scipy's
    compiled DOP853; amplitudes is the source at the start."""
    if np.ndim(amplitudes) != 1 or len(amplitudes) == 0:
        raise DomainError("an array-valued source returns a 1-D array of at least one "
                          f"amplitude, got shape {np.shape(amplitudes)}")
    n = len(amplitudes)
    m = 3 + 3 * n  # the covariance values: rows g11, g12, g22 of 1 + n blocks
    k = freq.k
    # the closed flow as a matrix: its columns are the images of the basis
    # blocks; only the three entries that the block (1, 1, 0) maps to are
    # not constant in t
    flow = np.array([transport_rhs_closed(e, freq, t_span[0]) for e in np.eye(3)]).T
    # one derivative buffer for every call: the compiled integrator copies it
    out = np.empty(m + 2 * n)
    d = out[:m].reshape(3, 1 + n)

    def rhs(t, y):
        s = source(t)
        flow[0, 1], flow[1, 0], flow[2, 1] = transport_rhs_open((1.0, 1.0, 0.0), freq, None, t)
        # columns: the closed block, then F_1..F_n
        cols = y[:m].reshape(3, 1 + n)
        np.matmul(flow, cols, out=d)
        ks = k * s
        d[2, 1:] += ks
        np.multiply(ks, cols[0, 0], out=out[m:m + n])  # a1' = k S g11
        np.multiply(ks, cols[0, 1:], out=out[m + n:])  # a2' = k S F11
        return out

    y0 = np.zeros(m + 2 * n)
    y0[:m:1 + n] = (ic.g11, ic.g12, ic.g22)
    times = np.atleast_1d(np.asarray(t_span[1] if t_eval is None else t_eval, dtype=float))
    scale = math.sqrt(1 + n)
    # a given first step: the integrator's own guess reads the response
    # blocks, which start at 0, against atol alone, and can land on a step
    # too small to take or past the end of the span
    y = _dop853(rhs, y0, t_span[0], times, rtol / scale, atol / scale,
                1e-6 * abs(t_span[1] - t_span[0])).T
    return TransportResponse(times=times, g=y[:m:1 + n], F=y[:m].reshape(3, 1 + n, -1)[:, 1:],
                             a1=y[m:m + n], a2=y[m + n:], det0=ic.lam)


def evolve_open(
    freq: ModeFrequency,
    source: Callable[[float], float] | None,
    t_span: tuple[float, float],
    ic: CovarianceBlock | None = None,
    t_eval: Sequence[float] | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> CovarianceTrajectory | TransportResponse:
    """Transport-engine evolution with an optional environment source;
    source=None is the closed (unitary) evolution.

    The state vector is (g11, g12, g22, det): the determinant is
    transported by its own (cancellation-free) equation and is the value
    behind the reported purity.  Each RHS evaluation calls the source
    once and feeds that value to both the g22 term and d(det)/dt.  With
    t_eval=None every step is kept.  The initial det is ic.lam, so an ic
    below the uncertainty bound raises BelowHeisenbergError.  solve_ivp
    silently raises any rtol below RTOL_FLOOR to that floor, so such an
    rtol raises DomainError first.

    A source that returns a 1-D numpy array of n unit amplitudes S_i(t)
    runs the response integration instead and returns a
    TransportResponse, whose `cells(kap2)` are the trajectories of the
    sources kap2[j] * S_i for any couplings kap2: one integration of
    3 + 5n values, whatever the number of couplings.  It runs on scipy's
    compiled DOP853 (`scipy.integrate.ode`), at rtol and atol divided by
    sqrt(1 + n) so that each of the 1 + n blocks meets the scalar error
    criterion (the integrator takes the RMS norm over all components;
    unlike solve_ivp it has no rtol floor).  The closed flow is a 3x3
    matrix built once from the images of the three basis blocks; each RHS
    call refreshes its t-dependent entries from one transport_rhs_open
    call on the block (1, 1, 0), applies it to the closed block and the n
    response blocks at once and writes into one reused buffer (the
    compiled integrator copies it).  It samples t_eval only (the end of
    t_span when None), with at most RESPONSE_MAX_STEPS steps to each
    sample; a failed step or a non-finite value raises StepFailureError,
    and an exception in the source is raised as it is.
    """
    if ic is None:
        ic = CovarianceBlock.vacuum()
    if not rtol >= RTOL_FLOOR:
        raise DomainError(f"rtol = {rtol} is below the floor {RTOL_FLOOR:.3g} of solve_ivp")
    start = None if source is None else source(t_span[0])
    if np.ndim(start) > 0:
        return _response(freq, source, start, t_span, ic, t_eval, rtol, atol)
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
