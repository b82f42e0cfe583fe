"""De Sitter application: inflationary mode pairs with a power-law
environment.

Everything is expressed through the dimensionless time x = -k eta > 0
(conformal time eta < 0, wavenumber scaled to k = 1): x >> 1 is deep
inside the Hubble radius, x = 1 is Hubble crossing, x -> 0 the
super-Hubble limit.  The environment couples when the mode wavelength
exceeds the environment correlation length, i.e. for x < 1/(ell_E H), and
its strength follows a power law a^(p-3) of the scale factor.

Three routes to the dressed covariance are provided and cross-checked by
the test suite: transport integration (`evolve_de_sitter`), Green's-
function quadrature (via `opensys.green_covariance`), and the closed form
in terms of incomplete gamma functions, together with its super-Hubble
asymptotics.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from ._special import logsumexp
from .closed import CovarianceTrajectory, ModeFrequency, ModeState
from .closed import BogoliubovPair
from .discord import DiscordResult, _discord_from_logs, _log_sigma_theta, _scalar_or_array
from .errors import BelowHeisenbergError, DomainError, SingularExponentError, StepFailureError
from .opensys import TransportResponse, _dop853, evolve_open, piecewise_oscillatory_quad
from .specfun import oscillatory_moment, oscillatory_moment_limits
from .symplectic import CovarianceBlock, _half_sin, _ln

__all__ = [
    "CosmoParams",
    "AsymptoticCoefficients",
    "PowerSpectrumCorrection",
    "PsRegime",
    "omega_sq_de_sitter",
    "de_sitter_frequency",
    "de_sitter_mode",
    "de_sitter_bogoliubov",
    "de_sitter_covariance_closed",
    "de_sitter_squeezing",
    "cosmo_kernel",
    "exact_open_covariance",
    "asymptotic_coefficients",
    "approx_open_covariance",
    "sigma0_sq_approx",
    "offset_singular_p",
    "power_spectrum_correction",
    "decoherence_threshold",
    "discord_cosmo",
    "evolve_de_sitter",
]

_SINGULAR_P = (2.0, 4.0, 5.0, 8.0)
_P_TOL = 1e-6
#: distance from an integer within which offset_singular_p moves p
_P_OFFSET = 1e-4
#: the super-Hubble asymptotics hold for x below this
APPROX_X_MAX = 0.1
#: relative error allowed to a source-free evolve_de_sitter run backwards
BACKWARD_ERROR_MAX = 1e-6
#: rtol of the transport route of discord_cosmo (evolve_de_sitter's default)
TRANSPORT_RTOL = 1e-11
#: cells of the discord_cosmo plane evaluated at once (see _plane_blocks)
PLANE_BLOCK_CELLS = 2 ** 16
#: x (Hubble crossing) below which the transport route integrates in
#: e-folds (`_efold_response`).  Four rounds of the map_transport benchmark
#: (seed 0) take 34.3k, 35.0k, 37.5k and 42.0k RHS calls at 2, 1, 0.5 and
#: 0.2; at 1 the conformal-time phase before it is never empty (ellH < 1)
EFOLD_X_SWITCH = 1.0


@dataclass(frozen=True)
class CosmoParams:
    """Dimensionless parameters of the environment-coupled de Sitter run.

    k_over_kstar     observed scale in units of the pivot scale
    kGamma_over_kstar coupling strength (wavenumber units of the pivot)
    p                power-law growth index of the coupling
    ellH             environment correlation length in Hubble units, in (0, 1)
    x_star           -k eta at the reference time (1 when k crosses the
                     Hubble radius at the reference time)
    """

    kGamma_over_kstar: float
    p: float
    ellH: float
    k_over_kstar: float = 1.0
    x_star: float = 1.0

    def __post_init__(self):
        fields = (self.kGamma_over_kstar, self.p, self.ellH, self.k_over_kstar, self.x_star)
        if not all(map(math.isfinite, fields)):
            raise DomainError(f"cosmo parameters must be finite, got {self}")
        if not 0.0 < self.ellH < 1.0:
            raise DomainError(
                f"ellH must be in (0, 1) (sub-Hubble environment), got {self.ellH}"
            )
        if self.kGamma_over_kstar < 0.0:
            raise DomainError("coupling kGamma_over_kstar must be >= 0")
        if self.k_over_kstar <= 0.0 or self.x_star <= 0.0:
            raise DomainError("k_over_kstar and x_star must be positive")

    @property
    def kGamma_over_k(self) -> float:
        return self.kGamma_over_kstar / self.k_over_kstar

    @property
    def x_coupling_on(self) -> float:
        """Largest x at which the environment is active."""
        return 1.0 / self.ellH

    def require_regular_p(self, which: Sequence[float] = _SINGULAR_P) -> None:
        for p0 in which:
            if abs(self.p - p0) < _P_TOL:
                raise SingularExponentError(
                    f"p = {self.p} is within {_P_TOL} of the logarithmic case p = {p0}"
                )


def omega_sq_de_sitter(k: float, eta: float) -> float:
    """Squared frequency k^2 - 2/eta^2 of the de Sitter mode equation."""
    if eta >= 0.0:
        raise DomainError(f"conformal time must be negative, got {eta}")
    return k * k - 2.0 / (eta * eta)


def de_sitter_frequency() -> ModeFrequency:
    """De Sitter frequency at k = 1 (time variable eta = -x)."""
    return ModeFrequency(1.0, omega_sq_de_sitter)


def de_sitter_mode(x: float) -> ModeState:
    """Closed-form mode function with vacuum data in the far past.

    v(x) = (1 + i/x) e^{ix}, reported with its conformal-time derivative
    at time eta = -x (k = 1); the Wronskian is 2i identically.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    phase = complex(math.cos(x), math.sin(x))
    v = (1.0 + 1j / x) * phase
    dv = phase * (1j / (x * x) + 1.0 / x - 1j)
    return ModeState(v=v, dv=dv, time=-x)


def de_sitter_bogoliubov(x: float) -> BogoliubovPair:
    """Closed-form Bogoliubov pair: u = (1 + i/x - 1/(2x^2)) e^{ix},
    w = e^{-ix}/(2x^2); |u|^2 - |w|^2 = 1 identically."""
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    phase = complex(math.cos(x), math.sin(x))
    u = (1.0 + 1j / x - 0.5 / (x * x)) * phase
    w = phase.conjugate() * 0.5 / (x * x)
    return BogoliubovPair(u=u, w=w)


def de_sitter_covariance_closed(x: float) -> CovarianceBlock:
    """Covariance of the free de Sitter mode pair:
    g11 = 1 + 1/x^2, g12 = 1/x^3, g22 = 1 - 1/x^2 + 1/x^4 (det = 1)."""
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    inv2 = 1.0 / (x * x)
    return CovarianceBlock(
        g11=1.0 + inv2,
        g12=inv2 / x,
        g22=1.0 - inv2 + inv2 * inv2,
    )


def de_sitter_squeezing(x: float) -> tuple[float, float]:
    """Squeezing parameters (r, phi) of the free de Sitter state.

    r = arccosh(1 + 1/(2x^4)) / 2, evaluated in log1p form; the angle
    branch is fixed so that phi is continuous across x = 1/sqrt(2),
    decreases from -pi/2 (far past) towards 0, and sin(2 phi) < 0
    throughout (the amplitude grows).
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    delta = 0.5 / x ** 4
    r = 0.5 * math.log1p(delta + math.sqrt(delta * (2.0 + delta)))
    phi = 0.5 * math.atan2(-2.0 * x, 1.0 - 2.0 * x * x)
    return r, phi


def _power_law(params: CosmoParams, expo, x: float):
    """The unit amplitude 2 (x_star/x)^expo of the power-law environment;
    expo is a float, or an array of p - 3 for a row of p."""
    return 2.0 * (params.x_star / x) ** expo


def cosmo_kernel(params: CosmoParams) -> Callable[[float], float]:
    """Dimensionless source S(x) = 2 (kGamma/k)^2 (x_star/x)^(p-3), active
    only once the mode is longer than the environment correlation length
    (x < 1/(ell_E H)); returned as a function of conformal time eta = -x.
    """
    kap2, expo, x_on = _kap2_row(params)[0], params.p - 3.0, params.x_coupling_on

    def source(eta: float) -> float:
        x = -eta
        if x <= 0.0 or x >= x_on:
            return 0.0
        return kap2 * _power_law(params, expo, x)

    return source


# ---------------------------------------------------------------------------
# exact dressed covariance (incomplete-gamma closed form)
# ---------------------------------------------------------------------------

def _power_bracket(x: float, p: float, ellH: float) -> float:
    """int_{1/ellH}^x t^{1-p} (1 + t^2) dt in closed form."""
    lam = 1.0 / ellH
    return (
        x ** (2.0 - p) / (2.0 - p)
        + x ** (4.0 - p) / (4.0 - p)
        - lam ** (2.0 - p) / (2.0 - p)
        - lam ** (4.0 - p) / (4.0 - p)
    )


def _g11_node(x: float, params: CosmoParams) -> tuple:
    """(v2, corr11, parts): the coupling-free pieces of g11 = v2 - 2 kap2
    corr11 at x, kap2 = (kGamma/k)^2, with only the work g11 needs (the
    three moments, the power bracket and the mode); parts = (mode, xsp, br,
    e, m1, m2, m3) lets `_exact_open_terms` build the other entries.  They
    depend on p, ellH and x_star, not on the coupling."""
    params.require_regular_p((2.0, 4.0))
    if not 0.0 < x < params.x_coupling_on:
        raise DomainError(
            f"x = {x} outside the coupled window (0, {params.x_coupling_on})"
        )
    p, ellH, xs = params.p, params.ellH, params.x_star
    xsp = xs ** (p - 3.0)
    m1 = oscillatory_moment(1.0 - p, x, ellH)
    m2 = oscillatory_moment(2.0 - p, x, ellH)
    m3 = oscillatory_moment(3.0 - p, x, ellH)
    br = _power_bracket(x, p, ellH)
    e = complex(math.cos(2.0 * x), -math.sin(2.0 * x))  # e^{-2ix}
    mode = de_sitter_mode(x)

    i11_1 = xsp * (1.0 + x * x) / (2.0 * x * x) * br
    i11_2 = xsp / (4.0 * x * x) * e * (
        (x * x - 1.0 - 2j * x) * (m1 - m3) - (4.0 * x + 2j * x * x - 2j) * m2
    )
    corr11 = i11_1 + 2.0 * i11_2.real
    return abs(mode.v) ** 2, corr11, (mode, xsp, br, e, m1, m2, m3)


def _exact_open_terms(x: float, params: CosmoParams) -> tuple:
    """Coupling-free pieces (v2, dv2, vdv, corr11, corr12, corr22) of the
    dressed covariance: g11 = v2 - 2 kap2 corr11, g12 = vdv - 2 kap2 corr12,
    g22 = dv2 - 2 kap2 corr22 with kap2 = (kGamma/k)^2 (g11's from
    `_g11_node`)."""
    v2, corr11, (mode, xsp, br, e, m1, m2, m3) = _g11_node(x, params)
    dv2 = abs(mode.dv) ** 2
    vdv = (mode.v * mode.dv.conjugate()).real

    i12_1 = 0.5 * xsp / x ** 3 * br
    i12_2 = -1j * xsp / (4.0 * x ** 3) * e * (x - 1j) * (x * (x - 1j) - 1.0) \
        * (-m1 + 2j * m2 + m3)
    corr12 = i12_1 + 2.0 * i12_2.real

    w = 1.0 - 2.0 / (x * x)
    i22_1 = 1.5 * xsp / x ** 4 * br
    i22_2 = xsp / (4.0 * x ** 4) * e * (
        3.0 + 2.0 * x * (3j + x * (-3.0 - 2j * x + x * x))
    ) * (-m1 + 2j * m2 + m3)
    corr22 = i22_1 + 2.0 * i22_2.real + w * corr11
    return v2, dv2, vdv, corr11, corr12, corr22


def _dressed_block(terms: tuple, kap2: float) -> CovarianceBlock:
    v2, dv2, vdv, corr11, corr12, corr22 = terms
    return CovarianceBlock(
        g11=v2 - 2.0 * kap2 * corr11,
        g12=vdv - 2.0 * kap2 * corr12,
        g22=dv2 - 2.0 * kap2 * corr22,
    )


def exact_open_covariance(x: float, params: CosmoParams, kGamma_over_kstar=None):
    """Environment-dressed covariance assembled from closed-form moments.

    Valid for 0 < x < 1/(ell_E H); p must stay away from the logarithmic
    values {2, 4} (and from integer p, where the gamma orders hit poles).
    The paired oscillatory terms are combined as twice the real part of
    one of them, so the result is real by construction.

    kGamma_over_kstar, when given, replaces the coupling of params: a
    scalar (one block out), or a 1-D array for a row of couplings at one
    p (a list of blocks out, the coupling-free terms evaluated once).
    """
    terms = _exact_open_terms(x, params)
    blocks = [_dressed_block(terms, kap2) for kap2 in _kap2_row(params, kGamma_over_kstar)]
    return blocks[0] if np.ndim(kGamma_over_kstar) == 0 else blocks


def _row(values, what: str) -> np.ndarray:
    """values, a scalar or a non-empty 1-D array, as a 1-D float array."""
    row = np.atleast_1d(np.asarray(values, dtype=float))
    if row.ndim != 1 or row.size == 0:
        raise DomainError(f"{what} must be a scalar or a non-empty 1-D array")
    return row


def _coupling_row(params: CosmoParams, kGamma_over_kstar) -> np.ndarray:
    """The couplings kGamma/k* of a row as a 1-D array: kGamma_over_kstar
    (a scalar or a 1-D array), or the coupling of params when it is None."""
    if kGamma_over_kstar is None:
        kGamma_over_kstar = params.kGamma_over_kstar
    couplings = _row(kGamma_over_kstar, "couplings")
    if not np.all((couplings >= 0.0) & (couplings < math.inf)):
        raise DomainError("coupling kGamma_over_kstar must be finite and >= 0")
    return couplings


def _kap2_row(params: CosmoParams, kGamma_over_kstar=None) -> list:
    """(kGamma/k)^2 of each coupling of a row (see _coupling_row), one
    float pow each, as CosmoParams.kGamma_over_k ** 2: the one coupling^2
    rule of every route."""
    return [(kg / params.k_over_kstar) ** 2
            for kg in _coupling_row(params, kGamma_over_kstar).tolist()]


def exact_open_det(x: float, params: CosmoParams, kGamma_over_kstar=None):
    """det of the dressed covariance, via its own growth law.

    d(det)/d eta = S gamma_11 integrated against the exact gamma_11: this
    sidesteps the catastrophic cancellation of forming g11 g22 - g12^2
    from large entries.  x must be positive and finite; x >= 1/ellH, where
    the environment is off, gives det = 1.

    kGamma_over_kstar, when given, replaces the coupling of params: a
    scalar (float out), or a 1-D array for a row of couplings at one p
    (array out).  Each coupling has its own quadrature, with the same
    arithmetic as a scalar call, but the coupling-free terms of gamma_11
    are evaluated once per quadrature node for the whole row.

    The integrand is one float per node, g11 = v2 - 2 kap2 corr11 from
    `_g11_node`; no CovarianceBlock is built.  The node guard raises
    BelowHeisenbergError unless 0 < g11 < inf (NaN included).  g12, g22
    and their determinant are not checked at the nodes: the growth law
    never reads them.

    The quadrature asks for 1e-10 relative accuracy; its error estimate
    is not returned or checked.  Over the
    map_exact benchmark workload (seeds 0-5, two rounds each) 48 of 708
    quadratures emit scipy's IntegrationWarning (x 0.022-0.065, p
    7.1-9.8).  In 37 of them, all at x <= 0.05 and p >= 9.2, the estimate
    exceeds 1e-8 relative to det, up to 1.9e-5; those 37 would fail the
    error check of `opensys.green_covariance`.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive and finite, got {x}")
    hi, expo = params.x_coupling_on, params.p - 3.0
    node = functools.cache(lambda xp: _g11_node(xp, params)[:2])

    def det(kap2: float) -> float:
        if x >= hi:
            return 1.0

        # the quadrature nodes lie inside (x, hi), where the source is on
        def f(xp: float) -> float:
            v2, corr11 = node(xp)
            g11 = v2 - 2.0 * kap2 * corr11
            if not 0.0 < g11 < math.inf:  # False for NaN too
                raise BelowHeisenbergError(
                    f"diagonal entries must be positive, got g11 = {g11} at x = {xp}")
            return kap2 * _power_law(params, expo, xp) * g11

        val, _ = piecewise_oscillatory_quad(f, x, hi, math.pi / 2.0, epsrel=1e-10)
        return 1.0 + val

    dets = [det(kap2) for kap2 in _kap2_row(params, kGamma_over_kstar)]
    return dets[0] if np.ndim(kGamma_over_kstar) == 0 else np.array(dets)


# ---------------------------------------------------------------------------
# super-Hubble asymptotics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Independent coefficients of the super-Hubble expansion of the
    dressed covariance.  aNM is the coefficient of the non-analytic power
    x^(const - p) in component NM; b11, d11 and f11 fix every analytic
    power (the rest of the series is a rational multiple of one of them,
    b12 = b22 = b11 among them).
    """

    p: float
    ellH: float
    x_star: float
    a11: float
    a12: float
    a22: float
    b11: float
    d11: float
    f11: float

    @property
    def _p_factors(self) -> tuple:
        """(x_star^(p-3), ellH bracket, quartic bracket, pole denominator) of
        sigma0_sq_coefficients, in Python floats: numpy's array pow can
        differ from float pow in the last bit."""
        p, ellH, b, d, f = self.p, self.ellH, self.b11, self.d11, self.f11
        ell = ellH ** (p - 4.0) / (p - 4.0) + ellH ** (p - 2.0) / (p - 2.0)
        return (self.x_star ** (p - 3.0), ell, 4.0 * b ** 2 - 9.0 * d ** 2 + 36.0 * b * f,
                (p - 5.0) ** 2 * (p - 8.0) * (p - 2.0))


def offset_singular_p(p: float) -> float:
    """p moved off the singular values of the coefficient table.

    Every integer n >= 2 is a pole of the table's gamma orders 2-p, 3-p
    and 4-p (and n in {2, 4, 5, 8} also zeroes its denominators), so p
    within 1e-4 of such an n is replaced by n + 1e-4; the table is smooth
    across the pole at that distance.
    """
    n = round(p)
    if n >= 2 and abs(p - n) < _P_OFFSET:
        return n + _P_OFFSET
    return p


def asymptotic_coefficients(params: CosmoParams) -> AsymptoticCoefficients:
    """Coefficient table for the super-Hubble expansion.

    Rejects p within 1e-6 of {2, 4, 5, 8} (vanishing denominators turn
    those powers logarithmic).  Other integer p >= 2 can still hit poles
    of individual gamma orders; `offset_singular_p` moves p off all of
    them.
    """
    params.require_regular_p()
    p, ellH, xs = params.p, params.ellH, params.x_star
    xsp = xs ** (p - 3.0)
    r1, i1 = oscillatory_moment_limits(1.0 - p, ellH)
    r2, i2 = oscillatory_moment_limits(2.0 - p, ellH)
    r3, i3 = oscillatory_moment_limits(3.0 - p, ellH)
    den = (p - 8.0) * (p - 5.0) * (p - 2.0)

    a11 = -2.0 * xsp / den
    b11 = 0.5 * xsp * (
        ellH ** (p - 4.0) / (p - 4.0)
        + ellH ** (p - 2.0) / (p - 2.0)
        - r1 - 2.0 * i2 + r3
    )
    d11 = xsp / 3.0 * (-i1 + 2.0 * r2 + i3)
    f11 = xsp / 9.0 * (r1 + 2.0 * i2 - r3)
    a12 = -xsp * (p - 6.0) / den
    a22 = -(26.0 + p * (p - 11.0)) * xsp / den
    return AsymptoticCoefficients(p=p, ellH=ellH, x_star=xs, a11=a11, a12=a12, a22=a22,
                                  b11=b11, d11=d11, f11=f11)


def _require_super_hubble(x: float) -> None:
    if not 0.0 < x < APPROX_X_MAX:
        raise DomainError(
            f"super-Hubble approximation needs 0 < x < {APPROX_X_MAX}, got {x}")


def _stack_tables(tables: Sequence[AsymptoticCoefficients]) -> SimpleNamespace:
    """What `_approx_terms` and `sigma0_sq_coefficients` read of a table,
    as (n_p, 1) columns over the tables: with a coupling row kap2 they
    then evaluate the (p, coupling) plane as array code."""
    return SimpleNamespace(**{name: np.array([getattr(t, name) for t in tables]).T[..., None]
                              for name in ("p", "a11", "a12", "a22", "b11", "_p_factors")})


def _approx_terms(t: AsymptoticCoefficients, kap2):
    """Leading super-Hubble terms of g11, g12, g22 as (coeffs, exps):
    component c is g_c(x) = sum_i coeffs[i, c] x^exps[i, c] over the two
    terms i.  kap2 = (kGamma/k)^2 is a scalar or an array of couplings
    sharing the table t, or a row against tables stacked by `_stack_tables`;
    the shapes of kap2 and t.p trail those of coeffs and exps."""
    p = t.p
    free = 1.0 - 2.0 * kap2 * t.b11  # b12 = b22 = b11
    coeffs = np.array([
        [free, free, free],
        [-2.0 * kap2 * t.a11, -2.0 * kap2 * t.a12, -2.0 * kap2 * t.a22],
    ])
    exps = np.reshape(np.broadcast_arrays(-2.0, -3.0, -4.0, 6.0 - p, 5.0 - p, 4.0 - p),
                      (2, 3) + np.shape(p))
    return coeffs, exps


def approx_open_covariance(x: float, params: CosmoParams) -> CovarianceBlock:
    """Leading super-Hubble form of the dressed covariance (x < 0.1)."""
    _require_super_hubble(x)
    coeffs, exps = _approx_terms(asymptotic_coefficients(params), _kap2_row(params)[0])
    g11, g12, g22 = (coeffs * x ** exps).sum(axis=0).tolist()
    return CovarianceBlock(g11=g11, g12=g12, g22=g22)


def sigma0_sq_coefficients(t: AsymptoticCoefficients, kap2) -> tuple:
    """Super-Hubble coefficients of sigma^2(0) from the coefficient table
    t at coupling kap2 = (kGamma/k)^2, a scalar or an array (or, as in
    `_approx_terms`, a row against stacked tables).

    Returns (s0_2, s0_4, sx_2, sx_4, sxx_4): the quadratic/quartic
    coupling pieces of the constant term and of the x^(2-p) term, plus
    the purely quartic coefficient of x^(10-2p).  The last one comes from
    the squared non-analytic corrections and is what dominates the
    determinant growth once p > 8 (for p < 8 it is subleading).

    Each is the closed form of its sum over the series coefficients, so
    that the exact cancellations of those sums (the moment limits out of
    s0_2, the factor p - 8 out of sxx_4) happen in the algebra, not in
    floating point.
    """
    xsp, ell, quartic, pole = t._p_factors
    s0_2 = -2.0 * kap2 * xsp * ell
    s0_4 = kap2 * kap2 * quartic
    sx_2 = 2.0 * kap2 * xsp / (t.p - 2.0)
    sx_4 = -2.0 * kap2 * t.b11 * sx_2
    sxx_4 = 4.0 * kap2 * kap2 * xsp * xsp / pole
    return s0_2, s0_4, sx_2, sx_4, sxx_4


def sigma0_sq_approx(x: float, params: CosmoParams) -> float:
    """Super-Hubble sigma^2(0) = det of the dressed covariance:
    1 + Sigma_0 + Sigma_{2-p} x^{2-p} + Sigma_{10-2p} x^{10-2p} with both
    coupling orders (quadratic and quartic) from `sigma0_sq_coefficients`;
    this is the form that tracks the transported determinant."""
    _require_super_hubble(x)
    p = params.p
    s0_2, s0_4, sx_2, sx_4, sxx_4 = sigma0_sq_coefficients(
        asymptotic_coefficients(params), _kap2_row(params)[0])
    return 1.0 + s0_2 + s0_4 + (sx_2 + sx_4) * x ** (2.0 - p) \
        + sxx_4 * x ** (10.0 - 2.0 * p)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

class PsRegime(enum.Enum):
    P_LT_4 = "p_lt_4"
    P_4_TO_8 = "p_4_to_8"
    P_GT_8 = "p_gt_8"


@dataclass(frozen=True)
class PowerSpectrumCorrection:
    """Relative environment-induced correction to the power spectrum.

    For p < 8 the correction freezes on super-Hubble scales and ``value``
    is the frozen number; for p > 8 it keeps growing and ``value`` is the
    prefactor of (x/x_star)^(8-p).
    """

    value: float
    regime: PsRegime
    time_dependent: bool
    k_exponent: float


def _reflected_gamma_cos(p: float) -> float:
    """Gamma(2-p) cos(pi p / 2) through the reflection formula,
    regular at odd p; p -> 6 is a removable point of the full product
    (6-p) Gamma(2-p) cos(pi p/2) and handled by the caller."""
    return -math.pi / (2.0 * math.sin(math.pi * p / 2.0) * math.gamma(p - 1.0))


def power_spectrum_correction(params: CosmoParams) -> PowerSpectrumCorrection:
    """Piecewise closed form of the relative power-spectrum correction."""
    params.require_regular_p((4.0, 8.0))
    p = params.p
    kap_star2 = params.kGamma_over_kstar ** 2
    kk = params.k_over_kstar
    if p < 4.0:
        value = params.ellH ** (p - 4.0) / (4.0 - p) * kap_star2 * kk ** (p - 5.0)
        return PowerSpectrumCorrection(value, PsRegime.P_LT_4, False, p - 5.0)
    if p < 8.0:
        if abs(p - 6.0) < 1e-9:
            # removable zero-times-pole: (6-p)/sin(pi p/2) -> 2/pi
            combo = (3.0 - p) * (2.0 / math.pi) * (-math.pi / 2.0) / math.gamma(p - 1.0)
        else:
            combo = (3.0 - p) * (6.0 - p) * _reflected_gamma_cos(p)
        value = 2.0 ** (p - 4.0) * combo * kap_star2 * kk ** (p - 5.0)
        return PowerSpectrumCorrection(value, PsRegime.P_4_TO_8, False, p - 5.0)
    den = (p - 8.0) * (p - 5.0) * (p - 2.0)
    value = 4.0 / den * kap_star2 * kk ** 3
    return PowerSpectrumCorrection(value, PsRegime.P_GT_8, True, 3.0)


def decoherence_threshold(params: CosmoParams, a_over_astar: float) -> float:
    """Coupling threshold kGamma/k* above which the pivot-scale state
    decoheres: (ellH)^(2 - p/2) for p < 2, (a/a*)^(1 - p/2) for p > 2,
    the larger of the two at the crossover."""
    if a_over_astar <= 0.0:
        raise DomainError("a_over_astar must be positive")
    lo = params.ellH ** (2.0 - 0.5 * params.p)
    hi = a_over_astar ** (1.0 - 0.5 * params.p)
    if abs(params.p - 2.0) < _P_TOL:
        return max(lo, hi)
    return lo if params.p < 2.0 else hi


# ---------------------------------------------------------------------------
# discord
# ---------------------------------------------------------------------------

def _signed_log_sum(coeffs, exps, ln_x: float):
    """(ln|sum|, sign) of sum_i c_i x^{e_i} along axis 0, given ln x."""
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(coeffs)) + exps * ln_x
    return logsumexp(logs, np.sign(coeffs))


def _log_sigmas_approx(x: float, theta: float, t: SimpleNamespace, kap2: np.ndarray):
    """(ln sigma(0)^2, ln q), q = m^2 sin^2(2 theta) / 4, from the
    super-Hubble asymptotics over the plane of the tables stacked in t
    and the couplings kap2, assembled entirely in the log domain so that
    x as small as e^-700 stays representable.  A sigma(0)^2 that the
    truncated series puts below 1 reads as 1 (purity 1; see the README
    numerical notes)."""
    _require_super_hubble(x)
    ln_x = math.log(x)

    # sigma^2(0) = 1 + Sigma_0 + Sigma_{2-p} x^{2-p} + Sigma_{10-2p} x^{10-2p}
    s0_2, s0_4, sx_2, sx_4, sxx_4 = sigma0_sq_coefficients(t, kap2)
    ln_s0sq, sgn0 = _signed_log_sum(
        np.stack(np.broadcast_arrays(1.0, s0_2 + s0_4, sx_2 + sx_4, sxx_4)),
        np.stack(np.broadcast_arrays(0.0, 0.0, 2.0 - t.p, 10.0 - 2.0 * t.p)), ln_x)
    # clamp to the pure-state floor sigma(0) = 1
    ln_s0sq = np.where((sgn0 <= 0.0) | (ln_s0sq < 0.0), 0.0, ln_s0sq)

    coeffs, exps = _approx_terms(t, kap2)
    (ln11, ln12, ln22), (s11, _, s22) = _signed_log_sum(coeffs, exps, ln_x)
    # (g11 - g22)^2 + 4 g12^2, as logs
    ln_diff, _ = logsumexp(np.stack((ln11, ln22)), np.stack((s11, -s22)))
    ln_m2 = np.logaddexp(2.0 * ln_diff, math.log(4.0) + 2.0 * ln12)
    return ln_s0sq, ln_m2 + 2.0 * _ln(_half_sin(theta))


def _plane_blocks(n_p: int, n_k: int, cells: int):
    """(rows, cols) slices that cover an (n_p, n_k) plane, row-major: whole
    p rows while they fit in `cells` cells, else one row in pieces of `cells`."""
    rows, cols = max(1, cells // n_k), min(n_k, cells)
    for i in range(0, n_p, rows):
        for j in range(0, n_k, cols):
            yield slice(i, i + rows), slice(j, j + cols)


def _approx_block(x: float, theta: float, params: CosmoParams, ps, couplings):
    """(ln sigma(0)^2, ln q) of a block: one coefficient table per p."""
    tables = _stack_tables([asymptotic_coefficients(replace(params, p=p)) for p in ps.tolist()])
    return _log_sigmas_approx(x, theta, tables, np.array(_kap2_row(params, couplings)))


def _exact_block(x: float, theta: float, params: CosmoParams, ps, couplings):
    """(ln sigma(0)^2, ln q) of a block: one exact_open_covariance and one
    exact_open_det call per p row, read as the samples at x of a trajectory."""
    g = np.empty((4, len(ps), len(couplings), 1))  # g11, g12, g22, det
    for i, p in enumerate(ps.tolist()):
        row = replace(params, p=p)
        g[:3, i, :, 0] = np.transpose([(b.g11, b.g12, b.g22) for b in
                                       exact_open_covariance(x, row, kGamma_over_kstar=couplings)])
        g[3, i, :, 0] = exact_open_det(x, row, kGamma_over_kstar=couplings)
    return CovarianceTrajectory(np.array([-x]), *g)._log_sigmas(theta)


def _efold_response(start: TransportResponse, x: float, ps, x_star: float,
                    rtol: float) -> TransportResponse:
    """The plane's response carried from its one sample at x_s = -start.times
    down to x < x_s in e-folds N = -ln x, on scaled variables that stay
    O(1) outside the Hubble radius: the closed block as u = (x^2 g11,
    x^3 g12, x^4 g22), each F_i as the same scaling times x^cF with
    cF = max(p - 8, 0), a1 times x^c1 with c1 = max(p - 2, 0) and a2 times
    x^c2 with c2 = max(p - 2 + cF, 0).  Then du/dN = M(x) u with

        M = [[-2, 2, 0], [2 - x^2, -3, 1], [0, 4 - 2 x^2, -4]],

    the F_i follow M - cF plus their unit source on row 3, and a1, a2 decay
    at c1, c2 under theirs; the three source powers 2 x_star^(p-3) times
    x^(cF+8-p), x^(c1+2-p) and x^(c2+2-p-cF), none of them negative, come
    from one exp per call.  The error control is relative only, at rtol
    over sqrt(1 + n) like the conformal-time phase: an atol on the scaled
    values was measured to cost ln sigma(0) accuracy.  The result is
    unscaled at x, where entries past the double range become inf."""
    n = len(ps)
    m = 3 + 3 * n
    c_f, c_1 = np.maximum(ps - 8.0, 0.0), np.maximum(ps - 2.0, 0.0)
    c_2 = np.maximum(ps - 2.0 + c_f, 0.0)
    # the scale power of each state value: rows of (closed, F_1..F_n), a1, a2
    powers = np.concatenate(((np.arange(2.0, 5.0)[:, None] + np.append(0.0, c_f)).ravel(),
                             c_1, c_2))
    decay = np.concatenate((np.tile(np.append(0.0, c_f), 3), c_1, c_2))
    forcing = np.stack((8.0 - ps + c_f, 2.0 - ps + c_1, 2.0 - ps - c_f + c_2))
    ln_amp = math.log(2.0) + (ps - 3.0) * math.log(x_star)
    flow = np.array([[-2.0, 2.0, 0.0], [2.0, -3.0, 1.0], [0.0, 4.0, -4.0]])
    # one derivative buffer, as in `opensys._response`, with views of its parts
    out = np.empty(m + 2 * n)
    d, d_f22, d_a1, d_a2 = out[:m].reshape(3, 1 + n), out[m - n:m], out[m:m + n], out[m + n:]

    def rhs(efolds, y):
        x2 = math.exp(-2.0 * efolds)
        flow[1, 0], flow[2, 1] = 2.0 - x2, 4.0 - 2.0 * x2
        np.matmul(flow, y[:m].reshape(3, 1 + n), out=d)
        # each source power stops at e^-230 of its amplitude, where it moves
        # no value: falling on, its share of DOP853's error norm would be
        # squared below the smallest normal double, and the norm's
        # 1 / sqrt(...) overflow, when every other share is exactly 0
        s = np.exp(ln_amp + np.maximum(forcing * -efolds, -230.0))
        np.add(d_f22, s[0], out=d_f22)
        np.multiply(s[1], y[0], out=d_a1)  # a1' = S g11
        np.multiply(s[2], y[1:1 + n], out=d_a2)  # a2' = S F11
        np.subtract(out, decay * y, out=out)
        return out

    x_s = -float(start.times[-1])
    y0 = np.concatenate((np.hstack((start.g, start.F[:, :, -1])).ravel(),
                         start.a1[:, -1], start.a2[:, -1])) * x_s ** powers
    n0, n1 = -math.log(x_s), -math.log(x)
    # the scaled modes decay at up to rate per e-fold; a step h below 2 / rate
    # keeps DOP853's amplification of each within 4e-5 of e^(-rate h).
    # Unbounded, the steps settle near the edge of its stability interval
    # (-6.3, 0), where the error estimate misses the decaying modes
    rate = max(6.0 + c_f.max(), c_2.max())
    y = _dop853(rhs, y0, n0, np.array([n1]), rtol / math.sqrt(1 + n), 0.0, 0.0,
                max_step=2.0 / rate)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        y = y * x ** -powers
    return TransportResponse(times=np.array([-x]), g=y[:m:1 + n, None],
                             F=y[:m].reshape(3, 1 + n, 1)[:, 1:],
                             a1=y[m:m + n, None], a2=y[m + n:, None], det0=start.det0)


def _transport_block(x: float, theta: float, params: CosmoParams, ps, couplings):
    """(ln sigma(0)^2, ln q) of a block: one evolve_de_sitter response
    integration over the unit sources of its p rows from 1/ellH down to x,
    or down to EFOLD_X_SWITCH and on in e-folds (`_efold_response`) when x
    is below it, and each cell formed from the response polynomials in its
    kap2.  The unit source is on over all of [x, 1/ellH], its start
    included.  A cell beyond the range of doubles raises StepFailureError."""
    x_s = max(x, EFOLD_X_SWITCH)
    expo = ps - 3.0
    response = evolve_de_sitter(params.x_coupling_on, x_s, x_eval=(x_s,), rtol=TRANSPORT_RTOL,
                                source=lambda eta: _power_law(params, expo, -eta))
    if x < x_s:
        response = _efold_response(response, x, ps, params.x_star, TRANSPORT_RTOL)
    with np.errstate(over="ignore", invalid="ignore"):
        cells = response.cells(_kap2_row(params, couplings))
    if not all(np.isfinite(f).all() for f in (cells.g11, cells.g12, cells.g22, cells.det)):
        raise StepFailureError(f"the transported covariance at x = {x} exceeds the range of "
                               "doubles")
    return cells._log_sigmas(theta)


_ROUTES = {"approx": _approx_block, "exact": _exact_block, "transport": _transport_block}
#: the methods of discord_cosmo
DISCORD_METHODS = tuple(_ROUTES)


def discord_cosmo(
    x: float,
    theta: float,
    params: CosmoParams,
    method: str = "approx",
    kGamma_over_kstar=None,
    p=None,
) -> DiscordResult:
    """Quantum discord of the dressed de Sitter state across partition theta.

    method="exact":    closed-form covariance + quadrature determinant,
                       inside the coupled window; its precision at small
                       x depends on p (against transport at kGamma/k* =
                       10, ellH = 0.1: p = 2.1 agrees to 1.5e-12 down to
                       x = 1e-5; p = 6.1 is off by 7.5e-8 at x = 1e-2 and
                       by 2.9e-3 at x = 1e-3).
    method="approx":   super-Hubble asymptotics in the log domain; valid
                       for 0 < x < 0.1, arbitrarily small.
    method="transport": integrate the covariance down to x (reference);
                       one evolve_open response integration per block,
                       whatever the number of couplings, in conformal
                       time down to x = 1 and in e-folds below it.

    kGamma_over_kstar, when given, replaces the coupling of params, and p
    its growth index: each is a scalar or a non-empty 1-D array.  Every
    field of the result has one axis per array given, p first: (n_p, n_k)
    with both, a float with neither.

    Every route runs in the blocks of `_plane_blocks`, of at most
    PLANE_BLOCK_CELLS = 2^16 cells, which bounds the memory.  The approx
    and exact routes equal per-row calls bit for bit.  The transport route
    integrates the unit sources 2 (x_star/x)^(p_i - 3) of a block's p rows
    as one response (`opensys.TransportResponse`) and forms each cell from
    its kap2 polynomials; its cost does not grow with the couplings.  It
    agrees with per-row calls to ~1e-11 (the response divides
    TRANSPORT_RTOL by sqrt(1 + rows)).  Below x = EFOLD_X_SWITCH = 1 the
    response goes on in e-folds N = -ln x on variables scaled by their
    super-Hubble powers (`_efold_response`): its steps no longer shrink
    with x, and on the map_transport benchmark it takes about half the
    RHS calls of a run in conformal time all the way.  Where a cell's
    entries or determinant pass the range of doubles (default ranges at
    ellH = 0.1 below about x = e^-67) it raises StepFailureError.
    """
    couplings = _coupling_row(params, kGamma_over_kstar)
    ps = _row(params.p if p is None else p, "p")
    if not math.isfinite(theta):
        raise DomainError(f"partition angle must be finite, got {theta}")
    if method not in _ROUTES:
        raise DomainError(f"unknown method {method!r}; expected one of {DISCORD_METHODS}")
    ln_s0sq, ln_q, d = np.empty((3, len(ps), len(couplings)))
    for block in _plane_blocks(len(ps), len(couplings), PLANE_BLOCK_CELLS):
        logs = _ROUTES[method](x, theta, params, ps[block[0]], couplings[block[1]])
        ln_s0sq[block], ln_q[block] = np.reshape(logs, (2, *d[block].shape))
        d[block] = _discord_from_logs(ln_s0sq[block], ln_q[block])[0]
    axes = (0 if np.ndim(p) == 0 else slice(None),
            0 if np.ndim(kGamma_over_kstar) == 0 else slice(None))
    return DiscordResult(*(_scalar_or_array(f[axes]) for f in
                           (d, _log_sigma_theta(ln_s0sq, ln_q), 0.5 * ln_s0sq)))


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def evolve_de_sitter(
    x_start: float,
    x_end: float,
    source: Callable[[float], float] | None = None,
    x_eval: Sequence[float] | None = None,
    rtol: float = TRANSPORT_RTOL,
    atol: float = 1e-12,
) -> CovarianceTrajectory | TransportResponse:
    """Transport the de Sitter covariance from x_start to x_end, seeded
    with the free closed form at x_start (exact while the source is off).
    A source of unit amplitudes (a 1-D array per time) runs the response
    integration of `evolve_open` and returns its TransportResponse.

    The trajectory runs in conformal time eta = -x; x_eval, when given,
    lists the x at which it is sampled.  A source only adds to the
    determinant forward in time, so it needs x_end < x_start; unitary
    evolution (source=None) runs either way.

    Backwards (x_end > x_start) the decaying super-Hubble solution grows
    back, and the relative error of g11 and g22 reaches about
    0.02 rtol / x_start^6 (measured against the closed form for x_start
    0.01 to 0.5, rtol 1e-12 to 1e-8, x_end 1 to 100).  A backward run
    whose error would exceed 1e-6 by that rule raises DomainError: at
    the default rtol, x_start must be at least 0.077.
    """
    if not (x_start > 0.0 and x_end > 0.0):
        raise DomainError(f"x must be positive, got x_start={x_start}, x_end={x_end}")
    if source is not None and not x_end < x_start:
        raise DomainError(f"a source needs x_end < x_start, got {x_end} >= {x_start}")
    if x_end > x_start and 0.02 * rtol > BACKWARD_ERROR_MAX * x_start ** 6:
        raise DomainError(
            f"backward evolution from x_start = {x_start} at rtol = {rtol} would "
            f"lose more than {BACKWARD_ERROR_MAX} relative accuracy")
    t_eval = None if x_eval is None else [-float(xx) for xx in x_eval]
    return evolve_open(de_sitter_frequency(), source, (-x_start, -x_end),
                       ic=de_sitter_covariance_closed(x_start), t_eval=t_eval,
                       rtol=rtol, atol=atol)
