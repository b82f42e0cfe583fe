"""De Sitter application: inflationary mode pairs with a power-law
environment.

Everything is expressed through the dimensionless time x = -k eta > 0
(conformal time eta < 0, wavenumber scaled to k = 1): x >> 1 is deep
inside the Hubble radius, x = 1 is Hubble crossing, x -> 0 the
super-Hubble limit.  The environment couples when the mode wavelength
exceeds the environment correlation length, i.e. for x < 1/(ell_E H), and
its strength follows a power law a^(p-3) of the scale factor.

Two routes to the dressed covariance are provided and cross-checked by
the test suite: the transport equations, collocated for a whole plane of
couplings (`_transport_block`) or integrated for one source
(`evolve_de_sitter`), and the Green's-function integrals of the source in
closed form, through incomplete gamma functions (`exact_open_covariance`),
together with their super-Hubble asymptotics.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._special import logsumexp
from .closed import CovarianceTrajectory, ModeFrequency, ModeState
from .closed import BogoliubovPair
from .discord import DiscordResult, _discord_from_logs, _log_sigma_theta, _scalar_or_array
from .errors import BelowHeisenbergError, DomainError, SingularExponentError, StepFailureError
from .opensys import evolve_open, piecewise_oscillatory_quad
from .specfun import oscillatory_moment, oscillatory_moment_limits
from .symplectic import CovarianceBlock, _half_sin, _ln, _ln_q

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
#: the largest x an integrated run (evolve_de_sitter, the CLI's grids) may
#: reach: ~50 us of integration per unit of x, so a run to 1e308 never ends
EVOLVE_X_MAX = 1e6
#: tail tolerance of the transport route's collocation, evolve_de_sitter's rtol
TRANSPORT_RTOL = 1e-11
#: cells of the discord_cosmo plane evaluated at once (see _plane_blocks)
PLANE_BLOCK_CELLS = 2 ** 16
#: Chebyshev points per interval of both collocated phases (`_collocate`)
_CHEB_POINTS = 25
#: halvings an interval of either phase may take before its Chebyshev
#: tail counts as a failure (StepFailureError)
_CHEB_HALVINGS = 10
#: the largest kGamma/k whose square kap2 is a double
_KAP_MAX = math.sqrt(np.finfo(float).max)


@dataclass(frozen=True)
class CosmoParams:
    """Dimensionless parameters of the environment-coupled de Sitter run
    of the pivot mode k = k*, whose source is 2 (kGamma/k*)^2 x^(3-p); a
    mode k at x* = -k eta* at the reference time, with the source
    2 (kGamma/k)^2 (x*/x)^(p-3), is the pivot mode at
    kGamma_eff/k* = (kGamma/k*) (k/k*)^-1 x*^((p-3)/2).

    kGamma_over_kstar coupling strength (wavenumber units of the pivot)
    p                power-law growth index of the coupling
    ellH             environment correlation length in Hubble units, in (0, 1)
    """

    kGamma_over_kstar: float
    p: float
    ellH: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.kGamma_over_kstar, self.p, self.ellH))):
            raise DomainError(f"cosmo parameters must be finite, got {self}")
        if not 0.0 < self.ellH < 1.0:
            raise DomainError(
                f"ellH must be in (0, 1) (sub-Hubble environment), got {self.ellH}"
            )
        if self.kGamma_over_kstar < 0.0:
            raise DomainError("coupling kGamma_over_kstar must be >= 0")

    @property
    def x_coupling_on(self) -> float:
        """Largest x at which the environment is active."""
        return 1.0 / self.ellH


def _require_regular_p(p: float, which: Sequence[float] = _SINGULAR_P) -> None:
    for p0 in which:
        if abs(p - p0) < _P_TOL:
            raise SingularExponentError(
                f"p = {p} is within {_P_TOL} of the logarithmic case p = {p0}")


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
    if not 0.0 < x < math.inf:  # False for NaN too
        raise DomainError(f"x must be positive and finite, got {x}")
    phase = complex(math.cos(x), math.sin(x))
    v = (1.0 + 1j / x) * phase
    dv = phase * (1j / (x * x) + 1.0 / x - 1j)
    return ModeState(v=v, dv=dv, time=-x)


def de_sitter_bogoliubov(x: float) -> BogoliubovPair:
    """Closed-form Bogoliubov pair: u = (1 + i/x - 1/(2x^2)) e^{ix},
    w = e^{-ix}/(2x^2); |u|^2 - |w|^2 = 1 identically."""
    if not 0.0 < x < math.inf:  # False for NaN too
        raise DomainError(f"x must be positive and finite, got {x}")
    phase = complex(math.cos(x), math.sin(x))
    u = (1.0 + 1j / x - 0.5 / (x * x)) * phase
    w = phase.conjugate() * 0.5 / (x * x)
    return BogoliubovPair(u=u, w=w)


def de_sitter_covariance_closed(x: float) -> CovarianceBlock:
    """Covariance of the free de Sitter mode pair:
    g11 = 1 + 1/x^2, g12 = 1/x^3, g22 = 1 - 1/x^2 + 1/x^4 (det = 1)."""
    if not 0.0 < x < math.inf:  # False for NaN too
        raise DomainError(f"x must be positive and finite, got {x}")
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
    if not 0.0 < x < math.inf:  # False for NaN too
        raise DomainError(f"x must be positive and finite, got {x}")
    delta = 0.5 / x ** 4
    r = 0.5 * math.log1p(delta + math.sqrt(delta * (2.0 + delta)))
    phi = 0.5 * math.atan2(-2.0 * x, 1.0 - 2.0 * x * x)
    return r, phi


def _power_law(expo, x: float):
    """The unit source 2 x^-expo of the power-law environment; expo is a
    float, or an array of p - 3 for a row of p."""
    return 2.0 * (1.0 / x) ** expo


def cosmo_kernel(params: CosmoParams) -> Callable[[float], float]:
    """Dimensionless source S(x) = 2 (kGamma/k*)^2 x^(3-p) of the pivot mode,
    active only once the mode is longer than the environment correlation
    length (x < 1/(ell_E H)); returned as a function of conformal time eta = -x.
    """
    kap2, expo, x_on = _kap2_row(params)[0], params.p - 3.0, params.x_coupling_on

    def source(eta: float) -> float:
        x = -eta
        if x <= 0.0 or x >= x_on:
            return 0.0
        return kap2 * _power_law(expo, x)

    return source


# ---------------------------------------------------------------------------
# exact dressed covariance (incomplete-gamma closed form)
# ---------------------------------------------------------------------------

def _exact_row(params: CosmoParams) -> tuple:
    """(p, ellH, lam^(2-p)/(2-p), lam^(4-p)/(4-p)), what each
    node of the exact route reads of its p row; lam = 1/ellH is the lower
    end of the power bracket.  SingularExponentError at p in {2, 4}; a
    power beyond the range of doubles raises DomainError."""
    p, lam = params.p, params.x_coupling_on
    _require_regular_p(p, (2.0, 4.0))
    try:  # a float ** raises OverflowError
        return p, params.ellH, lam ** (2.0 - p) / (2.0 - p), lam ** (4.0 - p) / (4.0 - p)
    except OverflowError as exc:
        raise DomainError(f"a power of the exact route at p = {p} is not a finite double") from exc


def _g11_node(x: float, row: tuple) -> tuple:
    """(v2, corr11, parts): the coupling-free pieces of g11 = v2 - 2 kap2
    corr11 at x in the coupled window, kap2 = (kGamma/k*)^2, for the p row
    of `_exact_row`, with only the work g11 needs (the three moments, the
    power bracket and the mode); parts = (mode, br, e, m1, m2, m3) lets
    `_exact_open_terms` build the other entries."""
    p, ellH, lam_2, lam_4 = row
    m1 = oscillatory_moment(1.0 - p, x, ellH)
    m2 = oscillatory_moment(2.0 - p, x, ellH)
    m3 = oscillatory_moment(3.0 - p, x, ellH)
    # int_{1/ellH}^x t^{1-p} (1 + t^2) dt in closed form
    br = x ** (2.0 - p) / (2.0 - p) + x ** (4.0 - p) / (4.0 - p) - lam_2 - lam_4
    e = complex(math.cos(2.0 * x), -math.sin(2.0 * x))  # e^{-2ix}
    mode = de_sitter_mode(x)

    i11_1 = (1.0 + x * x) / (2.0 * x * x) * br
    i11_2 = 1.0 / (4.0 * x * x) * e * (
        (x * x - 1.0 - 2j * x) * (m1 - m3) - (4.0 * x + 2j * x * x - 2j) * m2
    )
    corr11 = i11_1 + 2.0 * i11_2.real
    return abs(mode.v) ** 2, corr11, (mode, br, e, m1, m2, m3)


def _exact_open_terms(x: float, params: CosmoParams) -> tuple:
    """Coupling-free pieces (v2, dv2, vdv, corr11, corr12, corr22) of the
    dressed covariance: g11 = v2 - 2 kap2 corr11, g12 = vdv - 2 kap2 corr12,
    g22 = dv2 - 2 kap2 corr22 with kap2 = (kGamma/k*)^2 (g11's from
    `_g11_node`)."""
    row = _exact_row(params)
    if not 0.0 < x < params.x_coupling_on:
        raise DomainError(f"x = {x} outside the coupled window (0, {params.x_coupling_on})")
    v2, corr11, (mode, br, e, m1, m2, m3) = _g11_node(x, row)
    dv2 = abs(mode.dv) ** 2
    vdv = (mode.v * mode.dv.conjugate()).real

    i12_1 = 0.5 / x ** 3 * br
    i12_2 = -1j / (4.0 * x ** 3) * e * (x - 1j) * (x * (x - 1j) - 1.0) \
        * (-m1 + 2j * m2 + m3)
    corr12 = i12_1 + 2.0 * i12_2.real

    w = 1.0 - 2.0 / (x * x)
    i22_1 = 1.5 / x ** 4 * br
    i22_2 = 1.0 / (4.0 * x ** 4) * e * (
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
    """values, a scalar or a non-empty 1-D array of finite numbers, as a 1-D array."""
    row = np.atleast_1d(np.asarray(values, dtype=float))
    if row.ndim != 1 or row.size == 0 or not np.isfinite(row).all():
        raise DomainError(f"{what} must be finite, a scalar or a non-empty 1-D array")
    return row


def _coupling_row(params: CosmoParams, kGamma_over_kstar) -> np.ndarray:
    """The couplings kGamma/k* of a row as a 1-D array: kGamma_over_kstar
    (a scalar or a 1-D array), or the coupling of params when it is None."""
    if kGamma_over_kstar is None:
        kGamma_over_kstar = params.kGamma_over_kstar
    couplings = _row(kGamma_over_kstar, "couplings")
    if not (np.all(couplings >= 0.0) and float(couplings.max()) <= _KAP_MAX):
        raise DomainError("coupling kGamma_over_kstar must be >= 0, and its (kGamma/k*)^2 "
                          "a finite double")
    return couplings


def _kap2_row(params: CosmoParams, kGamma_over_kstar=None) -> list:
    """kap2 = (kGamma/k*)^2 of each coupling of a row (see _coupling_row),
    one float pow each: the one coupling^2 rule of every route."""
    return [kg ** 2 for kg in _coupling_row(params, kGamma_over_kstar).tolist()]


def exact_open_det(x: float, params: CosmoParams, kGamma_over_kstar=None):
    """det of the dressed covariance, via its own growth law.

    d(det)/d eta = S gamma_11 integrated against the exact gamma_11: this
    sidesteps the catastrophic cancellation of forming g11 g22 - g12^2
    from large entries.  x must be positive and finite; x >= 1/ellH, where
    the environment is off, gives det = 1.  det >= 1 holds without a
    floor: it is 1 plus a quadrature of a positive integrand (node guard).

    kGamma_over_kstar, when given, replaces the coupling of params: a
    scalar (float out), or a 1-D array for a row of couplings at one p
    (array out).  Each coupling has its own quadrature, with the same
    arithmetic as a scalar call, but the coupling-free terms of gamma_11
    and the source power are evaluated once per quadrature node for the
    whole row.  p in {2, 4} raises SingularExponentError, at any x.

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
    exceeds 1e-8 relative to det, up to 1.9e-5.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive and finite, got {x}")
    hi, expo, row = params.x_coupling_on, params.p - 3.0, _exact_row(params)
    # the coupling-free pieces of the integrand, once per node for the row
    node = functools.cache(lambda xp: (*_g11_node(xp, row)[:2], _power_law(expo, xp)))

    def det(kap2: float) -> float:
        if x >= hi:
            return 1.0

        # the quadrature nodes lie inside (x, hi), where the source is on
        def f(xp: float) -> float:
            v2, corr11, source = node(xp)
            g11 = v2 - 2.0 * kap2 * corr11
            if not 0.0 < g11 < math.inf:  # False for NaN too
                raise BelowHeisenbergError(
                    f"diagonal entries must be positive, got g11 = {g11} at x = {xp}")
            return kap2 * source * g11

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
    b12 = b22 = b11 among them).  ell, quartic and pole are the p factors
    of `sigma0_sq_coefficients`.  Each field is a float,
    or an (n_p, 1) column for a p row (`asymptotic_coefficients`).
    """

    p: float
    ellH: float
    a11: float
    a12: float
    a22: float
    b11: float
    d11: float
    f11: float
    ell: float
    quartic: float
    pole: float


def offset_singular_p(p: float) -> float:
    """p moved off the singular values of the coefficient table.

    Every integer n >= 2 is a pole of the table's gamma orders 2-p, 3-p
    and 4-p (and n in {2, 4, 5, 8} also zeroes its denominators), so p
    within 1e-4 of such an n is replaced by n + 1e-4; the table is smooth
    across the pole at that distance.  p must be finite (DomainError).
    """
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p}")
    n = round(p)
    if n >= 2 and abs(p - n) < _P_OFFSET:
        return n + _P_OFFSET
    return p


def asymptotic_coefficients(params: CosmoParams, p=None) -> AsymptoticCoefficients:
    """Coefficient table for the super-Hubble expansion.

    p, when given, replaces the growth index of params as in
    `discord_cosmo`: a scalar (float fields, as without p) or a non-empty
    1-D array ((n_p, 1) column fields), each finite.  Each value is the
    Python float arithmetic of its own p: numpy's array pow can differ
    from float pow in the last bit.

    Rejects p within 1e-6 of {2, 4, 5, 8} (vanishing denominators turn
    those powers logarithmic).  Other integer p >= 2 can still hit poles
    of individual gamma orders; `offset_singular_p` moves p off all of
    them.  A power beyond the range of doubles raises DomainError.
    """
    ellH, fields = params.ellH, []
    for p_i in _row(params.p if p is None else p, "p").tolist():
        _require_regular_p(p_i)
        r1, i1 = oscillatory_moment_limits(1.0 - p_i, ellH)
        r2, i2 = oscillatory_moment_limits(2.0 - p_i, ellH)
        r3, i3 = oscillatory_moment_limits(3.0 - p_i, ellH)
        den = (p_i - 8.0) * (p_i - 5.0) * (p_i - 2.0)
        try:  # a float ** raises OverflowError
            ell = ellH ** (p_i - 4.0) / (p_i - 4.0) + ellH ** (p_i - 2.0) / (p_i - 2.0)
            b11 = 0.5 * (ell - r1 - 2.0 * i2 + r3)
            d11 = (1.0 / 3.0) * (-i1 + 2.0 * r2 + i3)
            f11 = (1.0 / 9.0) * (r1 + 2.0 * i2 - r3)
            quartic = 4.0 * b11 ** 2 - 9.0 * d11 ** 2 + 36.0 * b11 * f11
        except OverflowError as exc:
            raise DomainError(f"a coefficient at p = {p_i} is not a finite double") from exc
        fields.append((p_i, ellH, -2.0 / den, -(p_i - 6.0) / den,
                       -(26.0 + p_i * (p_i - 11.0)) / den, b11, d11, f11, ell,
                       quartic, (p_i - 5.0) ** 2 * (p_i - 8.0) * (p_i - 2.0)))
    if np.ndim(p) == 0:
        return AsymptoticCoefficients(*fields[0])
    return AsymptoticCoefficients(*np.array(fields).T[..., None])


def _require_super_hubble(x: float) -> None:
    if not 0.0 < x < APPROX_X_MAX:
        raise DomainError(
            f"super-Hubble approximation needs 0 < x < {APPROX_X_MAX}, got {x}")


def _approx_terms(t: AsymptoticCoefficients, kap2):
    """Leading super-Hubble terms of g11, g12, g22 as (coeffs, exps):
    component c is g_c(x) = sum_i coeffs[i, c] x^exps[i, c] over the two
    terms i.  kap2 = (kGamma/k*)^2 is a scalar or an array of couplings
    sharing the table t, or a row against the table of a p row; the
    shapes of kap2 and t.p trail those of coeffs and exps."""
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
    """Leading super-Hubble form of the dressed covariance (x < 0.1); an
    entry that is not a finite double raises DomainError."""
    _require_super_hubble(x)
    coeffs, exps = _approx_terms(asymptotic_coefficients(params), _kap2_row(params)[0])
    with np.errstate(over="ignore", invalid="ignore"):
        g11, g12, g22 = (coeffs * x ** exps).sum(axis=0).tolist()
    if not all(map(math.isfinite, (g11, g12, g22))):
        raise DomainError(f"the super-Hubble covariance at x = {x} is not a finite double")
    return CovarianceBlock(g11=g11, g12=g12, g22=g22)


def sigma0_sq_coefficients(t: AsymptoticCoefficients, kap2) -> tuple:
    """Super-Hubble coefficients of sigma^2(0) from the coefficient table
    t at coupling kap2 = (kGamma/k*)^2, a scalar or an array (or, as in
    `_approx_terms`, a row against the table of a p row).

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
    s0_2 = -2.0 * kap2 * t.ell
    s0_4 = kap2 * kap2 * t.quartic
    sx_2 = 2.0 * kap2 / (t.p - 2.0)
    sx_4 = -2.0 * kap2 * t.b11 * sx_2
    sxx_4 = 4.0 * kap2 * kap2 / t.pole
    return s0_2, s0_4, sx_2, sx_4, sxx_4


def _sigma0_sq_terms(t: AsymptoticCoefficients, kap2) -> tuple:
    """(coeffs, exps) of the four terms of the super-Hubble sigma^2(0) =
    1 + Sigma_0 + Sigma_{2-p} x^{2-p} + Sigma_{10-2p} x^{10-2p}, both coupling
    orders of each from `sigma0_sq_coefficients` (t and kap2 as there)."""
    s0_2, s0_4, sx_2, sx_4, sxx_4 = sigma0_sq_coefficients(t, kap2)
    return (1.0, s0_2 + s0_4, sx_2 + sx_4, sxx_4), (0.0, 0.0, 2.0 - t.p, 10.0 - 2.0 * t.p)


def sigma0_sq_approx(x: float, params: CosmoParams) -> float:
    """Super-Hubble sigma^2(0) = det of the dressed covariance at x
    (`_sigma0_sq_terms`), the form that tracks the transported determinant;
    a value that is not a finite double raises DomainError."""
    _require_super_hubble(x)
    coeffs, exps = _sigma0_sq_terms(asymptotic_coefficients(params), _kap2_row(params)[0])
    try:  # a float ** raises OverflowError, a product overflows to inf
        s0sq = sum(c * x ** e for c, e in zip(coeffs, exps))
    except OverflowError:
        s0sq = math.inf
    if not math.isfinite(s0sq):
        raise DomainError(f"the super-Hubble sigma^2(0) at x = {x} is not a finite double")
    return s0sq


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
    prefactor of (x/x*)^(8-p), x* = -k eta* at the reference time.
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


def power_spectrum_correction(params: CosmoParams,
                              k_over_kstar: float = 1.0) -> PowerSpectrumCorrection:
    """Piecewise closed form of the relative power-spectrum correction at
    the scale k_over_kstar = k/k*, finite and positive; a value that is not
    a finite double (a power of ellH or k/k* overflows, say) raises
    DomainError."""
    _require_regular_p(params.p, (4.0, 8.0))
    if not 0.0 < k_over_kstar < math.inf:  # False for NaN too
        raise DomainError(f"k_over_kstar must be finite and positive, got {k_over_kstar}")
    p, kk, kap_star2 = params.p, k_over_kstar, _kap2_row(params)[0]
    try:  # a float ** raises OverflowError, a product overflows to inf
        if p < 4.0:
            value = params.ellH ** (p - 4.0) / (4.0 - p) * kap_star2 * kk ** (p - 5.0)
            shape = PsRegime.P_LT_4, False, p - 5.0
        elif p < 8.0:
            if abs(p - 6.0) < 1e-9:
                # removable zero-times-pole: (6-p)/sin(pi p/2) -> 2/pi
                combo = (3.0 - p) * (2.0 / math.pi) * (-math.pi / 2.0) / math.gamma(p - 1.0)
            else:
                combo = (3.0 - p) * (6.0 - p) * _reflected_gamma_cos(p)
            value = 2.0 ** (p - 4.0) * combo * kap_star2 * kk ** (p - 5.0)
            shape = PsRegime.P_4_TO_8, False, p - 5.0
        else:
            den = (p - 8.0) * (p - 5.0) * (p - 2.0)
            value = 4.0 / den * kap_star2 * kk ** 3
            shape = PsRegime.P_GT_8, True, 3.0
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the power-spectrum correction at p = {p}, k/k* = {kk} is not "
                          "a finite double")
    return PowerSpectrumCorrection(value, *shape)


def decoherence_threshold(params: CosmoParams, a_over_astar: float) -> float:
    """Coupling threshold kGamma/k* above which the pivot-scale state
    decoheres: (ellH)^(2 - p/2) for p < 2, (a/a*)^(1 - p/2) for p > 2,
    the larger of the two at the crossover; DomainError unless a_over_astar
    is finite and positive and the threshold a finite double."""
    if not 0.0 < a_over_astar < math.inf:  # False for NaN too
        raise DomainError(f"a_over_astar must be finite and positive, got {a_over_astar}")
    try:  # a float ** raises OverflowError
        lo = params.ellH ** (2.0 - 0.5 * params.p)
        hi = a_over_astar ** (1.0 - 0.5 * params.p)
    except OverflowError as exc:
        raise DomainError(f"the decoherence threshold at p = {params.p} overflows") from exc
    if abs(params.p - 2.0) < _P_TOL:
        return max(lo, hi)
    return lo if params.p < 2.0 else hi


# ---------------------------------------------------------------------------
# discord
# ---------------------------------------------------------------------------

def _signed_log_sum(coeffs, exps, ln_x: float):
    """(ln|sum|, sign) of sum_i c_i x^{e_i} over the terms i along axis 0
    (arrays, or sequences of terms that broadcast), given ln x; stacked by
    assignment, at a fifth of the cost of np.stack(np.broadcast_arrays())."""
    terms = (*coeffs, *exps)
    stacked = np.empty((len(terms),) + np.broadcast(*terms).shape)
    for i, term in enumerate(terms):
        stacked[i] = term
    coeffs, exps = stacked[:len(coeffs)], stacked[len(coeffs):]
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(coeffs)) + exps * ln_x
    return logsumexp(logs, np.sign(coeffs))


def _log_sigmas_series(x: float, theta: float, det_terms, entry_terms):
    """(ln sigma(0)^2, ln q, (ln|g|, sign g, ln m^2)) of cells whose det and
    entries g (g11, g12, g22 on axis 1) are sums of powers of x, each given
    as the (coeffs, exps) of `_signed_log_sum`, in the log domain down to
    x = e^-700: sigma(0)^2 = max(det, 1), q = m^2 sin^2(2 theta) / 4 with
    m^2 = (g11 - g22)^2 + 4 g12^2."""
    ln_x = math.log(x)
    ln_s0sq, sgn0 = _signed_log_sum(*det_terms, ln_x)
    ln_s0sq = np.where((sgn0 <= 0.0) | (ln_s0sq < 0.0), 0.0, ln_s0sq)
    ln_g, sgn_g = _signed_log_sum(*entry_terms, ln_x)
    # (g11 - g22)^2 + 4 g12^2, as logs
    ln_diff, _ = logsumexp(np.stack((ln_g[0], ln_g[2])), np.stack((sgn_g[0], -sgn_g[2])))
    ln_m2 = np.logaddexp(2.0 * ln_diff, math.log(4.0) + 2.0 * ln_g[1])
    return ln_s0sq, ln_m2 + 2.0 * _ln(_half_sin(theta)), (ln_g, sgn_g, ln_m2)


def _plane_blocks(n_p: int, n_k: int, cells: int):
    """(rows, cols) slices that cover an (n_p, n_k) plane, row-major: whole
    p rows while they fit in `cells` cells, else one row in pieces of `cells`."""
    rows, cols = max(1, cells // n_k), min(n_k, cells)
    for i in range(0, n_p, rows):
        for j in range(0, n_k, cols):
            yield slice(i, i + rows), slice(j, j + cols)


def _approx_block(x: float, theta: float, params: CosmoParams, ps, couplings):
    """(ln sigma(0)^2, ln q) of a block from the super-Hubble asymptotics
    (`_log_sigmas_series`): one coefficient table for its p row.  A
    sigma(0)^2 that the truncated series puts below 1 reads as 1 (purity
    1; see the README numerical notes)."""
    t, kap2 = asymptotic_coefficients(params, ps), np.array(_kap2_row(params, couplings))
    return _log_sigmas_series(x, theta, _sigma0_sq_terms(t, kap2), _approx_terms(t, kap2))[:2]


def _exact_block(x: float, theta: float, params: CosmoParams, ps, couplings):
    """(ln sigma(0)^2, ln q) of a block: one exact_open_covariance and one
    exact_open_det call per p row; the blocks passed the CovarianceBlock
    checks when built and det >= 1, so the cells are ln det and ln q."""
    g = np.empty((4, len(ps), len(couplings)))  # g11, g12, g22, det
    for i, p in enumerate(ps.tolist()):
        row = replace(params, p=p)
        g[:3, i] = np.transpose([(b.g11, b.g12, b.g22) for b in
                                 exact_open_covariance(x, row, kGamma_over_kstar=couplings)])
        g[3, i] = exact_open_det(x, row, kGamma_over_kstar=couplings)
    return np.log(g[3]), _ln_q(*g[:3], theta)


@functools.cache
def _chebyshev_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, Q, T) of the _CHEB_POINTS Chebyshev points s_j = -cos(j pi / N),
    j = 0..N, on [-1, 1] from -1 up: Q takes values at s to the integrals
    from -1 to each s_j of their interpolating polynomial (its last row is
    the Clenshaw-Curtis weights) and T to that polynomial's last two
    Chebyshev coefficients.  Built with plain numpy on first use."""
    n = _CHEB_POINTS - 1
    angles = np.pi * np.arange(n + 1) / n
    s = -np.cos(angles)
    cheb = np.cos(np.outer(np.pi - angles, np.arange(n + 2)))  # T_m(s_j), m = 0..N+1
    # values to coefficients, the trapezoid sum of the cosine transform
    to_coeffs = (2.0 / n) * cheb[:, :n + 1].T
    to_coeffs[:, [0, -1]] *= 0.5
    to_coeffs[[0, -1]] *= 0.5
    # coefficients to those of the antiderivative: T_0 -> T_1, T_1 -> T_2 / 4,
    # T_m -> T_(m+1) / (2 (m + 1)) - T_(m-1) / (2 (m - 1)), up to constants
    antider = np.zeros((n + 2, n + 1))
    antider[1, 0], antider[2, 1] = 1.0, 0.25
    m = np.arange(2, n + 1)
    antider[m + 1, m], antider[m - 1, m] = 0.5 / (m + 1), -0.5 / (m - 1)
    return s, (cheb - cheb[0]) @ antider @ to_coeffs, to_coeffs[-2:]


def _collocate(h: float, y: np.ndarray, couplings, src: np.ndarray, weights):
    """One interval of length h of a collocated phase: its end state and
    the increments (2, n) of (a1, a2), or None when a Chebyshev tail is
    above TRANSPORT_RTOL of its scale or a value is not finite.

    y (3, 1 + n) holds the rows g11, g12, g22 of the closed block and of
    each F_i at the start.  In the phase's time the blocks solve
    u0' = c01 u1, u1' = c10 u0 + c12 u2, u2' = c21 u1 + b, with
    (c01, c10, c12, c21) = couplings, each a number or its values at the
    Chebyshev points, and b = src_i on the row 22 of F_i (0 on g); at the
    points each row is its start plus Q times its right-hand side.  With
    no diagonal, u0 = y0 + Q c01 u1 and u2 = y2 + Q b + Q c21 u1 are
    explicit in u1, which solves one system of the size of the points
    (25x25), (I - Q c10 Q c01 - Q c12 Q c21) u1 = y1 + Q c10 y0 + Q c12 (y2 + Q b),
    whose right-hand sides are the 1 + n blocks (a phase with a diagonal
    takes an integrating factor into the couplings, `_efold_interval`).
    The increments are the Clenshaw-Curtis integrals of weights[0] g11 and
    weights[1] F_i11, each (points, n)."""
    s, q, tail = _chebyshev_operators()
    q = 0.5 * h * q
    q01, q10, q12, q21 = (q * c for c in couplings)  # Q c: c on the columns
    y2b = np.repeat(y[2:], len(s), axis=0)  # y2 + Q b
    y2b[:, 1:] += q @ src
    u1 = np.linalg.solve(np.eye(len(s)) - q10 @ q01 - q12 @ q21,
                         y[1] + np.multiply.outer(q10.sum(axis=1), y[0]) + q12 @ y2b)
    u = np.stack((y[0] + q01 @ u1, u1, y2b + q21 @ u1))
    integrands = np.hstack((weights[0] * u[0, :, :1], weights[1] * u[0, :, 1:]))
    # each block against its largest value, each integrand against its
    # largest value or 1e-100, below which it moves no a1 or a2 and the
    # relative test would fail on subnormal values (a NaN or an infinity
    # fails too)
    for v, floor in ((u, 0.0), (integrands[None], 1e-100)):
        scale = np.abs(v).max(axis=(0, 1))
        if not (np.isfinite(scale).all() and (np.abs(tail @ v).max(axis=(0, 1))
                                              <= TRANSPORT_RTOL * np.maximum(scale, floor)).all()):
            return None
    return u[:, -1], (q[-1] @ integrands).reshape(2, -1)


def _march(t: float, t_end: float, length: Callable, interval: Callable, state, where: str):
    """The state of a collocated phase carried from t up to t_end by
    interval(t, h, *state), which returns the next state or None, in steps
    of length(t), the last one cut at t_end.  A step that fails halves, at
    most _CHEB_HALVINGS times, and then raises StepFailureError, as do a
    step too short to move t (t + h == t) and a state that is not finite
    at t_end."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while t < t_end:
            h = min(length(t), t_end - t)
            for _ in range(_CHEB_HALVINGS + 1):
                step = interval(t, h, *state)
                if step is not None:
                    break
                h *= 0.5
            else:
                raise StepFailureError(
                    f"{where} failed from t = {t}: a Chebyshev tail stays above "
                    f"rtol {TRANSPORT_RTOL} after {_CHEB_HALVINGS} halvings")
            t_next = t_end if h == t_end - t else t + h
            if t_next == t:
                raise StepFailureError(f"{where} stalls at t = {t}: a step of {h} rounds away")
            state, t = step, t_next
    if not all(np.isfinite(v).all() for v in state):
        raise StepFailureError(f"{where} produced non-finite values")
    return state


def _subhubble_interval(t: float, h: float, y: np.ndarray, a: np.ndarray, expo: np.ndarray):
    """One interval [t, t + h] of conformal time t = -x of
    `_subhubble_response`: the couplings of `_collocate` are
    (2, a10, 1, 2 a10), a10 = 2/x^2 - 1, and the unit source x^expo_i is b
    of F_i and the weight of both integrals (a1' = S g11, a2' = S F11)."""
    x = -t - (_chebyshev_operators()[0] + 1.0) * (0.5 * h)
    src = np.power(x[:, None], expo)  # (points, n)
    a10 = 2.0 / (x * x) - 1.0
    step = _collocate(h, y, (2.0, a10, 1.0, 2.0 * a10), src, (src, src))
    return None if step is None else (step[0], a + step[1])


def _subhubble_response(x_on: float, x_end: float, ps) -> tuple[np.ndarray, np.ndarray]:
    """The response to the unit sources x^(3-p) of the p row ps from x_on
    down to x_end >= 1, at x_end, by Chebyshev integral collocation
    (`_subhubble_interval`), from the closed form at x_on: (y, a),
    y (3, 1 + n) the rows g11, g12, g22 of the closed block g and of the
    response F_i to each source, a (2, n) the rows a1, a2.  The source
    kap2_i x^(3-p_i) gives the covariance g + kap2_i F_i and the det
    1 + kap2_i a1_i + kap2_i^2 a2_i (g has det 1), since the transport
    equations are linear in (g, det) and their closed flow does not
    depend on the source; F_i follows the closed flow plus x^(3-p_i) on
    its g22 entry, a1_i' = x^(3-p_i) g11 and a2_i' = x^(3-p_i) F_i11, all
    three from 0.

    Conformal time is cut into intervals of length min(2, x/3) from their
    upper end x, so at most half the lower end (the covariance oscillates
    with period pi; x^(3-p) and w = 1 - 2/x^2 vary on the scale of x), and
    no interval depends on the couplings.  An interval whose Chebyshev
    tail, in any block or in the integrand of a1 or a2, exceeds
    TRANSPORT_RTOL of that block's largest value halves (`_march`), as
    does one with a value that is not finite.  Against an rtol-1e-14
    DOP853 reference the state at x_end = 1 or 2 is within ~5e-14
    relative for ellH from 0.5 to 1e-3."""
    ic = de_sitter_covariance_closed(x_on)
    y = np.zeros((3, 1 + len(ps)))
    y[:, 0] = ic.g11, ic.g12, ic.g22
    return _march(-x_on, -x_end, lambda t: min(2.0, -t / 3.0),
                  functools.partial(_subhubble_interval, expo=3.0 - ps),
                  (y, np.zeros((2, len(ps)))), "sub-Hubble collocation (t = -x)")


def _efold_interval(n_0: float, h: float, y: np.ndarray, a: np.ndarray, ps, c_f, c_1):
    """One e-fold interval [n_0, n_0 + h] of `_efold_response` (cF and c1
    from there).  In tau = N - n_0 its scaled blocks z solve
    z' = (M - P) z + b, P = (2, 3, 4) on the rows g11, g12, g22 plus cF on
    each F_i; `_collocate` takes them in v = e^(P tau) z, which removes the
    diagonal and leaves the same couplings on every block,
    (2 e^-tau, a10 e^tau, e^-tau, 2 a10 e^tau) with a10 = 2 - x^2.  b of
    F_i is x^(8-p+cF) e^((4 + cF) tau), and the integral of a1 (a2) weighs
    v of g11 (F_i11) by x^(2-p+c1) e^(-c1 (h - tau)) e^(-2 tau) (times
    e^(-cF h)).  At the end v is scaled back by e^(-P h), and a1 (a2)
    decays by e^(-c1 h) (e^(-(c1 + cF) h)) before its integral adds."""
    tau = (_chebyshev_operators()[0] + 1.0) * (0.5 * h)  # N - n_0
    efolds = n_0 + tau
    # each power of x as its exponent in N, (p - c) N + c (N - N_ref) with
    # c = 0 or p - 8 (p - 2): where c > 0, its e^(c N) comes in O(1) pieces
    src = np.exp(np.multiply.outer(efolds, ps - 8.0 - c_f) + np.multiply.outer(tau, c_f + 4.0))
    weight = np.exp(np.multiply.outer(efolds, ps - 2.0 - c_1)
                    + np.multiply.outer(tau - h, c_1) - 2.0 * tau[:, None])
    shrink = np.exp(-h * c_f)
    up, a10 = np.exp(tau), 2.0 - np.exp(-2.0 * efolds)
    step = _collocate(h, y, (2.0 / up, a10 * up, 1.0 / up, 2.0 * a10 * up), src,
                      (weight, weight * shrink))
    if step is None:
        return None
    u, da = step
    u *= np.exp(-h * np.arange(2.0, 5.0))[:, None]
    u[:, 1:] *= shrink
    return u, np.exp(-h * np.stack((c_1, c_1 + c_f))) * a + da


def _efold_response(y: np.ndarray, a: np.ndarray, x: float, ps) -> tuple[tuple, tuple]:
    """The plane's response to its unit sources x^(3-p) at x <= 1, from
    its state (y, a) at x = 1 (of `_subhubble_response`), scaled to
    z = x^P (y, a), O(1) outside the Hubble radius and (y, a) at x = 1:
    ((z_y, z_a), (P_y, P_a)), P in the shapes of y and a, 2, 3, 4 on the
    rows g11, g12, g22 of g, F_1..F_n plus cF = max(p - 8, 0) on each
    F_i, c1 = max(p - 2, 0) on a1 and c1 + cF on a2.  Below x = 1 z
    solves dz/dN = x^P dy/dN - P z in e-folds N = -ln x: on each block
    M z - P z, M = [[0, 2, 0], [2 - x^2, 0, 1], [0, 4 - 2 x^2, 0]], plus
    the source x^(8-p+cF) on each F_i22, and x^(2-p+c1) times z of g11 and
    of each F_i11 into a1 and a2.

    By Chebyshev collocation (`_efold_interval`) on intervals of 1 e-fold
    from N = 0, with the tail test, the halvings and the tolerance
    TRANSPORT_RTOL of `_subhubble_response`; over 2 e-folds the integrand
    of a2, which grows like e^((p-2) N), fails its tail on every interval
    at p > 8.  Against an rtol-1e-14 DOP853 reference z is within ~6e-14
    relative for x from 0.3 down to e^-690 and ellH from 0.5 to 1e-3."""
    c_f, c_1 = np.maximum(ps - 8.0, 0.0), np.maximum(ps - 2.0, 0.0)
    powers = np.arange(2.0, 5.0)[:, None] + np.append(0.0, c_f), np.stack((c_1, c_1 + c_f))
    return _march(0.0, -math.log(x), lambda t: 1.0,
                  functools.partial(_efold_interval, ps=ps, c_f=c_f, c_1=c_1),
                  (y, a), "e-fold collocation (t = -ln x)"), powers


def _transport_block(x: float, theta: float, params: CosmoParams, ps, couplings):
    """(ln sigma(0)^2, ln q) of a block: the response to the unit sources
    x^(3-p) of its p rows by `_subhubble_response` from 1/ellH down to
    max(x, 1), then `_efold_response` from x = 1, where its scaling x^P is
    1, down to x (both one 25x25 solve per interval, whatever the number
    of couplings); its cells, at the couplings 2 kap2 (the source
    2 kap2 x^(3-p)), read from the scaled state by `_log_sigmas_series` at
    min(x, 1), unscaled at x >= 1.  A cell with a diagonal entry <= 0 or
    det < -1e-6 ((g11 + g22)/2)^2 (CovarianceBlock) raises
    BelowHeisenbergError."""
    x_z = min(x, 1.0)
    y, a = _subhubble_response(params.x_coupling_on, max(x, 1.0), ps)
    (y, a), (p_y, p_a) = _efold_response(y, a, x_z, ps)
    kap2 = 2.0 * np.array(_kap2_row(params, couplings))
    # g + kap2 F and 1 + kap2 a1 + kap2^2 a2, each value z x^-P
    g, e_g, (a1, a2), (e_1, e_2) = y[..., None], -p_y[..., None], a[..., None], -p_a[..., None]
    entry_terms = ((g[:, :1], kap2 * g[:, 1:]), (e_g[:, :1], e_g[:, 1:]))
    det_terms = ((1.0, kap2 * a1, kap2 * kap2 * a2), (0.0, e_1, e_2))
    ln_s0sq, ln_q, (ln_g, sgn_g, ln_m2) = _log_sigmas_series(x_z, theta, det_terms, entry_terms)
    # g11, g22 > 0 and (g11 - g22)^2 + 4 g12^2 <= (1 + 1e-6) (g11 + g22)^2, as logs
    definite = ln_m2 <= 2.0 * np.logaddexp(ln_g[0], ln_g[2]) + math.log1p(1e-6)
    if not np.all((sgn_g[0] > 0.0) & (sgn_g[2] > 0.0) & definite):
        raise BelowHeisenbergError(f"a transported covariance at x = {x} is not positive definite")
    return ln_s0sq, ln_q


_ROUTES = {"approx": _approx_block, "exact": _exact_block, "transport": _transport_block}


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
    method="transport": transport the covariance down to x < 1/ellH
                       (reference); one response per block, whatever the
                       number of couplings, by Chebyshev collocation in
                       conformal time down to x = 1
                       (`_subhubble_response`) and in e-folds below it
                       (`_efold_response`), each ~6e-14 off an rtol-1e-14
                       DOP853 reference; no ODE integrator runs.

    kGamma_over_kstar, when given, replaces the coupling of params, and p
    its growth index: each is a scalar or a non-empty 1-D array.  Every
    field of the result has one axis per array given, p first: (n_p, n_k)
    with both, a float with neither.

    Every input, x in (0, APPROX_X_MAX) for approx and (0, 1/ellH) for the
    others among them, is checked before any route runs (DomainError).
    Every route runs in the blocks of `_plane_blocks`, of at most
    PLANE_BLOCK_CELLS = 2^16 cells, which bounds the memory; a block with a
    discord or ln sigma(0) that is not finite raises StepFailureError.  The
    approx and exact routes equal per-row calls bit for bit.  The transport
    route (`_transport_block`) takes the same intervals for a block as for
    each of its rows, and agrees with per-row calls to ~1e-14 (measured:
    8.8e-15 relative to max(1, |D|) in D, 3.1e-15 in ln sigma(0), 12x12
    default-range planes, ellH 0.5..1e-3, x 3..e^-690).
    """
    couplings = _coupling_row(params, kGamma_over_kstar)
    ps = _row(params.p if p is None else p, "p")
    if not math.isfinite(theta):
        raise DomainError(f"partition angle must be finite, got {theta}")
    if not (isinstance(method, str) and method in _ROUTES):
        raise DomainError(f"unknown method {method!r}; expected one of {tuple(_ROUTES)}")
    x_max = APPROX_X_MAX if method == "approx" else params.x_coupling_on
    if not 0.0 < x < x_max:
        raise DomainError(f"x must be in (0, {x_max}) for method {method!r}, got {x}")
    ln_s0sq, ln_q, d = np.empty((3, len(ps), len(couplings)))
    for block in _plane_blocks(len(ps), len(couplings), PLANE_BLOCK_CELLS):
        ln_s0sq[block], ln_q[block] = _ROUTES[method](x, theta, params, ps[block[0]],
                                                      couplings[block[1]])
        d[block] = _discord_from_logs(ln_s0sq[block], ln_q[block])[0]
        if not (np.isfinite(d[block]).all() and np.isfinite(ln_s0sq[block]).all()):
            raise StepFailureError(f"method {method!r}: a discord or ln sigma(0) is not finite")
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
) -> CovarianceTrajectory:
    """Transport the de Sitter covariance from x_start to x_end, seeded
    with the free closed form at x_start (exact while the source is off),
    by `evolve_open`; a source returns a number, as there.

    The trajectory runs in conformal time eta = -x; x_eval, when given,
    lists the x at which it is sampled.  A source only adds to the
    determinant forward in time, so it needs x_end < x_start; unitary
    evolution (source=None) runs either way.

    Backwards (x_end > x_start) the decaying super-Hubble solution grows
    back, and the relative error of g11 and g22 reaches about
    0.02 rtol / x_start^6 (measured against the closed form for x_start
    0.01 to 0.5, rtol 1e-12 to 1e-8, x_end 1 to 100).  A backward run
    whose error would exceed 1e-6 by that rule raises DomainError: at
    the default rtol, x_start must be at least 0.077.  So does an x
    outside (0, EVOLVE_X_MAX], which bounds the run's time.
    """
    if not (0.0 < x_start <= EVOLVE_X_MAX and 0.0 < x_end <= EVOLVE_X_MAX):
        raise DomainError(f"x must be in (0, {EVOLVE_X_MAX}], got x_start={x_start}, "
                          f"x_end={x_end}")
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
