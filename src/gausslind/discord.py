"""Gaussian quantum discord and mutual information for homogeneous states.

Every quantity here is a function of two symplectic eigenvalues only: the
reduced one, sigma(theta), and the global one, sigma(0) = sqrt(det).  The
exact closed form is evaluated in the log domain throughout so that
astronomically squeezed states (r of order hundreds) are handled without
overflow or catastrophic cancellation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .symplectic import CovarianceBlock, sigma_theta

__all__ = [
    "Regime",
    "DiscordResult",
    "entropy_kernel",
    "discord",
    "discord_squeezed",
    "discord_pure",
    "mutual_information",
    "max_classical_info",
    "discord_asymptotic",
]

LN2 = math.log(2.0)

#: above this argument the exact entropy kernel loses ~eps*x of absolute
#: accuracy to cancellation, while the expansion
#: f(x) = log2(x/2) + (1 - 1/(6x^2))/ln2 + O(x^-4) is already exact to
#: double precision (the x^-4 term is 5e-18 at the boundary); 1e4 keeps
#: both error sources at the 1e-13 level.
_LARGE_X = 1e4
_LARGE_LOG = math.log(_LARGE_X)


class Regime(enum.Enum):
    EXACT = "exact"
    LARGE_SQUEEZING_HIGH = "large_squeezing_high"
    LARGE_SQUEEZING_LOW = "large_squeezing_low"


@dataclass(frozen=True)
class DiscordResult:
    """Discord in bits together with the symplectic eigenvalues used.

    ``log_sigma_theta``/``log_sigma_zero`` carry the natural logs, which
    remain finite even when the eigenvalues themselves overflow a double.
    A row evaluation (`cosmology.discord_cosmo` with an array of
    couplings) holds arrays in every field but ``regime``.
    """

    discord: float
    sigma_theta: float
    sigma_zero: float
    regime: Regime
    log_sigma_theta: float = 0.0
    log_sigma_zero: float = 0.0


def _scalar_or_array(a: np.ndarray):
    """A 0-d result as a Python float, anything else unchanged."""
    return float(a) if a.ndim == 0 else a


def entropy_kernel(x):
    """Von Neumann entropy of a one-mode Gaussian state with symplectic
    eigenvalue x (in bits):

        f(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2),

    continued by f(1) = 0.  Arguments within 1e-9 below 1 are clamped.
    Elementwise over arrays; a scalar argument gives a float.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1.0 - 1e-9):
        raise DomainError(f"entropy kernel needs x >= 1, got {np.min(x)}")
    up = 0.5 * (x + 1.0)
    dn = 0.5 * (x - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (up * np.log(up) - dn * np.log(dn)) / LN2
        large = (np.log(0.5 * x) + 1.0 - 1.0 / (6.0 * x * x)) / LN2
    f = np.where(x > _LARGE_X, large, np.where(x <= 1.0 + 1e-15, 0.0, exact))
    return _scalar_or_array(f)


def _entropy_kernel_log(ln_x):
    """entropy_kernel(exp(ln_x)) without forming exp(ln_x) when large;
    elementwise over arrays, a float for a scalar."""
    ln_x = np.asarray(ln_x, dtype=float)
    large = ln_x > _LARGE_LOG
    small = entropy_kernel(np.exp(np.where(large, 0.0, ln_x)))
    # the correction underflows harmlessly for ln_x beyond ~350
    asymptotic = (ln_x - LN2 + 1.0 - np.exp(-2.0 * ln_x) / 6.0) / LN2
    return _scalar_or_array(np.where(large, asymptotic, small))


def _discord_from_logs(ln_st, ln_s0):
    """Exact discord from log symplectic eigenvalues.

    D = f(st) - 2 f(s0) + f((st + s0^2)/(st + 1)), all in the log domain;
    elementwise over arrays, a float for scalars.
    """
    ln_mix = np.logaddexp(ln_st, 2.0 * ln_s0) - np.logaddexp(ln_st, 0.0)
    d = (_entropy_kernel_log(ln_st) - 2.0 * _entropy_kernel_log(ln_s0)
         + _entropy_kernel_log(ln_mix))
    # rounding can leave a few ulp of negativity at theta ~ 0
    return _scalar_or_array(np.where(d > 0.0, d, 0.0))


_EPS = 2.220446049250313e-16


def _sigmas_from_block(block: CovarianceBlock, theta: float) -> tuple[float, float]:
    """(sigma(theta), sigma(0)) with a purity snap.

    The determinant read off stored entries carries ~eps * ((g11+g22)/2)^2
    of representation noise, and the entropy kernel has an infinite
    derivative at 1+: a pure state whose determinant lands at 1 + 1e-11
    would otherwise acquire spurious nano-bit entropy.  Determinants
    within that noise floor (or the global Heisenberg slack) of 1 are
    therefore treated as exactly pure.  States whose mixedness genuinely
    sits below this floor are not representable as a block in the first
    place; use discord_squeezed with (r, lam) for those.
    """
    det = block.det
    half_sum = 0.5 * (block.g11 + block.g22)
    floor = max(1e-9, 64.0 * _EPS * half_sum * half_sum)
    if det < 1.0 + floor:
        det = 1.0
    s0 = math.sqrt(det)
    st = sigma_theta(block, theta)
    return max(st, s0), s0


def discord(block: CovarianceBlock, theta: float) -> DiscordResult:
    """Quantum discord of a covariance block across partition theta."""
    st, s0 = _sigmas_from_block(block, theta)
    d = _discord_from_logs(math.log(st), math.log(s0))
    return DiscordResult(d, st, s0, Regime.EXACT, math.log(st), math.log(s0))


def discord_squeezed(r: float, lam: float, theta: float) -> DiscordResult:
    """Exact discord of a generalized squeezed state given (r, lam, theta).

    This is the log-domain entry point: it never forms the covariance
    entries, so it is usable for any squeezing amplitude (r ~ hundreds)
    and any decoherence level (lam up to e^700 and beyond via logs).
    """
    if r < 0.0:
        raise DomainError(f"r must be >= 0, got {r}")
    if lam < 1.0 - 1e-9:
        raise DomainError(f"lam must be >= 1, got {lam}")
    lam = max(lam, 1.0)
    ln_s0 = 0.5 * math.log(lam)
    ln_st = ln_s0 + 0.5 * _ln1p_sinh_sq(r, theta)
    d = _discord_from_logs(ln_st, ln_s0)
    return DiscordResult(
        d,
        math.exp(ln_st) if ln_st < 709.0 else math.inf,
        math.sqrt(lam),
        Regime.EXACT,
        ln_st,
        ln_s0,
    )


def _ln1p_sinh_sq(r: float, theta: float) -> float:
    """ln(1 + sinh(2r)^2 sin(2 theta)^2), stable for large r."""
    s2t = math.sin(2.0 * theta)
    if r == 0.0 or s2t == 0.0:
        return 0.0
    # ln sinh(2r) = 2r - ln 2 + ln1p(-e^{-4r})
    ln_sh = 2.0 * r - LN2 + math.log1p(-math.exp(-4.0 * r)) if r > 1e-8 else math.log(math.sinh(2.0 * r))
    ln_term = 2.0 * (ln_sh + math.log(abs(s2t)))
    return float(np.logaddexp(0.0, ln_term))


def discord_pure(r: float, theta: float) -> float:
    """Discord of a pure squeezed state: f(sqrt(1 + sinh^2 2r sin^2 2theta))."""
    if r < 0.0:
        raise DomainError(f"r must be >= 0, got {r}")
    return _entropy_kernel_log(0.5 * _ln1p_sinh_sq(r, theta))


def mutual_information(block: CovarianceBlock, theta: float) -> float:
    """Quantum mutual information 2 f(sigma(theta)) - 2 f(sigma(0))."""
    st, s0 = _sigmas_from_block(block, theta)
    return 2.0 * (_entropy_kernel_log(math.log(st)) - _entropy_kernel_log(math.log(s0)))


def max_classical_info(block: CovarianceBlock, theta: float) -> float:
    """Measurement-maximized classical information J.

    J = f(sigma(theta)) - f((sigma(0)^2 + sigma(theta))/(1 + sigma(theta))),
    so that mutual_information - max_classical_info = discord identically.
    """
    st, s0 = _sigmas_from_block(block, theta)
    # validity of the closed form requires sigma(theta) >= sigma(0) >= 1,
    # which holds for every homogeneous state; assert rather than assume.
    if st < s0 * (1.0 - 1e-12):
        raise DomainError("sigma(theta) < sigma(0): state is not homogeneous")
    ln_num = np.logaddexp(2.0 * math.log(s0), math.log(st))
    ln_den = np.logaddexp(0.0, math.log(st))
    return _entropy_kernel_log(math.log(st)) - _entropy_kernel_log(float(ln_num - ln_den))


def discord_asymptotic(r: float, lam: float, theta: float) -> DiscordResult:
    """Large-squeezing discord with automatic regime selection.

    For e^{2r} |sin 2theta| / sqrt(lam) > 10 the squeezing wins and
    D ~ 2r/ln2; below 0.1 decoherence wins and
    D ~ e^{2r} |sin 2theta| / (2 sqrt(lam) ln 2); in between the exact
    log-domain formula is used.  The 10/0.1 thresholds keep the exact path
    authoritative near the crossover.
    """
    if r < 5.0:
        raise DomainError(f"asymptotic form needs r >= 5, got {r}")
    s2t = abs(math.sin(2.0 * theta))
    ln_s0 = 0.5 * math.log(max(lam, 1.0))
    ln_st = ln_s0 + 0.5 * _ln1p_sinh_sq(r, theta)
    if s2t == 0.0:
        return DiscordResult(0.0, math.inf, math.exp(ln_s0),
                             Regime.LARGE_SQUEEZING_LOW, ln_st, ln_s0)
    ln_ratio = 2.0 * r + math.log(s2t) - 0.5 * math.log(lam)
    if ln_ratio > math.log(10.0):
        return DiscordResult(2.0 * r / LN2, math.inf, math.exp(ln_s0),
                             Regime.LARGE_SQUEEZING_HIGH, ln_st, ln_s0)
    if ln_ratio < math.log(0.1):
        d = math.exp(ln_ratio) / (2.0 * LN2)
        return DiscordResult(d, math.exp(ln_st), math.exp(ln_s0),
                             Regime.LARGE_SQUEEZING_LOW, ln_st, ln_s0)
    d = _discord_from_logs(ln_st, ln_s0)
    return DiscordResult(d, math.exp(ln_st), math.exp(ln_s0),
                         Regime.EXACT, ln_st, ln_s0)
