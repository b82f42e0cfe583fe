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
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .symplectic import HEISENBERG_SLACK, CovarianceBlock, SqueezingState, _sigma_theta_sq

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
    """Discord in bits with the natural logs of the symplectic
    eigenvalues used, which remain finite even when the eigenvalues
    themselves overflow a double.  A map evaluation
    (`cosmology.discord_cosmo` with array arguments) holds arrays in
    every field but ``regime``.
    """

    discord: float
    log_sigma_theta: float
    log_sigma_zero: float
    regime: Regime = Regime.EXACT

    @property
    def sigma_theta(self):
        return _exp_or_inf(self.log_sigma_theta)

    @property
    def sigma_zero(self):
        return _exp_or_inf(self.log_sigma_zero)


def _scalar_or_array(a: np.ndarray):
    """A 0-d result as a Python float, anything else unchanged."""
    return float(a) if a.ndim == 0 else a


def _exp_or_inf(ln):
    """exp(ln), inf where it would overflow; elementwise over arrays."""
    return _scalar_or_array(np.where(ln < 709.0, np.exp(np.minimum(ln, 709.0)), np.inf))


def entropy_kernel(x):
    """Von Neumann entropy of a one-mode Gaussian state with symplectic
    eigenvalue x (in bits):

        f(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2),

    continued by f(1) = 0.  Arguments within HEISENBERG_SLACK below 1
    are clamped.
    Elementwise over arrays; a scalar argument gives a float.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1.0 - HEISENBERG_SLACK):
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


def _entropies(ln_st, ln_s0):
    """(f(st), f(s0), f(mix)) with mix = (st + s0^2)/(st + 1), from the
    logs of st = sigma(theta) and s0 = sigma(0); elementwise over arrays,
    floats for scalars."""
    ln_mix = np.logaddexp(ln_st, 2.0 * ln_s0) - np.logaddexp(ln_st, 0.0)
    return (_entropy_kernel_log(ln_st), _entropy_kernel_log(ln_s0),
            _entropy_kernel_log(ln_mix))


def _discord_from_logs(ln_st, ln_s0):
    """Exact discord from log symplectic eigenvalues.

    D = f(st) - 2 f(s0) + f((st + s0^2)/(st + 1)), all in the log domain;
    elementwise over arrays, a float for scalars.
    """
    f_st, f_s0, f_mix = _entropies(ln_st, ln_s0)
    d = f_st - 2.0 * f_s0 + f_mix
    # rounding can leave a few ulp of negativity at theta ~ 0
    return _scalar_or_array(np.where(d > 0.0, d, 0.0))


def _log_sigmas_from_block(block: CovarianceBlock, theta: float,
                           det: float | None = None) -> tuple[float, float]:
    """(ln sigma(theta), ln sigma(0)) of a block: sigma(0)^2 = block.lam,
    or max(det, 1) when det, a determinant transported alongside the
    entries, is given; sigma(theta)^2 from `symplectic._sigma_theta_sq`."""
    if not math.isfinite(theta):
        raise DomainError(f"partition angle must be finite, got {theta}")
    s0sq = block.lam if det is None else max(det, 1.0)
    return 0.5 * math.log(_sigma_theta_sq(block, theta, s0sq)), 0.5 * math.log(s0sq)


def discord(block: CovarianceBlock, theta: float) -> DiscordResult:
    """Quantum discord of a covariance block across partition theta."""
    ln_st, ln_s0 = _log_sigmas_from_block(block, theta)
    return DiscordResult(_discord_from_logs(ln_st, ln_s0), ln_st, ln_s0)


def discord_squeezed(r: float, lam: float, theta: float) -> DiscordResult:
    """Exact discord of a generalized squeezed state given (r, lam, theta).

    This is the log-domain entry point: it never forms the covariance
    entries, so it is usable for any squeezing amplitude (r ~ hundreds)
    and any decoherence level (lam up to the largest double, e^709).
    (r, lam) go through SqueezingState; bad input raises DomainError.
    """
    if not math.isfinite(theta):
        raise DomainError(f"partition angle must be finite, got {theta}")
    if lam < 1.0 - HEISENBERG_SLACK:
        raise DomainError(f"lam must be >= 1, got {lam}")
    ln_s0 = 0.5 * math.log(SqueezingState(r, 0.0, lam).lam)
    ln_st = ln_s0 + 0.5 * _ln1p_sinh_sq(r, theta)
    return DiscordResult(_discord_from_logs(ln_st, ln_s0), ln_st, ln_s0)


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
    return discord_squeezed(r, 1.0, theta).discord


def mutual_information(block: CovarianceBlock, theta: float) -> float:
    """Quantum mutual information 2 f(sigma(theta)) - 2 f(sigma(0))."""
    f_st, f_s0, _ = _entropies(*_log_sigmas_from_block(block, theta))
    return 2.0 * (f_st - f_s0)


def max_classical_info(block: CovarianceBlock, theta: float) -> float:
    """Measurement-maximized classical information J.

    J = f(sigma(theta)) - f((sigma(0)^2 + sigma(theta))/(1 + sigma(theta))),
    so that mutual_information - max_classical_info = discord identically.
    """
    f_st, _, f_mix = _entropies(*_log_sigmas_from_block(block, theta))
    return f_st - f_mix


def discord_asymptotic(r: float, lam: float, theta: float) -> DiscordResult:
    """Large-squeezing discord with automatic regime selection.

    For e^{2r} |sin 2theta| / sqrt(lam) > 10 the squeezing wins and
    D ~ 2r/ln2; below 0.1 decoherence wins and
    D ~ e^{2r} |sin 2theta| / (2 sqrt(lam) ln 2); in between the exact
    log-domain formula is used.  The 10/0.1 thresholds keep the exact path
    authoritative near the crossover.  The eigenvalues are those of
    discord_squeezed in every regime.
    """
    if r < 5.0:
        raise DomainError(f"asymptotic form needs r >= 5, got {r}")
    res = discord_squeezed(r, lam, theta)
    s2t = abs(math.sin(2.0 * theta))
    if s2t == 0.0:
        return replace(res, discord=0.0, regime=Regime.LARGE_SQUEEZING_LOW)
    ln_ratio = 2.0 * r + math.log(s2t) - res.log_sigma_zero
    if ln_ratio > math.log(10.0):
        return replace(res, discord=2.0 * r / LN2, regime=Regime.LARGE_SQUEEZING_HIGH)
    if ln_ratio < math.log(0.1):
        return replace(res, discord=math.exp(ln_ratio) / (2.0 * LN2),
                       regime=Regime.LARGE_SQUEEZING_LOW)
    return res
