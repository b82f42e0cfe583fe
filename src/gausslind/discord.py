"""Gaussian quantum discord and mutual information for homogeneous states.

Every quantity here is a function of sigma(0)^2 (= det = 1/purity) and
q = sigma(theta)^2 - sigma(0)^2 >= 0.  Each producer (a covariance block,
squeezing parameters, the super-Hubble map) hands over their logs, and one
assembly turns them into D, I and J at full relative precision, for any
squeezing (r of order hundreds) and where D is far below the entropies
it is the difference of (the decoherence-dominated regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .symplectic import HEISENBERG_SLACK, CovarianceBlock, SqueezingState, _ln, _ln_q

__all__ = [
    "DiscordResult",
    "entropy_kernel",
    "discord",
    "discord_squeezed",
    "mutual_information",
    "max_classical_info",
]

LN2 = math.log(2.0)
_LN7 = math.log(7.0)


@dataclass(frozen=True)
class DiscordResult:
    """Discord in bits with the natural logs of the symplectic
    eigenvalues used, which remain finite even when the eigenvalues
    themselves overflow a double.  A map evaluation
    (`cosmology.discord_cosmo` with array arguments) holds arrays.
    """

    discord: float
    log_sigma_theta: float
    log_sigma_zero: float

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


def _psi_gap(ln_a, ln_b, ln_step, ln_bm1):
    """psi(1/b^2) - psi(1/a^2) >= 0, psi(y) = sum_k y^k / (2k (2k+1)), for
    symplectic eigenvalues a = b + step >= b >= 1 given the logs of a, b,
    step and b - 1; elementwise.  As f(x) ln 2 = ln(x/2) + 1 - psi(1/x^2)
    for the entropy kernel f, this is (f(a) - f(b)) ln 2 - ln(a/b).

    b >= 8: the series in y = 1/x^2 as (y_b - y_a) sum_k h_k / (2k (2k+1)),
    h_k = (y_b^k - y_a^k)/(y_b - y_a) > 0, as long as the batch's largest
    y_b needs (<= 10 terms); a term past an element's own y_b^k < e^-38
    is below half an ulp, so no value depends on its batch.
    b < 8: f = u ln u - d ln d, u = (x+1)/2, d = (x-1)/2, differenced
    through log1p of the step for a <= 2b (cancelling to ~1/(3 b^2) of its
    terms: <= 2e-14 relative in D against mpmath), as a difference of two
    values below 1 for a > 2b.  A step past e^690 changes psi(1/a^2) by
    < e^-1380, so it is evaluated at e^690 and never overflows.
    """
    ln_a, ln_b, ln_step, ln_bm1 = np.broadcast_arrays(ln_a, ln_b, ln_step, ln_bm1)
    big = ln_bm1 >= _LN7
    gap = np.empty(big.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        a, b, step = ln_a[big], ln_b[big], ln_step[big]
        y_a, y_b = np.exp(-2.0 * a), np.exp(-2.0 * b)
        series, h_k, y_ak = 1.0 / 6.0, 1.0, 1.0
        for k in range(2, math.ceil(19.0 / b.min(initial=np.inf)) + 1):
            y_ak = y_ak * y_a
            h_k = y_b * h_k + y_ak
            series = series + h_k / (2 * k * (2 * k + 1))
        # y_b - y_a = step (a + b) / (a^2 b^2)
        gap[big] = series * np.exp(step - a - 2.0 * b) * (1.0 + np.exp(b - a))

        step, bm1 = np.minimum(ln_step[~big], 690.0), ln_bm1[~big]
        half, d_b = 0.5 * np.exp(step), 0.5 * np.exp(bm1)
        small = np.empty(half.shape)
        far = half > 0.5 + d_b
        h, d, s, bm = half[~far], d_b[~far], step[~far], bm1[~far]
        small[~far] = (h * np.log1p(_inv(d + h)) + (1.0 + d) * np.log1p(h / (1.0 + d))
                       - np.where(d > 0.0, d * np.logaddexp(0.0, s - bm), 0.0)
                       - np.log1p(h / (0.5 + d)))
        # a > 2b: the difference of (f(x) ln 2 - ln x) = d log1p(1/d) - log1p(d/u),
        # whose terms stay below 1 where those of the form above grow like ln(step)
        d_b = d_b[far]
        d_a = d_b + half[far]
        small[far] = (d_a * np.log1p(_inv(d_a)) - np.log1p(d_a / (1.0 + d_a))
                      - d_b * np.log1p(_inv(d_b)) + np.log1p(d_b / (1.0 + d_b)))
        gap[~big] = small
    return gap


def _inv(d):
    """1/d without overflow: below d = 1e-300, x log1p(1/d) is below 1e-297
    either way, and 0 at x = 0."""
    return 1.0 / np.maximum(d, 1e-300)


def entropy_kernel(x):
    """Von Neumann entropy of a one-mode Gaussian state with symplectic
    eigenvalue x (in bits):

        f(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2),

    continued by f(1) = 0: ln x + `_psi_gap` from 1 to x, divided by ln 2.
    Arguments within HEISENBERG_SLACK below 1 are clamped; NaN raises
    DomainError.  Elementwise over arrays; a scalar argument gives a float.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 1.0 - HEISENBERG_SLACK):  # False for NaN too
        raise DomainError(f"entropy kernel needs x >= 1, got {np.min(x)}")
    x = np.maximum(x, 1.0)
    with np.errstate(divide="ignore"):
        ln_x, ln_xm1 = np.log(x), np.log(x - 1.0)
    return _scalar_or_array((ln_x + _psi_gap(ln_x, 0.0, ln_xm1, -np.inf)) / LN2)


def _log_sigma_theta(ln_s0sq, ln_q):
    """ln sigma(theta) = ln(sigma(0)^2 + q) / 2; elementwise over arrays."""
    return 0.5 * np.logaddexp(ln_s0sq, ln_q)


def _discord_from_logs(ln_s0sq, ln_q):
    """(D, I, J) in bits from ln sigma(0)^2 and ln q, elementwise, floats
    for scalars; D = 0 exactly at q = 0 (ln q = -inf).  With st = sigma(theta),
    s0 = sigma(0), mix = (st + s0^2)/(st + 1) and f(x) ln 2 = ln(x/2) + 1 - psi(1/x^2):

        D ln 2 = log1p(q / (s0^2 (st + 1)))
                 + [psi(1/s0^2) - psi(1/st^2)] - [psi(1/mix^2) - psi(1/s0^2)],
        I ln 2 = log1p(q / s0^2) + 2 [psi(1/s0^2) - psi(1/st^2)],  J = I - D >= I/2,

    the brackets from the exact steps st - s0 = q/(st + s0) and
    s0 - mix = (st - s0)(s0 - 1)/(st + 1), in logs: no term is the
    difference of two large ones.
    """
    ln_s0sq, ln_q = np.asarray(ln_s0sq, dtype=float), np.asarray(ln_q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_st, ln_s0 = _log_sigma_theta(ln_s0sq, ln_q), 0.5 * ln_s0sq
        ln_st1 = np.logaddexp(ln_st, 0.0)
        ln_step = ln_q - np.logaddexp(ln_st, ln_s0)
        ln_s0m1 = ln_s0 + np.log(-np.expm1(-ln_s0))
        ln_mixm1 = ln_s0sq + np.log(-np.expm1(-ln_s0sq)) - ln_st1
        # both brackets in one pass, (a, b) = (st, s0) and (s0, mix)
        gap_st, gap_mix = _psi_gap(
            np.stack((ln_st, ln_s0)), np.stack((ln_s0, np.logaddexp(ln_st, ln_s0sq) - ln_st1)),
            np.stack((ln_step, ln_step - ln_st1 + ln_s0m1)), np.stack((ln_s0m1, ln_mixm1)))
        d = np.logaddexp(0.0, ln_q - ln_s0sq - ln_st1) + gap_st - gap_mix
        i = np.logaddexp(0.0, ln_q - ln_s0sq) + 2.0 * gap_st
    return tuple(_scalar_or_array(v / LN2) for v in (d, i, i - d))


def _result(ln_s0sq: float, ln_q: float) -> DiscordResult:
    """The DiscordResult of one (ln sigma(0)^2, ln q)."""
    return DiscordResult(_discord_from_logs(ln_s0sq, ln_q)[0],
                         float(_log_sigma_theta(ln_s0sq, ln_q)), 0.5 * ln_s0sq)


def _log_sigmas_from_block(block: CovarianceBlock, theta: float) -> tuple[float, float]:
    """(ln sigma(0)^2, ln q) of a block: sigma(0)^2 = block.lam, ln q from
    `symplectic._ln_q`."""
    if not math.isfinite(theta):
        raise DomainError(f"partition angle must be finite, got {theta}")
    return math.log(block.lam), float(_ln_q(block.g11, block.g12, block.g22, theta))


def discord(block: CovarianceBlock, theta: float) -> DiscordResult:
    """Quantum discord of a covariance block across partition theta."""
    return _result(*_log_sigmas_from_block(block, theta))


def discord_squeezed(r: float, lam: float, theta: float) -> DiscordResult:
    """Exact discord of a generalized squeezed state given (r, lam, theta).

    This is the log-domain entry point: it never forms the covariance
    entries, so it is usable for any squeezing amplitude (r ~ hundreds)
    and any decoherence level (lam up to the largest double, e^709):
    ln q = ln lam + 2 ln sinh(2r) + 2 ln|sin(2 theta)|.
    (r, lam) go through SqueezingState; bad input raises DomainError.
    """
    if not math.isfinite(theta):
        raise DomainError(f"partition angle must be finite, got {theta}")
    if lam < 1.0 - HEISENBERG_SLACK:
        raise DomainError(f"lam must be >= 1, got {lam}")
    state = SqueezingState(r, 0.0, lam)
    # ln sinh(2r) = 2r - ln 2 + ln(1 - e^{-4r}), exact for every r > 0
    ln_sinh = 2.0 * state.r - LN2 + _ln(-math.expm1(-4.0 * state.r))
    ln_q = math.log(state.lam) + 2.0 * (ln_sinh + _ln(abs(math.sin(2.0 * theta))))
    return _result(math.log(state.lam), ln_q)


def mutual_information(block: CovarianceBlock, theta: float) -> float:
    """Quantum mutual information 2 f(sigma(theta)) - 2 f(sigma(0))."""
    return _discord_from_logs(*_log_sigmas_from_block(block, theta))[1]


def max_classical_info(block: CovarianceBlock, theta: float) -> float:
    """Measurement-maximized classical information J.

    J = f(sigma(theta)) - f((sigma(0)^2 + sigma(theta))/(1 + sigma(theta))),
    so that mutual_information - max_classical_info = discord identically.
    """
    return _discord_from_logs(*_log_sigmas_from_block(block, theta))[2]
