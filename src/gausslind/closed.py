"""Environment-free evolution of one mode pair: the transport equations of
the covariance entries, the trajectory type that holds their solution,
the mode frequency and mode state they are posed with, and the Wigner
ellipse of a squeezed state.

The transport system is integrated by `opensys.evolve_open`, whose
source=None case is the closed evolution; `selfcheck` holds it to the
closed de Sitter forms of `cosmology`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .symplectic import (
    DEGENERATE_R,
    CovarianceBlock,
    SqueezingState,
    _require_blocks,
    _squeezing_columns,
)

__all__ = [
    "ModeFrequency",
    "ModeState",
    "CovarianceTrajectory",
    "WignerEllipse",
    "transport_rhs_closed",
    "wigner_ellipse",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class ModeFrequency:
    """Time-dependent squared frequency omega^2(k, t) at fixed wavenumber k."""

    k: float
    omega_sq: Callable[[float, float], float]

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

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class WignerEllipse:
    semi_major: float
    semi_minor: float
    tilt: float
    area: float


def wigner_ellipse(s: SqueezingState, n_sigma: float = math.sqrt(2.0)) -> WignerEllipse:
    """Geometry of the n_sigma contour (0 < n_sigma < inf) of the Wigner function.

    At the sqrt(2)-sigma contour the semi-axes are lam^(1/4) e^(+-r) and
    the tilt is the squeezing angle; other contours scale linearly.  The
    product of the axes (area / pi) is independent of r.
    """
    if not 0.0 < n_sigma < math.inf:  # False for NaN too
        raise DomainError(f"n_sigma must be finite and positive, got {n_sigma}")
    scale = n_sigma / math.sqrt(2.0)
    q = s.lam ** 0.25
    return WignerEllipse(
        semi_major=scale * q * math.exp(s.r),
        semi_minor=scale * q * math.exp(-s.r),
        tilt=s.phi,
        area=math.pi * math.sqrt(s.lam) * scale * scale,
    )
