"""Covariance-matrix algebra for homogeneous two-mode Gaussian states.

A single Fourier mode pair is described, in the reference partition, by a
2x2 covariance block (g11, g12, g22) repeated on both diagonal blocks of
the 4x4 covariance matrix.  This module provides the partition matrices
that rotate that description into an arbitrary bipartition, the symplectic
machinery to transform covariances, and the conversions between covariance
entries, squeezing parameters and particle statistics.

All functions are pure; all value types are frozen dataclasses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BelowHeisenbergError,
    DegenerateSqueezingError,
    DomainError,
    NonSymplecticError,
)

__all__ = [
    "SYMPLECTIC_FORM",
    "CovarianceBlock",
    "Covariance4",
    "PartitionAngles",
    "SqueezingState",
    "ParticleStatistics",
    "stable_det2",
    "general_partition_matrix",
    "one_param_partition_matrix",
    "is_symplectic",
    "transform_covariance",
    "covariance_blocks_in_partition",
    "purity",
    "sigma_theta",
    "particle_statistics",
    "squeezing_from_covariance",
    "covariance_from_squeezing",
]

#: Block-diagonal symplectic form for two degrees of freedom.
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

#: a determinant or lam in [1 - HEISENBERG_SLACK, 1) is exactly 1 (pure)
HEISENBERG_SLACK = 1e-9


def _two_product(a: float, b: float) -> tuple[float, float]:
    """Dekker exact product: a*b = p + e with p = fl(a*b)."""
    p = a * b
    # split factors into high/low halves (53-bit doubles, 27-bit split)
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def stable_det2(g11: float, g12: float, g22: float) -> float:
    """g11*g22 - g12**2 with compensated products.

    The direct expression loses all accuracy for strongly squeezed states
    where the two products cancel to ~1; the compensation keeps the
    rounding error at the level of the *inputs*, not of the products.
    """
    p1, e1 = _two_product(g11, g22)
    p2, e2 = _two_product(g12, g12)
    return (p1 - p2) + (e1 - e2)


def _block_checks(g11, g12, g22, det):
    """The CovarianceBlock invariants of entries (g11, g12, g22) with
    determinant det, in the order they are checked: positive diagonal,
    finite entries, det not below -1e-6 half_sum^2.  Floats give three
    bools, arrays three masks (True where the check passes).

    Positive definiteness is only enforced up to a coarse relative level:
    strongly squeezed or truncated-asymptotic blocks carry det noise many
    orders above eps.  The bound det >= 1 is read by CovarianceBlock.lam.
    A NaN det (finite entries beyond ~1e154 overflow its products) passes:
    CovarianceBlock.det raises on it, and a trajectory reads its
    transported det instead.
    """
    half_sum = 0.5 * (g11 + g22)
    return ((g11 > 0.0) & (g22 > 0.0),
            (abs(g11) < math.inf) & (abs(g12) < math.inf) & (abs(g22) < math.inf),
            (det >= -1e-6 * half_sum * half_sum) | (det != det))


def _require_block(g11: float, g12: float, g22: float) -> None:
    """Raise BelowHeisenbergError, naming the first check that fails, when
    (g11, g12, g22) are not the entries of a CovarianceBlock."""
    det = stable_det2(g11, g12, g22)
    positive, finite, definite = _block_checks(g11, g12, g22, det)
    if not positive:
        raise BelowHeisenbergError(
            f"diagonal entries must be positive, got ({g11}, {g22})")
    if not finite:
        raise BelowHeisenbergError("covariance entries must be finite")
    if not definite:
        raise BelowHeisenbergError(f"covariance is not positive definite: det = {det}")


def _require_blocks(g11, g12, g22) -> np.ndarray:
    """CovarianceBlock's checks on every element of the entry arrays: the
    first element that fails raises what its block would.  Returns the
    stable_det2 determinants."""
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic
        det = stable_det2(g11, g12, g22)
        ok = np.logical_and.reduce(_block_checks(g11, g12, g22, det))
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        _require_block(*(float(g[i]) for g in (g11, g12, g22)))
    return det


def _canonical_angle(a: float) -> float:
    """Map an angle to (-pi, pi]."""
    r = math.remainder(a, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


@dataclass(frozen=True)
class CovarianceBlock:
    """Reference-partition covariance of one mode pair: (g11, g12, g22).

    Invariants: g11, g22 > 0 and det = g11*g22 - g12**2 >= 1 up to a small
    numerical slack (equality holds for pure states), read by ``lam``.
    """

    g11: float
    g12: float
    g22: float

    def __post_init__(self):
        _require_block(self.g11, self.g12, self.g22)

    @property
    def det(self) -> float:
        """stable_det2 of the entries; DomainError where finite entries
        (beyond ~1e154) overflow it."""
        det = stable_det2(self.g11, self.g12, self.g22)
        if not math.isfinite(det):
            raise DomainError(f"the determinant of entries ({self.g11}, {self.g12}, "
                              f"{self.g22}) overflows a double")
        return det

    @property
    def lam(self) -> float:
        """sigma(0)^2 = 1/purity: the one place where the entry determinant
        meets the uncertainty bound.  That determinant carries ~eps
        ((g11+g22)/2)^2 of representation noise, and the entropy kernel has
        an infinite derivative at 1+, so within the band max(HEISENBERG_SLACK,
        64 eps ((g11+g22)/2)^2) of 1 the block is exactly pure, lam = 1;
        below the band, BelowHeisenbergError.  Mixedness inside the band is
        not representable by the entries: use discord_squeezed with (r, lam).
        """
        det = self.det
        half_sum = 0.5 * (self.g11 + self.g22)
        band = max(HEISENBERG_SLACK, 64.0 * sys.float_info.epsilon * half_sum * half_sum)
        if det < 1.0 - band:
            raise BelowHeisenbergError(f"det = {det} violates the uncertainty bound")
        return 1.0 if det < 1.0 + band else det

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])

    def pair_matrix(self) -> np.ndarray:
        """4x4 covariance in the reference partition: diag(B, B)."""
        z = np.zeros((2, 2))
        b = self.as_matrix()
        return np.block([[b, z], [z, b]])

    @staticmethod
    def vacuum() -> "CovarianceBlock":
        return CovarianceBlock(1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Covariance4:
    """A full 4x4 real symmetric covariance matrix."""

    m: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (4, 4):
            raise DomainError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(m).max())):
            raise DomainError("covariance matrix must be symmetric")
        object.__setattr__(self, "m", 0.5 * (m + m.T))

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.m))

    @staticmethod
    def from_block(block: CovarianceBlock) -> "Covariance4":
        return Covariance4(block.pair_matrix())


@dataclass(frozen=True)
class PartitionAngles:
    """Four angles defining a bipartition, stored canonicalized to (-pi, pi]."""

    alpha: float
    beta: float
    delta: float
    theta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "delta", "theta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"angle {name} must be finite, got {v}")
            object.__setattr__(self, name, _canonical_angle(v))


@dataclass(frozen=True)
class SqueezingState:
    """Generalized squeezing parameters (r, phi, lam) of a covariance block,
    lam = det = 1/purity.  Non-finite values or r < 0 raise DomainError,
    lam < 1 - HEISENBERG_SLACK raises BelowHeisenbergError, and lam is
    stored floored at 1: consumers read it as it is.
    """

    r: float
    phi: float
    lam: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r, self.phi, self.lam))):
            raise DomainError(f"r, phi and lam must be finite, got {self}")
        if self.r < 0.0:
            raise DomainError(f"squeezing amplitude must be >= 0, got {self.r}")
        if self.lam < 1.0 - HEISENBERG_SLACK:
            raise BelowHeisenbergError(f"ellipse-area parameter below 1: {self.lam}")
        object.__setattr__(self, "lam", max(self.lam, 1.0))


@dataclass(frozen=True)
class ParticleStatistics:
    """Mean pair occupation n and pair correlation c of a mode pair."""

    n: float
    c: complex

    @staticmethod
    def vacuum() -> "ParticleStatistics":
        return ParticleStatistics(0.0, 0.0 + 0.0j)


def general_partition_matrix(angles: PartitionAngles) -> np.ndarray:
    """Partition matrix for the four-angle family of bipartitions.

    The returned 4x4 matrix maps the reference phase-space vector to the
    one describing the two new subsystems; it is symplectic and reduces to
    the identity for vanishing angles.
    """
    a, b, d, t = angles.alpha, angles.beta, angles.delta, angles.theta
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    cd, sd = math.cos(d), math.sin(d)
    ct, st = math.cos(t), math.sin(t)
    cm, sm = math.cos(a - b - d), math.sin(a - b - d)
    return np.array(
        [
            [ca * ct, -sa * ct, -cd * st, sd * st],
            [sa * ct, ca * ct, -sd * st, -cd * st],
            [cb * st, -sb * st, cm * ct, sm * ct],
            [sb * st, cb * st, -sm * ct, cm * ct],
        ]
    )


def one_param_partition_matrix(theta: float) -> np.ndarray:
    """One-angle subfamily of partitions: the four-angle family at
    (alpha, beta, delta) = (0, 2 theta - pi/2, pi/2).

    theta = 0 is the reference partition; theta = -pi/4 is the partition
    into the two opposite-wavevector modes, which maximizes discord.
    """
    return general_partition_matrix(
        PartitionAngles(0.0, 2.0 * theta - 0.5 * math.pi, 0.5 * math.pi, theta))


def is_symplectic(T: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff ||T J T^T - J||_max <= tol."""
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    T = np.asarray(T, dtype=float)
    resid = T @ SYMPLECTIC_FORM @ T.T - SYMPLECTIC_FORM
    return bool(np.abs(resid).max() <= tol)


def transform_covariance(g: Covariance4 | np.ndarray, T: np.ndarray,
                         tol: float = 1e-8) -> Covariance4:
    """Covariance in the partition reached by T: returns T g T^T.

    Raises NonSymplecticError when T fails the symplectic check, since a
    non-symplectic map would not describe a change of partition.
    """
    if not is_symplectic(T, tol):
        raise NonSymplecticError("transformation does not satisfy T J T^T = J")
    m = g.m if isinstance(g, Covariance4) else np.asarray(g, dtype=float)
    return Covariance4(T @ m @ T.T)


def covariance_blocks_in_partition(block: CovarianceBlock, theta: float) -> dict:
    """Closed-form 2x2 blocks {A, B, C} of the covariance in partition theta.

    A and B are the reduced covariances of the two subsystems, C their
    cross-correlation.  Assembling [[A, C], [C, B]] reproduces
    transform_covariance(diag(block, block), one_param_partition_matrix(theta)).
    """
    g11, g12, g22 = block.g11, block.g12, block.g22
    ct2, st2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
    c4, s4 = math.cos(4.0 * theta), math.sin(4.0 * theta)
    half_diff = 0.5 * (g11 - g22)
    half_sum = 0.5 * (g11 + g22)

    a_mat = np.array(
        [
            [g11 * ct2 + g22 * st2, g12 * c2],
            [g12 * c2, g22 * ct2 + g11 * st2],
        ]
    )
    b11 = half_sum + half_diff * c2 * c4 - g12 * c2 * s4
    b12 = g12 * c2 * c4 + half_diff * c2 * s4
    b22 = half_sum - half_diff * c2 * c4 + g12 * c2 * s4
    b_mat = np.array([[b11, b12], [b12, b22]])
    c11 = half_diff * s2 ** 2 + 0.5 * g12 * s4
    c12 = -0.5 * half_diff * s4 + g12 * s2 ** 2
    c_mat = np.array([[c11, c12], [c12, -c11]])
    return {"A": a_mat, "B": b_mat, "C": c_mat}


def purity(block: CovarianceBlock) -> float:
    """State purity 1/det, read as 1/block.lam."""
    return 1.0 / block.lam


def _ln(x: float) -> float:
    """ln x, -inf at x = 0."""
    return math.log(x) if x > 0.0 else -math.inf


def _half_sin(theta: float) -> float:
    """|sin(2 theta)| / 2, the partition factor of sqrt(q)."""
    return 0.5 * abs(math.sin(2.0 * theta))


def _sqrt_q(g11, g12, g22, theta: float):
    """sqrt(q) of covariance entries, q = sigma(theta)^2 - sigma(0)^2
    = (m |sin(2 theta)| / 2)^2 >= 0 with m = hypot(g11 - g22, 2 g12): the
    cancellation-free form of cos^2(2 theta) det + ((g11+g22)/2)^2
    sin^2(2 theta) - det.  No entry is squared, so it stays finite for
    entries far beyond 1e154.  Floats or arrays of one shape."""
    return np.hypot(g11 - g22, 2.0 * g12) * _half_sin(theta)


def _ln_q(g11, g12, g22, theta: float):
    """ln q = 2 ln sqrt(q) of `_sqrt_q`, -inf where q = 0."""
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(_sqrt_q(g11, g12, g22, theta))


def sigma_theta(block: CovarianceBlock, theta: float) -> float:
    """Symplectic eigenvalue of either reduced block in partition theta,
    sqrt(block.lam + q) = hypot(sqrt(block.lam), sqrt(q)).

    Reduces to sqrt(block.lam) at theta = 0 and grows monotonically
    with |sin(2 theta)|; theta must be finite (DomainError).
    """
    if not math.isfinite(theta):
        raise DomainError(f"partition angle must be finite, got {theta}")
    return math.hypot(math.sqrt(block.lam),
                      float(_sqrt_q(block.g11, block.g12, block.g22, theta)))


def particle_statistics(block: CovarianceBlock) -> ParticleStatistics:
    """Mean pair occupation and pair correlation of the block.  Entry
    arrays, as on a CovarianceTrajectory, give arrays of n and c."""
    n = 0.25 * (block.g11 + block.g22) - 0.5
    c = 0.25 * (block.g11 - block.g22) + 0.5j * block.g12
    return ParticleStatistics(n, c)


#: below this amplitude the squeezing angle is numerically meaningless
DEGENERATE_R = 1e-8


def _squeezing_columns(g11, g12, g22, lam):
    """Squeezing parameters (r, phi) of covariance entries with determinant
    lam >= 1, float arrays of one shape, element by element, as in
    squeezing_from_covariance; r is not checked against the degeneracy
    floor here.  Call under np.errstate(over="ignore", invalid="ignore").
    """
    # r = arccosh(y)/2 with y = (g11+g22)/(2 sqrt(lam)), but evaluated
    # as asinh of sinh(2r) = sqrt(y^2-1) read off the entries directly:
    # the difference combination is cancellation-free, so r keeps full
    # relative accuracy down to (and below) the degeneracy floor, where
    # the y route would lose half the digits to the cosh flatness.
    # asinh s = log1p(s + s^2/(1 + sqrt(1 + s^2))), s^2 never formed: on
    # the evolve_open rows it is as close to mpmath as libm's asinh, where
    # np.arcsinh's SIMD kernel reads up to 0.09 ulp further.  Finite for
    # s below 8.9e307.
    s = 0.5 * np.hypot(g11 - g22, 2.0 * g12) / np.sqrt(lam)
    r = 0.5 * np.log1p(s + s * (s / (1.0 + np.hypot(1.0, s))))
    phi = 0.5 * np.arctan2(-g12, 0.5 * (g22 - g11))
    return r, np.where(phi <= -0.5 * math.pi, phi + math.pi, phi)


def squeezing_from_covariance(block: CovarianceBlock) -> SqueezingState:
    """Invert a covariance block into squeezing parameters (r, phi, lam).

    lam = det, cosh(2r) = (g11+g22)/(2 sqrt(lam)), and phi is fixed by
    sin(2 phi) = -g12/(sqrt(lam) sinh(2r)),
    cos(2 phi) = (g22-g11)/(2 sqrt(lam) sinh(2r)),
    canonicalized to phi in (-pi/2, pi/2].  The one-element case of
    _squeezing_columns, with lam = block.lam.

    Raises DegenerateSqueezingError when r <= 1e-8 (phi undefined; use the
    covariance representation instead).
    """
    lam = block.lam
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic
        (r,), (phi,) = (c.tolist() for c in _squeezing_columns(
            *(np.array([v], dtype=float) for v in (block.g11, block.g12, block.g22, lam))))
    if r <= DEGENERATE_R:
        raise DegenerateSqueezingError(
            f"r = {r} too small for the squeezing angle to be defined"
        )
    return SqueezingState(r=r, phi=phi, lam=lam)


def covariance_from_squeezing(state: SqueezingState) -> CovarianceBlock:
    """Covariance block of a (generalized) squeezed state.

    g11 = sqrt(lam) (cosh 2r - cos 2phi sinh 2r)
    g12 = -sqrt(lam) sin 2phi sinh 2r
    g22 = sqrt(lam) (cosh 2r + cos 2phi sinh 2r)

    The determinant equals lam identically.
    """
    sl = math.sqrt(state.lam)
    ch = math.cosh(2.0 * state.r)
    sh = math.sinh(2.0 * state.r)
    c2, s2 = math.cos(2.0 * state.phi), math.sin(2.0 * state.phi)
    return CovarianceBlock(
        g11=sl * (ch - c2 * sh),
        g12=-sl * s2 * sh,
        g22=sl * (ch + c2 * sh),
    )
