"""Upper incomplete gamma for real order and complex argument, and the
oscillatory power-moment integral built on top of it.

The oscillatory moment

    M_alpha(x) = int_{1/ell_h}^{x} e^{2 i x'} x'^alpha dx'

is the computational primitive of the environment-dressed covariance in
the de Sitter application; its closed form needs Gamma(a, z) on the
imaginary axis with negative non-integer order, which scipy does not
provide.  The implementation follows the classical two-region scheme:
a power series around z = 0 and a modified Lentz continued fraction for
large |z|, both valid for any real non-integer order.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import BranchCutError, DomainError, PoleOrderError

__all__ = [
    "upper_incomplete_gamma",
    "oscillatory_moment",
    "oscillatory_moment_limits",
]

#: orders within this distance of a non-positive integer are rejected
_POLE_TOL = 1e-8

#: series/continued-fraction hand-over radius (see the accuracy battery in
#: the tests: both methods overlap comfortably around |z| ~ 4.5)
_SPLIT_RADIUS = 4.5

_MAX_SERIES = 2000
_MAX_CF = 20000


def _check_args(a: float, z: complex) -> None:
    if not math.isfinite(a):
        raise DomainError(f"order must be finite, got {a}")
    if a <= _POLE_TOL and abs(a - round(a)) < _POLE_TOL:
        raise PoleOrderError(f"order {a} is too close to a non-positive integer")
    if z.imag == 0.0 and z.real < 0.0:
        raise BranchCutError(f"argument {z} lies on the negative real axis")


def _series(a: float, z: complex) -> complex:
    """Gamma(a) - lower incomplete gamma via the product series.

    gamma_low(a,z) = z^a e^{-z} sum_n z^n / (a (a+1) ... (a+n)); the
    series is entire in z and, for negative non-integer a, no factor in
    the denominator vanishes.  Safe for |z| up to a few units.
    """
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_SERIES):
        term *= z / (a + n)
        total += term
        size = abs(total)
        # max(size, 1e-300) without the builtin call, NaN included
        if abs(term) < 1e-17 * (1e-300 if size < 1e-300 else size):
            break
    else:  # pragma: no cover - the split radius keeps us far from this
        raise DomainError(f"incomplete-gamma series did not converge for a={a}, z={z}")
    low = cmath.exp(a * cmath.log(z) - z) * total
    return _complete_gamma(a) - low


@functools.lru_cache(maxsize=16)
def _complete_gamma(a: float) -> complex:
    """complex(Gamma(a)), the same for every z of an order: a quadrature of
    the exact route asks the series for three orders at each node.
    PoleOrderError at the poles, DomainError where Gamma(a) overflows a
    double (a > 171.6)."""
    try:
        return complex(math.gamma(a))
    except ValueError:
        raise PoleOrderError(f"Gamma({a}) has a pole") from None
    except OverflowError:
        raise DomainError(f"Gamma({a}) overflows a double") from None


def _lentz_cf(a: float, z: complex) -> complex:
    """Modified Lentz evaluation of the continued fraction for Gamma(a, z)."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_CF):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 5e-17:
            break
    else:
        raise DomainError(
            f"incomplete-gamma continued fraction did not converge for a={a}, z={z}"
        )
    return cmath.exp(a * cmath.log(z) - z) * h


def upper_incomplete_gamma(a: float, z: complex) -> complex:
    """Principal-branch Gamma(a, z) = int_z^inf t^{a-1} e^{-t} dt.

    Supports any real order away from the poles at non-positive integers
    and any complex argument off the negative real axis; z = 0 requires
    a > 0 (where the ordinary gamma function is returned).  Where the
    series needs Gamma(a) and it overflows a double (a > 171.6, z = 0
    among them), or the prefactor z^a e^-z of either branch overflows
    (tiny |z| at a negative order), DomainError.
    """
    z = complex(z)
    _check_args(a, z)
    if z == 0.0:
        if a > 0.0:
            return _complete_gamma(a)
        raise DomainError(f"Gamma(a, 0) diverges for a = {a} <= 0")
    try:  # cmath.exp raises OverflowError
        if (a > 0.0 and abs(z) < a + 1.0) or abs(z) < _SPLIT_RADIUS:
            return _series(a, z)
        return _lentz_cf(a, z)
    except OverflowError:
        raise DomainError(f"z^a e^-z overflows a double for a={a}, z={z}") from None


@functools.lru_cache(maxsize=16)
def _lower_limit_gamma(alpha: float, ell_h: float) -> complex:
    """Gamma(1+alpha, -2i/ell_h): the lower-limit term of the moment, the
    same at every x.  Two routes read it: a quadrature over x of the exact
    route asks for it at each node, and the super-Hubble table asks for it
    through `oscillatory_moment_limits`, three orders per table.  One exact
    covariance uses three (alpha, ell_h) pairs, so a few rows fit."""
    return upper_incomplete_gamma(1.0 + alpha, -2j / ell_h)


def oscillatory_moment(alpha: float, x: float, ell_h: float) -> complex:
    """M_alpha(x) = int_{1/ell_h}^{x} e^{2 i x'} x'^alpha dx'.

    Evaluated through the closed form

        -2^{-1-alpha} (-i)^{-1-alpha} [Gamma(1+alpha, -2ix)
                                       - Gamma(1+alpha, -2i/ell_h)]

    with (-i)^{-1-alpha} on the principal branch, i.e. e^{i(1+alpha)pi/2}.
    The prefactor is cached per alpha, the lower-limit Gamma per
    (alpha, ell_h).
    """
    if x <= 0.0 or ell_h <= 0.0:
        raise DomainError("x and ell_h must be positive")
    g_hi = upper_incomplete_gamma(1.0 + alpha, -2j * x)
    g_lo = _lower_limit_gamma(alpha, ell_h)
    return _moment_prefactor(alpha) * (g_hi - g_lo)


@functools.lru_cache(maxsize=16)
def _moment_prefactor(alpha: float) -> complex:
    """-2^{-1-alpha} e^{i (1+alpha) pi/2} of `oscillatory_moment`, the same
    at every x."""
    return -(2.0 ** (-1.0 - alpha)) * cmath.exp(1j * (1.0 + alpha) * math.pi / 2.0)


def oscillatory_moment_limits(alpha: float, ell_h: float) -> tuple[float, float]:
    """x -> 0+ constants (Re, Im) of the oscillatory moment.

    These are the pieces of Re/Im M_alpha(x) that survive after the
    power-series-in-x part is subtracted; they only depend on ell_h:

      limit_re = 2^{-1-a} G(1+a) sin(pi a/2)
                 - i 2^{-2-a} [e^{-i pi a/2} G(1+a,  2i/ell_h)
                               - e^{+i pi a/2} G(1+a, -2i/ell_h)]
      limit_im = -2^{-1-a} G(1+a) cos(pi a/2)
                 + 2^{-2-a} [e^{-i pi a/2} G(1+a,  2i/ell_h)
                             + e^{+i pi a/2} G(1+a, -2i/ell_h)]

    With Gamma(a, conj z) = conj Gamma(a, z) both brackets are real parts
    of w = e^{+i pi a/2} G(1+a, -2i/ell_h): limit_re = 2^{-1-a} (G(1+a)
    sin(pi a/2) - Im w) and limit_im = 2^{-1-a} (Re w - G(1+a) cos(pi a/2)),
    real by construction.  G(1+a, -2i/ell_h) is the cached lower-limit
    term of `oscillatory_moment`.
    """
    a = alpha
    g_full = _complete_gamma(1.0 + a).real
    w = cmath.exp(1j * math.pi * a / 2.0) * _lower_limit_gamma(a, ell_h)
    two = 2.0 ** (-1.0 - a)
    lim_re = two * g_full * math.sin(math.pi * a / 2.0) - two * w.imag
    lim_im = -two * g_full * math.cos(math.pi * a / 2.0) + two * w.real
    return lim_re, lim_im
