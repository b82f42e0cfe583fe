"""Real gamma, xlog1py and a signed logsumexp, bit for bit as scipy.special
1.17 computes them, without importing scipy.special (whose import alone
costs more than the default discord map).

`gamma` and `xlog1py` port the cephes routines scipy evaluates: Gamma
(cephes gamma.c: the rational approximation on [2, 3], recurrence, the
reflection formula and Stirling's series) and log1p (cephes unity.c: a
rational approximation where 1 + y lies in [sqrt(1/2), sqrt(2)], libm log
elsewhere).  The coefficients are cephes' own, as scipy ships them.  The
arithmetic runs in the same order on IEEE doubles, and every
transcendental call goes to the same libm (math.exp, math.sin, float pow,
math.log): numpy's SIMD log differs from libm's in the last bit.
`logsumexp` repeats scipy's array operations on numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .symplectic import _libm

__all__ = ["gamma", "xlog1py", "logsumexp"]

# cephes gamma.c: Gamma(x + 2) = P(x)/Q(x) for 0 <= x < 1
_GAMMA_P = (
    1.60119522476751861407e-4,
    1.19135147006586384913e-3,
    1.04213797561761569935e-2,
    4.76367800457137231464e-2,
    2.07448227648435975150e-1,
    4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5,
    5.39605580493303397842e-4,
    -4.45641913851797240494e-3,
    1.18139785222060435552e-2,
    3.58236398605498653373e-2,
    -2.34591795718243348568e-1,
    7.14304917030273074085e-2,
    1.00000000000000000320e0,
)
# cephes gamma.c: Stirling's series, valid for 33 <= x <= 172
_STIR = (
    7.87311395793093628397e-4,
    -2.29549961613378126380e-4,
    -2.68132617805781232825e-3,
    3.47222221605458667310e-3,
    8.33333333333482257126e-2,
)
_MAXGAM = 171.624376956302725
_MAXSTIR = 143.01608
_SQRT_2PI = 2.50662827463100050242e0
_EULER = 0.5772156649015329

# cephes unity.c: log1p(x) = x - x^2/2 + x^3 LP(x)/LQ(x); LQ is monic
_LOG1P_P = (
    4.5270000862445199635215e-5,
    4.9854102823193375972212e-1,
    6.5787325942061044846969e0,
    2.9911919328553073277375e1,
    6.0949667980987787057556e1,
    5.7112963590585538103336e1,
    2.0039553499201281259648e1,
)
_LOG1P_Q = (
    1.0,
    1.5062909083469192043167e1,
    8.3047565967967209469434e1,
    2.2176239823732856465394e2,
    3.0909872225312059774938e2,
    2.1642788614495947685003e2,
    6.0118660497603843919306e1,
)
_SQRT1_2 = 0.70710678118654752440
_SQRT2 = 1.41421356237309504880


def _polevl(x, coeffs):
    """Horner evaluation, highest power first (cephes polevl); x may be
    a float or a float array."""
    ans = coeffs[0]
    for c in coeffs[1:]:
        ans = ans * x + c
    return ans


def _stirf(x: float) -> float:
    """Gamma(x) for 33 < x by Stirling's series (cephes stirf)."""
    if x >= _MAXGAM:
        return math.inf
    w = 1.0 / x
    w = 1.0 + w * _polevl(w, _STIR)
    y = math.exp(x)
    if x > _MAXSTIR:  # pow(x, x - 0.5) would overflow
        v = x ** (0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = x ** (x - 0.5) / y
    return _SQRT_2PI * y * w


def gamma(x: float) -> float:
    """Gamma(x) of a real x, as scipy.special.gamma: inf at +0 and +inf,
    -inf at -0, NaN at the negative integers, -inf and NaN."""
    x = float(x)
    if not math.isfinite(x):
        return x if x > 0.0 else math.nan
    if x == 0.0:
        return math.copysign(math.inf, x)
    q = abs(x)
    if q > 33.0:
        if x > 0.0:
            return _stirf(x)
        p = float(math.floor(q))
        if p == q:
            return math.nan
        sign = -1.0 if int(p) % 2 == 0 else 1.0
        z = q - p
        if z > 0.5:
            p += 1.0
            z = q - p
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return sign * math.inf
        return sign * (math.pi / (abs(z) * _stirf(q)))

    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        if x > -1e-9:
            return z / ((1.0 + _EULER * x) * x)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1e-9:
            # x reached 0 exactly only from a negative integer
            return math.nan if x == 0.0 else z / ((1.0 + _EULER * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    # polevl unrolled: a Python loop would double the cost of a call
    p0, p1, p2, p3, p4, p5, p6 = _GAMMA_P
    q0, q1, q2, q3, q4, q5, q6, q7 = _GAMMA_Q
    p = (((((p0 * x + p1) * x + p2) * x + p3) * x + p4) * x + p5) * x + p6
    q = ((((((q0 * x + q1) * x + q2) * x + q3) * x + q4) * x + q5) * x + q6) * x + q7
    return z * p / q


def _log1p(y: np.ndarray) -> np.ndarray:
    """cephes log1p of a float array: the rational form where 1 + y lies
    in [sqrt(1/2), sqrt(2)] (or is NaN), libm log of 1 + y elsewhere
    (C's -inf at 0 and NaN below)."""
    z = 1.0 + y
    outer = (z < _SQRT1_2) | (z > _SQRT2)
    out = np.where(z == 0.0, -np.inf, np.nan)
    pos = outer & (z > 0.0)
    out[pos] = _libm(math.log, z[pos])
    v = y[~outer]
    v2 = v * v
    p, q = _polevl(v, _LOG1P_P), _polevl(v, _LOG1P_Q)
    out[~outer] = v + (-0.5 * v2 + v * (v2 * p / q))
    return out


def xlog1py(x, y) -> np.ndarray:
    """x * log1p(y) elementwise, 0 where x = 0 and y is not NaN, as
    scipy.special.xlog1py: a float array of the broadcast shape."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    with np.errstate(invalid="ignore"):
        return np.where((x == 0.0) & ~np.isnan(y), 0.0, x * _log1p(y))


def logsumexp(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(ln|s|, sign s) of s = sum b e^a along axis 0, float arrays, as
    scipy.special.logsumexp(a, 0, b=b, return_sign=True) computes them:
    the largest term (every tie, over b != 0) is taken out of the sum and
    the rest divided by it, ln|s| = log1p(rest) + ln|b at the max| + max a,
    and ln|sum| of the naive sum wherever that is not finite (scipy forms
    the naive sum everywhere; here only when some result needs it)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.where(b == 0, -np.inf, a)
        a_max = np.max(shifted, axis=0, keepdims=True)
        top = shifted == a_max
        shifted[top] = -np.inf
        m = np.sum(b * top.astype(float), axis=0, keepdims=True)
        s = np.sum(b * np.exp(shifted - a_max), axis=0, keepdims=True)
        s = np.where(s == 0, s, s / m)
        sgn = np.sign(s + 1) * np.sign(m)
        s = np.where(s < -1, -s - 2, s)
        out = np.log1p(s) + np.log(np.abs(m)) + a_max

        finite = np.isfinite(out)
        if not finite.all():
            naive = np.sum(b * np.exp(a), axis=0, keepdims=True)
            out = np.where(finite, out, np.log(np.abs(naive)))
            sgn = np.where(finite, sgn, np.sign(naive))
    return out[0], sgn[0]
