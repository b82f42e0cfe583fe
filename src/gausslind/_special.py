"""A signed logsumexp, scipy.special.logsumexp's own algorithm on numpy
arrays, without importing scipy.special (whose import alone costs more
than the default discord map).
"""

from __future__ import annotations

import numpy as np

__all__ = ["logsumexp"]


def logsumexp(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(ln|s|, sign s) of s = sum b e^a along axis 0, arrays of one shape, as
    scipy.special.logsumexp(a, 0, b=b, return_sign=True) computes them:
    the largest term (every tie, over b != 0) is taken out of the sum and
    the rest divided by it, ln|s| = log1p(rest) + ln|b at the max| + max a,
    and ln|sum| of the naive sum wherever that is not finite (scipy forms
    the naive sum everywhere; here only when some result needs it)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # array methods, not np.max and np.sum: half the call overhead
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.where(b == 0, -np.inf, a)
        a_max = shifted.max(axis=0, keepdims=True)
        top = shifted == a_max
        shifted[top] = -np.inf
        m = (b * top.astype(float)).sum(axis=0, keepdims=True)
        s = (b * np.exp(shifted - a_max)).sum(axis=0, keepdims=True)
        s = np.where(s == 0, s, s / m)
        sgn = np.sign(s + 1) * np.sign(m)
        s = np.where(s < -1, -s - 2, s)
        out = np.log1p(s) + np.log(np.abs(m)) + a_max

        finite = np.isfinite(out)
        if not finite.all():
            naive = (b * np.exp(a)).sum(axis=0, keepdims=True)
            out = np.where(finite, out, np.log(np.abs(naive)))
            sgn = np.where(finite, sgn, np.sign(naive))
    return out[0], sgn[0]
