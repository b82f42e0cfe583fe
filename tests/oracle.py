"""mpmath oracle for the super-Hubble coefficient table.

Every quantity is evaluated at 50 significant digits from mpmath's own
incomplete gamma (`mp.gammainc`), independently of `gausslind.specfun`.
The Sigma coefficients of sigma^2(0) are the sums over the full series
of the dressed covariance (the rational multiples of b11, d11 and f11),
so they check the closed forms of `cosmology.sigma0_sq_coefficients`
against the series they stand for.

`partition_matrix` is the paper's four-angle partition of the mode pair
as a float 4x4, the reference of the closed-form sigma(theta) of
`symplectic` (the one-angle family) and of any general-partition route.

`log_sigmas` is the linear-domain reader of a trajectory's cells, the
reference for the log-domain readers of the discord routes.

`mode_covariance` is the closed covariance of any frequency read off the
mode function, the reference of `opensys.evolve_open` where no closed
form is known.

`dop853` and `de_sitter_response` are the integrator reference of the
transport route's two collocated phases: the de Sitter response to n unit
sources on scipy's compiled DOP853, below the rtol floor of solve_ivp;
`response_cells` reads its cells at any couplings.  `collocate_dense` is
the reference of one collocated interval: the three rows of every block
at every Chebyshev point as one dense system, diagonal included.
"""

import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from gausslind.closed import transport_rhs_closed
from gausslind.cosmology import de_sitter_covariance_closed, de_sitter_frequency
from gausslind.symplectic import _ln_q, _require_blocks

DPS = 50


def moment_limits(alpha, ellH):
    """(Re, Im) of the x -> 0 constant L of the oscillatory moment
    M_alpha(x) = int_{1/ellH}^x e^{2it} t^alpha dt, i.e. M_alpha(x) minus
    its power series in x:
    L = -2^(-1-alpha) e^(i pi (1+alpha)/2) [Gamma(1+alpha) - Gamma(1+alpha, -2i/ellH)]."""
    a = mp.mpf(alpha)
    lim = -mp.power(2, -1 - a) * mp.expjpi((1 + a) / 2) * (
        mp.gamma(1 + a) - mp.gammainc(1 + a, mp.mpc(0, -2) / mp.mpf(ellH)))
    return lim.real, lim.imag


def coefficient_table(p, ellH) -> SimpleNamespace:
    """a11, a12, a22, b11, d11, f11 of the table at (p, ellH),
    with p and the moment limits (r, i) of orders 1-p, 2-p, 3-p."""
    with mp.workdps(DPS):
        p, ellH = mp.mpf(p), mp.mpf(ellH)
        r1, i1 = moment_limits(1 - p, ellH)
        r2, i2 = moment_limits(2 - p, ellH)
        r3, i3 = moment_limits(3 - p, ellH)
        den = (p - 8) * (p - 5) * (p - 2)
        e = mp.power(ellH, p - 4) / (p - 4) + mp.power(ellH, p - 2) / (p - 2)
        return SimpleNamespace(
            p=p, r=(r1, r2, r3), i=(i1, i2, i3),
            a11=-2 / den,
            a12=-(p - 6) / den,
            a22=-(26 + p * (p - 11)) / den,
            b11=(e - r1 - 2 * i2 + r3) / 2,
            d11=(-i1 + 2 * r2 + i3) / 3,
            f11=(r1 + 2 * i2 - r3) / 9,
        )


def sigma_coefficients(t: SimpleNamespace, kap2) -> tuple:
    """(s0_2, s0_4, sx_2, sx_4, sxx_4) of sigma^2(0) as sums over the
    full series of the table t (from `coefficient_table`)."""
    with mp.workdps(DPS):
        kap2 = mp.mpf(kap2)
        b, d, f = t.b11, t.d11, t.f11
        b12 = b22 = c11 = e22 = b
        c12, d22, e12, g22 = -d / 2, -2 * d, -2 * f, 4 * f
        s0_2 = kap2 * (-2 * c11 + 4 * e12 - 2 * e22 - 2 * f - 2 * g22)
        s0_4 = kap2 ** 2 * (-4 * c12 ** 2 + 4 * d * d22 - 8 * b12 * e12
                            + 4 * c11 * e22 + 4 * b22 * f + 4 * b * g22)
        sx_2 = kap2 * (-2 * t.a11 + 4 * t.a12 - 2 * t.a22)
        sx_4 = kap2 ** 2 * (4 * t.a22 * b - 8 * t.a12 * b12 + 4 * t.a11 * b22)
        sxx_4 = 4 * kap2 ** 2 * (t.a11 * t.a22 - t.a12 ** 2)
        return s0_2, s0_4, sx_2, sx_4, sxx_4


def sigma0_sq(x, p, ellH, kGamma_over_kstar):
    """sigma^2(0) = 1 + Sigma_0 + Sigma_{2-p} x^(2-p) + Sigma_{10-2p} x^(10-2p)."""
    with mp.workdps(DPS):
        t = coefficient_table(p, ellH)
        s0_2, s0_4, sx_2, sx_4, sxx_4 = sigma_coefficients(t, mp.mpf(kGamma_over_kstar) ** 2)
        x = mp.mpf(x)
        return (1 + s0_2 + s0_4 + (sx_2 + sx_4) * mp.power(x, 2 - t.p)
                + sxx_4 * mp.power(x, 10 - 2 * t.p))


#: block-diagonal symplectic form J of two degrees of freedom
J = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])


def partition_matrix(alpha, beta, delta, theta):
    """4x4 symplectic T (T J T^T = J, det T = 1) taking the reference
    phase-space vector of the mode pair to the two subsystems of the
    partition (alpha, beta, delta, theta); the identity at zero angles.
    The covariance there is T diag(B, B) T^T for the reference block B."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cd, sd = math.cos(delta), math.sin(delta)
    ct, st = math.cos(theta), math.sin(theta)
    cm, sm = math.cos(alpha - beta - delta), math.sin(alpha - beta - delta)
    return np.array([[ca * ct, -sa * ct, -cd * st, sd * st],
                     [sa * ct, ca * ct, -sd * st, -cd * st],
                     [cb * st, -sb * st, cm * ct, sm * ct],
                     [sb * st, cb * st, -sm * ct, cm * ct]])


def log_sigmas(traj, theta):
    """(ln sigma(0)^2, ln q) of every sample of a CovarianceTrajectory (or
    of its cells) across partition theta, read from the entries and the
    transported det in the linear domain: the CovarianceBlock checks
    (`symplectic._require_blocks`), then ln traj.lam and `symplectic._ln_q`."""
    g = (traj.g11, traj.g12, traj.g22)
    _require_blocks(*g)
    return np.log(traj.lam), _ln_q(*g, theta)


def discord_from_logs(ln_s0sq, ln_q, dps=600):
    """(D, I, J) in bits of sigma(0)^2 = e^ln_s0sq and
    q = sigma(theta)^2 - sigma(0)^2 = e^ln_q (ln_q = -inf for q = 0),
    straight from D = f(st) - 2 f(s0) + f(mix), I = 2 f(st) - 2 f(s0) and
    J = f(st) - f(mix), mix = (st + s0^2)/(st + 1), with
    f(x) = u log2 u - d log2 d, u = (x+1)/2, d = (x-1)/2, at dps digits.
    The entropies are differences of terms of size sigma ln sigma, so D
    down to 1e-300 at sigma(0) = e^300 needs about 300 + 130 + 16 digits."""
    with mp.workdps(dps):
        s, q = mp.exp(mp.mpf(ln_s0sq)), mp.exp(mp.mpf(ln_q))
        st, s0 = mp.sqrt(s + q), mp.sqrt(s)
        mix = (st + s) / (st + 1)

        def f(x):
            u, d = (x + 1) / 2, (x - 1) / 2
            return (u * mp.log(u) - (d * mp.log(d) if d > 0 else 0)) / mp.log(2)

        return f(st) - 2 * f(s0) + f(mix), 2 * (f(st) - f(s0)), f(st) - f(mix)


def discord_from_entries(g11, g12, g22, lam, theta, dps=600):
    """(D, I, J) in bits of one covariance sample given as doubles: its
    entries, sigma(0)^2 = lam and the partition angle theta, with
    q = ((g11 - g22)^2 + 4 g12^2) sin^2(2 theta) / 4 formed at dps digits
    and handed to `discord_from_logs`."""
    with mp.workdps(dps):
        g11, g12, g22 = mp.mpf(g11), mp.mpf(g12), mp.mpf(g22)
        q = ((g11 - g22) ** 2 + 4 * g12 ** 2) * mp.sin(2 * mp.mpf(theta)) ** 2 / 4
        return discord_from_logs(mp.log(mp.mpf(lam)), mp.log(q), dps)


def psi_gap(ln_step, ln_bm1, dps=60):
    """psi(1/b^2) - psi(1/a^2) of `discord._psi_gap` for b = 1 + e^ln_bm1
    and a = b + e^ln_step, at dps digits: with f(x) ln 2 = ln(x/2) + 1
    - psi(1/x^2), it is F(a) - F(b) - ln(a/b), F(x) = u ln u - d ln d,
    u = (x+1)/2, d = (x-1)/2."""
    with mp.workdps(dps):
        b = 1 + mp.exp(mp.mpf(ln_bm1))
        a = b + mp.exp(mp.mpf(ln_step))

        def F(x):
            u, d = (x + 1) / 2, (x - 1) / 2
            return u * mp.log(u) - (d * mp.log(d) if d > 0 else 0)

        return F(a) - F(b) - mp.log(a / b)


def xlog1py(x, y):
    """x log1p(y) of two doubles at 40 digits, NaN where IEEE arithmetic
    gives NaN: a NaN argument, y < -1, or 0 times an infinite log."""
    with mp.workdps(40):
        x, y = mp.mpf(x), mp.mpf(y)
        if mp.isnan(x) or mp.isnan(y) or y < -1:
            return mp.nan
        log = mp.log1p(y)  # -inf at y = -1
        if (x == 0 and mp.isinf(log)) or (mp.isinf(x) and log == 0):
            return mp.nan
        return x * log


def xlog1py_ulps(got, x, y):
    """|got - x log1p(y)| in ulps of x log1p(y) at 40 digits; None where
    x log1p(y) is not a normal double."""
    with mp.workdps(40):
        want = xlog1py(x, y)
        if mp.isnan(want) or not 2.2250738585072014e-308 <= abs(want) <= 1.7976931348623157e308:
            return None
        return float(abs(mp.mpf(got) - want) / math.ulp(float(want)))


def gamma_ulps(gamma, x):
    """|gamma() - Gamma(x)| in ulps of Gamma(x) rounded to a double (the
    subnormal spacing 5e-324 below 2.2e-308) at 40 digits, x off the
    poles; None, and gamma is not called, where Gamma(x) overflows a
    double."""
    with mp.workdps(40):
        want = mp.gamma(mp.mpf(x))
        if math.isinf(float(want)):
            return None
        return float(abs(mp.mpf(gamma()) - want) / math.ulp(float(want)))


def dop853(rhs, y0, t0, times, rtol, atol, first_step, max_step=0.0):
    """The samples (len(times), len(y0)) of y' = rhs(t, y) from y(t0) = y0
    on scipy's compiled DOP853, with its stiffness test off (a fast-varying
    source trips it on these non-stiff systems)."""
    from scipy.integrate import ode
    # the compiled integrator keeps its callback and its integrator object
    # for good (scipy 1.17.1): it gets a callback that reads rhs from a list
    # emptied at the end, and the integrator's state is cleared
    held = [rhs]
    solver = ode(lambda t, y: held[0](t, y)).set_integrator(
        "dop853", rtol=rtol, atol=atol, nsteps=200_000, first_step=first_step,
        max_step=max_step)
    solver.set_initial_value(y0, t0)
    solver._integrator.iwork[3] = -1  # IWORK(4) < 0: no stiffness test
    try:
        ys = np.array([solver.integrate(t) for t in np.asarray(times).tolist()])
        assert solver.successful(), solver.get_return_code()
    finally:
        held.clear()
        vars(solver._integrator).clear()
    return ys


def mode_covariance(freq, ic, times, rtol=1e-13, atol=1e-15):
    """The rows (len(times), 3) of g11, g12, g22 of the closed covariance at
    times, from the mode function: v'' + omega^2(k, t) v = 0 from the mode
    state ic (ModeState(1, -ik, t0) is the vacuum at t0) on `dop853`.  The
    Bogoliubov pair u = (v + i v'/k)/2, w = ((v - i v'/k)/2)^* of vacuum
    initial data has the covariance |u + w^*|^2 = |v|^2, 2 Im(u w) =
    Re(v^* v')/k and |u - w^*|^2 = |v'/k|^2."""
    k = freq.k

    def rhs(t, y):  # y = (Re v, Im v, Re v', Im v')
        w2 = freq.omega_sq(k, t)
        return [y[2], y[3], -w2 * y[0], -w2 * y[1]]

    y = dop853(rhs, [ic.v.real, ic.v.imag, ic.dv.real, ic.dv.imag], ic.time, times,
               rtol, atol, 0.0)
    v, dv = y[:, 0] + 1j * y[:, 1], y[:, 2] + 1j * y[:, 3]
    return np.column_stack([np.abs(v) ** 2, (v.conj() * dv).real / k, np.abs(dv / k) ** 2])


def de_sitter_response(x_start, x_end, source, x_eval, rtol, atol):
    """(y, a, det0) of the de Sitter response to the n unit sources
    source(eta), a 1-D array, from the closed form at x_start, sampled at
    each x of x_eval in conformal time eta = -x: y (3, 1 + n, T) the rows
    g11, g12, g22 of the closed block and of each F_i, a (2, n, T) the rows
    a1, a2, in the layout of the (y, a) of `cosmology._subhubble_response`,
    and det0 the initial det, the closed form's own (the route takes it as
    1).  Its 3 + 5n values run at rtol and atol over sqrt(1 + n), so that
    each of the 1 + n blocks meets the scalar criterion of the RMS error
    norm, with a first step of 1e-6 of the span: the integrator's own
    guess reads the response blocks, which start at 0, against atol
    alone."""
    freq, ic = de_sitter_frequency(), de_sitter_covariance_closed(x_start)
    t_span = (-x_start, -x_end)
    n = len(source(t_span[0]))
    m = 3 + 3 * n
    # the closed flow; only its entries -w and -2 w, w = omega^2, depend on t
    flow = np.array([transport_rhs_closed(e, freq, t_span[0]) for e in np.eye(3)]).T
    out = np.empty(m + 2 * n)
    d, d_f22, d_a1, d_a2 = out[:m].reshape(3, 1 + n), out[m - n:m], out[m:m + n], out[m + n:]

    def rhs(t, y):
        s = source(t)
        w = freq.ratio(t)
        flow[1, 0], flow[2, 1] = -w, -2.0 * w
        flow.dot(y[:m].reshape(3, 1 + n), out=d)
        np.add(d_f22, s, out=d_f22)
        np.multiply(s, y[0], out=d_a1)  # a1' = S g11
        np.multiply(s, y[1:1 + n], out=d_a2)  # a2' = S F11
        return out

    y0 = np.zeros(m + 2 * n)
    y0[:m:1 + n] = (ic.g11, ic.g12, ic.g22)
    scale = math.sqrt(1 + n)
    y = dop853(rhs, y0, t_span[0], [-float(x) for x in x_eval], rtol / scale, atol / scale,
               1e-6 * abs(t_span[1] - t_span[0])).T
    return y[:m].reshape(3, 1 + n, -1), y[m:].reshape(2, n, -1), ic.lam


def response_cells(y, a, det0, kap2):
    """The covariance g + kap2_ij F_i and the det det0 + kap2_ij a1_i +
    kap2_ij^2 a2_i of the sources kap2_ij S_i from a response (y, a, det0)
    of `de_sitter_response`, each field (n, m, T) for couplings kap2 of
    shape (m,) or (n, m)."""
    kap2 = np.asarray(kap2, dtype=float)[..., None]
    g11, g12, g22 = (y[i, 0] + kap2 * y[i, 1:, None, :] for i in range(3))
    det = det0 + kap2 * a[0][:, None, :] + kap2 * kap2 * a[1][:, None, :]
    return SimpleNamespace(g11=g11, g12=g12, g22=g22, det=det, lam=np.maximum(det, 1.0))


def collocate_dense(h, y, a10, diag, src, weights):
    """One interval of `cosmology._collocate` as one dense system: the end
    state and the increments (2, n) of (a1, a2), or None when a Chebyshev
    tail is above TRANSPORT_RTOL of its scale or a value is not finite.

    The blocks y (3, 1 + n) solve u' = A u + b,
    A = [[d0, 2, 0], [a10, d1, 1], [0, 2 a10, d2]] with a10 given at the
    Chebyshev points, (d0, d1, d2) = diag and b = src_i on the row 22 of
    F_i (0 on g); at the points u = y + Q (A u + b) is one system of three
    times their number, whose right-hand sides are the 1 + n blocks.  The
    increments integrate weights[0] g11 and weights[1] F_i11, and the tail
    test is the kernel's."""
    from gausslind import cosmology
    s, q, tail = cosmology._chebyshev_operators()
    k = len(s)
    q = 0.5 * h * q
    system = np.eye(3 * k)
    for i, d in enumerate(diag):
        system[i * k:(i + 1) * k, i * k:(i + 1) * k] -= d * q
    system[:k, k:2 * k] = -2.0 * q
    system[k:2 * k, :k] = -q * a10
    system[k:2 * k, 2 * k:] = -q
    system[2 * k:, k:2 * k] = -2.0 * q * a10
    rhs = np.repeat(y, k, axis=0)
    rhs[2 * k:, 1:] += q @ src
    u = np.linalg.solve(system, rhs).reshape(3, k, -1)
    integrands = np.hstack((weights[0] * u[0, :, :1], weights[1] * u[0, :, 1:]))
    for v, floor in ((u, 0.0), (integrands[None], 1e-100)):
        scale = np.abs(v).max(axis=(0, 1))
        if not (np.isfinite(scale).all() and (np.abs(tail @ v).max(axis=(0, 1))
                                              <= cosmology.TRANSPORT_RTOL
                                              * np.maximum(scale, floor)).all()):
            return None
    return u[:, -1], (q[-1] @ integrands).reshape(2, -1)
