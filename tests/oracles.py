"""Closed forms, the quadrature wrapper, profile builders, the whole-line
partition and the lambda search that only the tests use, as references for
the kernels in grolab.gauss and grolab.profiles and for
grolab.baseline.optimize_lambda.
"""

import math
import operator
from bisect import bisect_left, bisect_right

import numpy as np

from grolab.baseline import LAMBDA_STAR, davie_reeds_bound, solve_eta_star
from grolab.errors import DomainError, InternalCheckError
from grolab.gauss import (DEFAULT_SPEC, EDGE_TOL, INV_SQRT_2PI, _erfc_masses,
                          _may_take_series, cell_masses, dedupe_edges,
                          gauss_integrate_with_error, gaussian_cdf,
                          gaussian_moments, gaussian_pdf)
from grolab.profiles import (CONST_TAILS, SIGN_TAILS, Cells, Profile,
                             _rebuild, _repair_threshold, _sign,
                             theta_moments)


def hermite_eval(k: int, z):
    """Probabilists' Hermite polynomial H_k for k in {0, 1, 2, 3}."""
    if k == 0:
        return np.ones_like(z, dtype=float) if isinstance(z, np.ndarray) else 1.0
    if k == 1:
        return np.asarray(z, dtype=float) if isinstance(z, np.ndarray) else float(z)
    if k == 2:
        return z * z - 1.0
    if k == 3:
        return z * (z * z - 3.0)
    raise DomainError(f"hermite_eval supports k in 0..3, got {k}")


def interval_mass(a: float, b: float) -> float:
    """Gaussian measure of [a, b]."""
    return gaussian_cdf(b) - gaussian_cdf(a)


def interval_z_moment(a: float, b: float) -> float:
    """Integral of z * pdf(z) over [a, b]."""
    return gaussian_pdf(a) - gaussian_pdf(b)


def erfc_cell_masses(edges) -> np.ndarray:
    """Cell masses as erfc differences on every partition: grolab.gauss's
    cell_masses for cells wider than 2**-10, here taken on narrow ones too."""
    edges = np.asarray(edges, dtype=float)
    s = np.sign(edges)
    s_erfc = s * np.array([math.erfc(abs(e) / math.sqrt(2.0))
                           for e in edges.tolist()])
    return 0.5 * ((s[1:] - s[:-1]) - (s_erfc[1:] - s_erfc[:-1]))


def gaussian_moments_array(edges) -> np.ndarray:
    """grolab.gauss.gaussian_moments on numpy arrays: shape (4, n), row k
    holding I_k of every cell, with np.exp for pdf and cell_masses for row
    0.  The same recurrences, one ufunc per row; the reference for the
    float kernel."""
    e = np.minimum(np.maximum(np.asarray(edges, dtype=float), -40.0), 40.0)
    pdf = np.exp(-0.5 * e * e) * INV_SQRT_2PI
    z_pdf = e * pdf
    zz_pdf = e * z_pdf
    out = np.empty((4, e.size - 1))
    out[0] = cell_masses(e)
    out[1] = pdf[:-1] - pdf[1:]
    out[2] = out[0] + (z_pdf[:-1] - z_pdf[1:])
    out[3] = 2.0 * out[1] + (zz_pdf[:-1] - zz_pdf[1:])
    return out


def gaussian_moments_lists(edges):
    """grolab.gauss.gaussian_moments as nine list passes over the edges: the
    pdf, z pdf and z^2 pdf lists, the masses (_erfc_masses, or cell_masses
    where the midpoint series may apply), then one list per moment.  The
    one-loop kernel must equal it bit for bit."""
    e = list(map(float, edges))
    lo, hi = bisect_left(e, -40.0), bisect_right(e, 40.0)
    e[:lo] = [-40.0] * lo
    e[hi:] = [40.0] * (len(e) - hi)
    pdf = [math.exp(-0.5 * z * z) * INV_SQRT_2PI for z in e]
    z_pdf = list(map(operator.mul, e, pdf))
    zz_pdf = list(map(operator.mul, e, z_pdf))
    m0 = cell_masses(e).tolist() if _may_take_series(e) else _erfc_masses(e)
    m1 = list(map(operator.sub, pdf, pdf[1:]))
    m2 = [i0 + (a - b) for i0, a, b in zip(m0, z_pdf, z_pdf[1:])]
    m3 = [2.0 * i1 + (a - b) for i1, a, b in zip(m1, zz_pdf, zz_pdf[1:])]
    return m0, m1, m2, m3


def partition(points, window: float = math.inf):
    """Cells of (-window, window) cut at the points inside it, merged within
    EDGE_TOL (dedupe_edges).

    Returns (edges, mid): the n + 1 cell edges, infinite at both ends when
    the window is, and a point inside each cell (the midpoint, or an edge
    -+ 1 for an infinite cell), as lists of floats.
    """
    edges = [-window, *dedupe_edges(points, -window, window), window]
    mid = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    if math.isinf(window):
        mid[0], mid[-1] = edges[1] - 1.0, edges[-2] + 1.0
    return edges, mid


def cells(profile: Profile, kinks=(), window: float = math.inf):
    """Cells of (-window, window) on which theta is constant, also cut at
    the kinks more than EDGE_TOL from every profile edge: grolab's cut rule,
    under which a kink that close to an edge cuts nothing.

    Returns (edges, mid, theta) with theta the profile's value at each mid.
    """
    kept = [k for k in map(float, kinks)
            if all(abs(k - e) > EDGE_TOL for e in profile.edges)]
    edges, mid = partition([*profile.edges, *kept], window)
    return edges, mid, [profile.evaluate(m) for m in mid]


def reference_cells(profile: Profile, kinks=(),
                    window: float = math.inf) -> Cells:
    """cells() and one gaussian_moments call on the whole partition: the
    reference for the profile's cell table and every cut of it."""
    edges, mid, theta = cells(profile, kinks, window)
    return Cells(edges, list(zip(mid, theta, *gaussian_moments(edges))))


def tail_first_moment(eta: float) -> float:
    """Integral of z * pdf(z) over [eta, inf) for eta >= 0; equals pdf(eta)."""
    eta = float(eta)
    if not math.isfinite(eta) or eta < 0.0:
        raise DomainError(f"tail_first_moment requires eta >= 0, got {eta}")
    return gaussian_pdf(eta)


def h3_tail_integral(eta: float) -> float:
    """Two-sided tail integral 2 * int_eta^inf H3(z) pdf(z) dz, closed form."""
    eta = float(eta)
    if not math.isfinite(eta) or eta < 0.0:
        raise DomainError(f"h3_tail_integral requires eta >= 0, got {eta}")
    return -2.0 * (1.0 - eta * eta) * gaussian_pdf(eta)


def gauss_integrate(f, spec=DEFAULT_SPEC, kinks=(), interval=None) -> float:
    """Adaptive Gaussian-weight integral; see gauss_integrate_with_error."""
    value, _ = gauss_integrate_with_error(f, spec, kinks, interval)
    return value


def bathtub(h: float, z_cut: float | None = None) -> Profile:
    """Odd single-threshold profile: -sign(z) on |z| < h, sign(z) beyond."""
    if h <= 0.0:
        raise DomainError(f"bathtub threshold must be positive, got {h}")
    if z_cut is None or abs(z_cut - h) < 1e-15:
        return Profile(z_cut=h, breakpoints=(0.0,), values=(1.0, -1.0))
    if z_cut < h:
        raise DomainError("z_cut must be >= h for a bathtub profile")
    return Profile(z_cut=z_cut, breakpoints=(-h, 0.0, h),
                   values=(-1.0, 1.0, -1.0, 1.0))


def odd_part(profile: Profile) -> Profile:
    """(theta(z) - theta(-z)) / 2, on the symmetrized cell structure."""
    edges, mids, theta = cells(profile, kinks=[-b for b in profile.breakpoints],
                               window=profile.z_cut)
    vals = [0.5 * (t - profile.evaluate(-m)) for m, t in zip(mids, theta)]
    if profile.tail_rule == SIGN_TAILS:
        return Profile(z_cut=profile.z_cut, breakpoints=edges[1:-1],
                       values=vals)
    left, right = profile.tail_values
    odd_right = 0.5 * (right - left)
    return Profile(z_cut=profile.z_cut, breakpoints=edges[1:-1],
                   values=vals, tail_rule=CONST_TAILS,
                   tail_values=(-odd_right, odd_right))


def bound_derivative(lam: float, eta: float) -> float:
    """d/dlambda of the Davie-Reeds bound, via the implicit eta(lambda)."""
    alpha = lam / eta
    phi_m = gaussian_cdf(-eta)
    pdf_eta = gaussian_pdf(eta)
    deta = 1.0 / (2.0 * pdf_eta * (1.0 - eta * eta))
    dalpha = (eta - lam * deta) / (eta * eta)
    den = alpha * alpha + lam * (1.0 - 4.0 * phi_m)
    dden = 2.0 * alpha * dalpha + (1.0 - 4.0 * phi_m) + 4.0 * lam * pdf_eta * deta
    return (-den - (1.0 - lam) * dden) / (den * den)


def golden_then_bisect() -> float:
    """The lambda-parametrized search for the bound's argmax: 40
    golden-section steps on [1e-4, 0.4], then 80 bisection steps on the
    sign of bound_derivative around the bracket, eta solved at each step."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1e-4, 0.4
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = davie_reeds_bound(c), davie_reeds_bound(d)
    for _ in range(40):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = davie_reeds_bound(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = davie_reeds_bound(d)

    def slope(lam):
        return bound_derivative(lam, solve_eta_star(lam))

    lo, hi = max(a - 1e-4, 1e-6), min(b + 1e-4, 0.4)
    assert slope(lo) > 0.0 > slope(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reeds_mp(mpmath, eta):
    """(lambda, alpha, den, S) at eta in the eta parametrization, in
    mpmath's working precision: alpha = 2 pdf(eta), lambda = eta alpha,
    den = alpha^2 + lambda (1 - 4 Phi(-eta)), S = alpha^2 + 1 - 4 Phi(-eta)."""
    alpha = 2 * mpmath.npdf(eta)
    lam = eta * alpha
    tail = 1 - 4 * mpmath.ncdf(-eta)
    return lam, alpha, alpha * alpha + lam * tail, alpha * alpha + tail


def reeds_bound_mp(mpmath, eta):
    """The Davie-Reeds bound (1 - lambda) / den at eta, in mpmath."""
    lam, _, den, _ = reeds_mp(mpmath, eta)
    return (1 - lam) / den


def argmax_mp(mpmath):
    """(eta*, lambda*): the root of S and lambda there, in mpmath."""
    eta = mpmath.findroot(lambda e: reeds_mp(mpmath, e)[3],
                          mpmath.mpf("0.2557"))
    return eta, reeds_mp(mpmath, eta)[0]


def repair_to_theta_five_partitions(profile: Profile, lam: float = LAMBDA_STAR):
    """grolab.profiles.repair_to_theta with its last step on two partitions:
    the inner cost on the repaired profile's cells also cut at the
    tail-fixed profile's breakpoints, and the residual from a second
    theta_moments of the repaired profile.  grolab's one-partition last step
    must equal it bit for bit."""
    eta_star = solve_eta_star(lam)
    edges, mid, theta = cells(profile, kinks=(-eta_star, eta_star))
    tail_cost = math.fsum(
        (1.0 - t * _sign(z)) * i0
        for z, t, i0 in zip(mid, theta, gaussian_moments(edges)[0])
        if abs(z) > eta_star)
    fixed = _rebuild(profile, eta_star)
    inner = theta_moments(fixed, eta_star)[1]
    delta = abs(inner)
    if delta <= 1e-15:
        return fixed, tail_cost
    s = 1.0 if inner >= 0.0 else -1.0
    t0 = _repair_threshold(fixed, s, eta_star, delta)
    half = eta_star / 2.0

    def override(mid):
        if half < abs(mid) < t0:
            return -s * math.copysign(1.0, mid)
        return None

    repaired = _rebuild(fixed, eta_star, extra_edges=(-t0, -half, half, t0),
                        override=override)
    edges, mid, theta = cells(repaired, kinks=fixed.breakpoints,
                              window=eta_star)
    inner_cost = math.fsum(
        abs(t - fixed.evaluate(z)) * i0
        for z, t, i0 in zip(mid, theta, gaussian_moments(edges)[0]))
    residual = theta_moments(repaired, eta_star)[1]
    if abs(residual) > 1e-13:
        raise InternalCheckError(
            f"repair left inner moment {residual}; expected 0")
    return repaired, tail_cost + inner_cost
