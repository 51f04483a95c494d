"""Closed forms, the quadrature wrapper, profile builders and the lambda
search that only the tests use, as references for the kernels in
grolab.gauss and grolab.profiles and for grolab.baseline.optimize_lambda.
"""

import math

import numpy as np

from grolab.baseline import davie_reeds_bound, solve_eta_star
from grolab.errors import DomainError
from grolab.gauss import (DEFAULT_SPEC, INV_SQRT_2PI, cell_masses,
                          gauss_integrate_with_error, gaussian_cdf,
                          gaussian_pdf)
from grolab.profiles import CONST_TAILS, SIGN_TAILS, Profile, _cells


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
    edges, mids, theta = _cells(profile, kinks=[-b for b in profile.breakpoints],
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
