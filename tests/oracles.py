"""Closed forms, the quadrature wrapper and profile builders that only the
tests use, as references for the kernels in grolab.gauss and grolab.profiles.
"""

import math

import numpy as np

from grolab.errors import DomainError
from grolab.gauss import (DEFAULT_SPEC, gauss_integrate_with_error,
                          gaussian_cdf, gaussian_pdf)
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
    vals = 0.5 * (theta - profile.evaluate(-mids))
    if profile.tail_rule == SIGN_TAILS:
        return Profile(z_cut=profile.z_cut, breakpoints=edges[1:-1],
                       values=vals)
    left, right = profile.tail_values
    odd_right = 0.5 * (right - left)
    return Profile(z_cut=profile.z_cut, breakpoints=edges[1:-1],
                   values=vals, tail_rule=CONST_TAILS,
                   tail_values=(-odd_right, odd_right))
