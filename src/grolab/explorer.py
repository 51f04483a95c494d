"""Empirical side: exact 1-D operator-norm evaluation, perturbation scans,
and the random profile generators the verification suites sample.

The 1-D representation treats a profile theta as the conditional bias of a
+-1-valued function given the distinguished Gaussian coordinate; the norm
integrals are then exact one-dimensional closed forms (cubic polynomials
times the Gaussian density on cells), and the perturbation scan recovers the
zonal pairing coefficient as a numerical derivative.

Like the profiles module this runs on Python floats (profiles have a few
dozen cells); numpy only draws the Philox streams of the generators.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .baseline import LAMBDA_STAR, ReedsParams, solve_eta_star
from .errors import DomainError
from .gauss import first_moments, gaussian_pdf
from .profiles import (
    Profile,
    V_value,
    _cut_cells,
    _grid_edges,
    _sign,
    check_feasible,
    h3_moment,
    repair_to_theta,
    theta_moments,
)


def r_lambda_norm_1d(profile: Profile, params: ReedsParams) -> float:
    """Exact L1 norm of the unperturbed operator on the profile's witness.

    By the conditional decomposition the norm is the even part int A pdf
    plus int theta psi pdf with the odd kernel psi = B, which is the primal
    objective V(theta).  The profile must be feasible for params.
    """
    check_feasible(profile, params)
    return V_value(profile, params)


def _h3_coefficient(profile: Profile) -> float:
    """Zonal third-chaos coefficient: E[theta H3] / 6."""
    return h3_moment(theta_moments(profile)) / 6.0


def _unit_cubic_roots(sigma: float, eps: float) -> list[float]:
    """Real roots of y^3 - sigma y + sigma eps = 0 for sigma = +-1.

    sigma = -1: one root, 2 r sinh(asinh(3 sqrt(3) eps / 2) / 3) with
    r = 1/sqrt(3), which is relatively accurate for every eps.  sigma = +1
    and |eps| < 2 / (3 sqrt 3): three roots 2 r cos(phi/3 - 2 pi k/3),
    phi = acos(-3 sqrt(3) eps / 2); the cosine form leaves the root of
    smallest size with an absolute error ~ 1e-16 (all digits lost as eps ->
    0), so that root is taken from the other two by Vieta's product,
    y0 y1 y2 = -sigma eps.  Otherwise one root, -sign(eps) 2 r cosh(acosh(
    3 sqrt(3) |eps| / 2) / 3).
    """
    r = 1.0 / math.sqrt(3.0)
    x = 1.5 * math.sqrt(3.0) * eps  # eps / (2 r^3)
    if sigma < 0.0:
        return [2.0 * r * math.sinh(math.asinh(x) / 3.0)]
    if abs(x) >= 1.0:
        return [-math.copysign(2.0 * r * math.cosh(math.acosh(abs(x)) / 3.0), x)]
    third = math.acos(-x) / 3.0
    ys = [2.0 * r * math.cos(third - 2.0 * math.pi * k / 3.0) for k in range(3)]
    small = min(range(3), key=lambda k: abs(ys[k]))
    a, b = (ys[k] for k in range(3) if k != small)
    ys[small] = -eps / (a * b)
    return ys


def _cubic_roots(alpha: float, lam: float, coeff: float) -> tuple[float, ...]:
    """All real roots of g(z) = alpha z - lam - coeff H3(z), Newton-polished.

    g and its mirror -g(-z) switch the absolute values of the perturbed
    integrand, so these roots and their negatives are its kinks.

    g(z) = -coeff z^3 + L z - lam with L = alpha + 3 coeff.  z = k y with
    k = sqrt(|L / coeff|) turns g = 0 into y^3 - sigma y + sigma eps = 0,
    sigma = sign(coeff L) and eps = lam / (L k): O(1) coefficients for every
    finite coeff, so no power of a large p = -L/coeff overflows.  Each root
    then takes 4 Newton steps on g, each kept only if it lowers |g|.
    """
    linear = alpha + 3.0 * coeff
    if coeff == 0.0:
        seeds = [lam / linear] if linear != 0.0 else []
    elif linear == 0.0:
        cube = -lam / coeff
        seeds = [math.copysign(abs(cube) ** (1.0 / 3.0), cube)]
    else:
        k = math.sqrt(abs(linear)) / math.sqrt(abs(coeff))
        sigma = math.copysign(1.0, coeff * linear)
        seeds = [k * y for y in _unit_cubic_roots(sigma, lam / (linear * k))]

    def g(z):
        return (linear - coeff * z * z) * z - lam

    polished = []
    for z in seeds:
        for _ in range(4):
            slope = linear - 3.0 * coeff * z * z
            step = g(z) / slope if slope != 0.0 else 0.0
            if abs(g(z - step)) < abs(g(z)):
                z -= step
        polished.append(z)
    return tuple(polished)


def r_lambda_beta_norm_1d(profile: Profile, params: ReedsParams,
                          beta: float) -> float:
    """Norm of the perturbed operator on the two-point witness for theta.

    Integrand: p(z) |alpha z - lam - beta c3 H3| + q(z) |alpha z + lam - beta c3 H3|
    with p = (1 + theta)/2, q = (1 - theta)/2 and c3 the zonal coefficient.
    Both cubics keep their sign between consecutive kinks, so on each cell
    the integrand is one cubic polynomial.  The cells are the profile's cell
    table cut at the +-cubic roots (_cut_cells): only the cells a root
    splits are integrated afresh.  Requires a finite beta >= 0 and a profile
    feasible for params.
    """
    beta = float(beta)
    if not (math.isfinite(beta) and beta >= 0.0):
        raise DomainError(f"beta must be finite and nonnegative, got {beta}")
    check_feasible(profile, params)
    alpha, lam = params.alpha, params.lam
    coeff = beta * _h3_coefficient(profile)
    linear = alpha + 3.0 * coeff
    roots = _cubic_roots(alpha, lam, coeff)
    cells = _cut_cells(profile, (*roots, *(-r for r in roots)))
    # core = alpha z - coeff H3(z) at the cell's midpoint fixes the sign of
    # each absolute value; H3 and the signs are written out, not called.
    terms = []
    for z, t, i0, i1, _, i3 in cells.rows:
        core = alpha * z - coeff * (z * (z * z - 3.0))
        core_int = linear * i1 - coeff * i3  # int core pdf on the cell
        below, above = core - lam, core + lam
        s_below = (below > 0.0) - (below < 0.0)
        s_above = (above > 0.0) - (above < 0.0)
        terms += (0.5 * (1.0 + t) * s_below * (core_int - lam * i0),
                  0.5 * (1.0 - t) * s_above * (core_int + lam * i0))
    return math.fsum(terms)


def beta_derivative_scan(profile: Profile, params: ReedsParams,
                         betas) -> list[tuple[float, float]]:
    """(beta, norm drop / beta) along a decreasing positive beta sequence.

    The second coordinates converge (first order in beta) to the zonal
    pairing coefficient (B^2 - A^2) / 6 of this profile.
    """
    betas = [float(b) for b in betas]
    if not betas or any(b <= 0.0 for b in betas):
        raise DomainError("betas must be positive")
    if any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise DomainError("betas must decrease toward 0")
    base = r_lambda_norm_1d(profile, params)
    rows = []
    for beta in betas:
        val = r_lambda_beta_norm_1d(profile, params, beta)
        rows.append((beta, (base - val) / beta))
    return rows


def richardson_limit(rows: list[tuple[float, float]]) -> float:
    """First-order Richardson extrapolation of the final two scan rows."""
    if len(rows) < 2:
        raise DomainError("need at least two scan rows to extrapolate")
    (b1, r1), (b2, r2) = rows[-2], rows[-1]
    return (b1 * r2 - b2 * r1) / (b1 - b2)


# -- profile generators used by scans and the verification suites -------------

def sample_theta_member(seed: int, lam: float = LAMBDA_STAR) -> Profile:
    """A member of the maximizer set: 16 random inner values, then repaired.

    No uniformity over the set is claimed; this is a witness generator.
    """
    eta_star = solve_eta_star(lam)
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = rng.uniform(-1.0, 1.0, 16).tolist()
    rough = Profile.from_grid(values, z_cut=eta_star)
    member, _ = repair_to_theta(rough, lam=lam)
    return member


def sample_feasible_profile(seed: int, params: ReedsParams) -> Profile:
    """A random 12-cell profile on |z| < 1 with the exact first moment
    params.alpha.

    Random cell values are blended linearly toward the +-sign(z) pattern,
    whose moment brackets the target; the blend weight is solved exactly.
    """
    z_cut = 1.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = rng.uniform(-1.0, 1.0, 12).tolist()
    edges = _grid_edges(len(values), z_cut)
    need = params.alpha - 2.0 * gaussian_pdf(z_cut)
    cell_m = first_moments(edges)
    have = math.fsum(map(operator.mul, values, cell_m))
    cap = math.fsum(map(abs, cell_m))
    if not (-cap <= need <= cap):
        raise DomainError(f"moment target {need} unreachable inside |z| < {z_cut}")
    direction = 1 if need >= have else -1
    target_pattern = [direction * _sign(m) for m in cell_m]
    pattern_m = math.fsum(map(operator.mul, target_pattern, cell_m))
    t = (need - have) / (pattern_m - have) if pattern_m != have else 0.0
    t = min(1.0, max(0.0, t))
    blended = [(1.0 - t) * v + t * p for v, p in zip(values, target_pattern)]
    return Profile.from_grid(blended, z_cut=z_cut)
