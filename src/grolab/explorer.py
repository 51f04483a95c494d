"""Empirical side: exact 1-D operator-norm evaluation, perturbation scans,
and the random profile generators the verification suites sample.

The 1-D representation treats a profile theta as the conditional bias of a
+-1-valued function given the distinguished Gaussian coordinate; the norm
integrals are then exact one-dimensional closed forms (cubic polynomials
times the Gaussian density on cells), and the perturbation scan recovers the
zonal pairing coefficient as a numerical derivative.
"""

from __future__ import annotations

import numpy as np

from .baseline import LAMBDA_STAR, ReedsParams, solve_eta_star
from .errors import DomainError
from .gauss import gaussian_moments, gaussian_pdf, hermite_eval
from .profiles import (
    Profile,
    V_value,
    _cells,
    check_feasible,
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
    m = theta_moments(profile)
    return float(m[3] - 3.0 * m[1]) / 6.0


def _cubic_roots(alpha: float, lam: float, coeff: float) -> np.ndarray:
    """All real roots of g(z) = alpha z - lam - coeff H3(z), Newton-polished.

    g and its mirror -g(-z) switch the absolute values of the perturbed
    integrand, so these roots and their negatives are its kinks.
    """
    # g(z) = -coeff z^3 + (alpha + 3 coeff) z - lam; np.roots drops a zero
    # leading coefficient, leaving the single root lam / alpha.
    linear = alpha + 3.0 * coeff
    roots = np.roots([-coeff, 0.0, linear, -lam])
    real = roots.real[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots))]

    def g(z):
        return (linear - coeff * z * z) * z - lam

    # At most three roots: Python floats beat numpy calls on tiny arrays.
    polished = []
    for z in real.tolist():
        for _ in range(4):
            slope = linear - 3.0 * coeff * z * z
            step = g(z) / slope if slope != 0.0 else 0.0
            if abs(g(z - step)) < abs(g(z)):
                z -= step
        polished.append(z)
    return np.array(polished, dtype=float)


def r_lambda_beta_norm_1d(profile: Profile, params: ReedsParams,
                          beta: float) -> float:
    """Norm of the perturbed operator on the two-point witness for theta.

    Integrand: p(z) |alpha z - lam - beta c3 H3| + q(z) |alpha z + lam - beta c3 H3|
    with p = (1 + theta)/2, q = (1 - theta)/2 and c3 the zonal coefficient.
    Both cubics keep their sign between consecutive kinks, so on each cell
    the integrand is one cubic polynomial.  Requires beta >= 0 and a profile
    feasible for params.
    """
    if not beta >= 0.0:
        raise DomainError(f"beta must be nonnegative, got {beta}")
    check_feasible(profile, params)
    lam = params.lam
    coeff = beta * _h3_coefficient(profile)
    roots = _cubic_roots(params.alpha, lam, coeff)
    edges, mid, theta = _cells(profile, kinks=np.concatenate((roots, -roots)))
    core = params.alpha * mid - coeff * hermite_eval(3, mid)
    p_sign = 0.5 * (1.0 + theta) * np.sign(core - lam)
    q_sign = 0.5 * (1.0 - theta) * np.sign(core + lam)
    moments = gaussian_moments(edges)
    # int (core -+ lam) pdf per cell
    core_int = (params.alpha + 3.0 * coeff) * moments[1] - coeff * moments[3]
    return float(p_sign @ (core_int - lam * moments[0])
                 + q_sign @ (core_int + lam * moments[0]))


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
    values = rng.uniform(-1.0, 1.0, 16)
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
    values = rng.uniform(-1.0, 1.0, 12)
    base = Profile.from_grid(values, z_cut=z_cut)
    need = params.alpha - 2.0 * gaussian_pdf(z_cut)
    edges = base.edges
    cell_m = np.array([gaussian_pdf(a) - gaussian_pdf(b)
                       for a, b in zip(edges[:-1], edges[1:])])
    have = float(np.dot(values, cell_m))
    cap = float(np.sum(np.abs(cell_m)))
    if not (-cap <= need <= cap):
        raise DomainError(f"moment target {need} unreachable inside |z| < {z_cut}")
    target_pattern = np.sign(cell_m) if need >= have else -np.sign(cell_m)
    pattern_m = float(np.dot(target_pattern, cell_m))
    t = (need - have) / (pattern_m - have) if pattern_m != have else 0.0
    t = min(1.0, max(0.0, t))
    blended = (1.0 - t) * values + t * target_pattern
    return Profile.from_grid(blended, z_cut=z_cut)
