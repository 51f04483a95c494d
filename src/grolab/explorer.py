"""Empirical side: exact 1-D operator-norm evaluation, perturbation scans,
alternating sign ascent, and Monte Carlo cross-checks.

The 1-D representation treats a profile theta as the conditional bias of a
+-1-valued function given the distinguished Gaussian coordinate; the norm
integrals are then exact one-dimensional closed forms (cubic polynomials
times the Gaussian density on cells), and the perturbation scan recovers the
zonal pairing coefficient as a numerical derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseline import LAMBDA_STAR, ReedsParams, solve_eta_star
from .errors import DomainError, FeasibilityError
from .gauss import gaussian_moments, gaussian_pdf, hermite_eval
from .profiles import (
    FEASIBILITY_TOL,
    Profile,
    V_value,
    _cells,
    moment,
    repair_to_theta,
    theta_moments,
)


@dataclass(frozen=True)
class ConditionalNormInput:
    """A profile, the params it should be feasible for, and a perturbation."""

    profile: Profile
    params: ReedsParams
    beta: float = 0.0

    def __post_init__(self):
        if self.beta < 0.0:
            raise DomainError(f"beta must be nonnegative, got {self.beta}")


@dataclass(frozen=True)
class McConfig:
    """Deterministic Monte Carlo controls (counter-based generator)."""

    dimension: int
    samples: int
    seed: int

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dimension}")
        if self.samples < 10_000:
            raise DomainError(f"samples must be >= 1e4, got {self.samples}")


def _check_feasible(profile: Profile, params: ReedsParams) -> None:
    m = moment(profile)
    if abs(m - params.alpha) > FEASIBILITY_TOL:
        raise FeasibilityError(
            f"profile moment {m:.15g} != alpha {params.alpha:.15g}",
            residual=m - params.alpha,
        )


def r_lambda_norm_1d(inp: ConditionalNormInput) -> float:
    """Exact L1 norm of the unperturbed operator on the profile's witness.

    By the conditional decomposition the norm is the even part int A pdf
    plus int theta psi pdf with the odd kernel psi = B, which is the primal
    objective V(theta).
    """
    if inp.beta != 0.0:
        raise DomainError("r_lambda_norm_1d requires beta = 0")
    _check_feasible(inp.profile, inp.params)
    return V_value(inp.profile, inp.params)


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
    roots = np.roots([-coeff, 0.0, alpha + 3.0 * coeff, -lam])
    real = roots.real[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots))]

    def g(z):
        return (alpha + 3.0 * coeff - coeff * z * z) * z - lam

    for _ in range(4):
        slope = alpha + 3.0 * coeff - 3.0 * coeff * real * real
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(slope != 0.0, g(real) / slope, 0.0)
        better = np.abs(g(real - step)) < np.abs(g(real))
        real = np.where(better, real - step, real)
    return real


def r_lambda_beta_norm_1d(inp: ConditionalNormInput) -> float:
    """Norm of the perturbed operator on the two-point witness for theta.

    Integrand: p(z) |alpha z - lam - beta c3 H3| + q(z) |alpha z + lam - beta c3 H3|
    with p = (1 + theta)/2, q = (1 - theta)/2 and c3 the zonal coefficient.
    Both cubics keep their sign between consecutive kinks, so on each cell
    the integrand is one cubic polynomial.
    """
    _check_feasible(inp.profile, inp.params)
    params, profile, beta = inp.params, inp.profile, inp.beta
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
    base = r_lambda_norm_1d(ConditionalNormInput(profile, params, 0.0))
    rows = []
    for beta in betas:
        val = r_lambda_beta_norm_1d(ConditionalNormInput(profile, params, beta))
        rows.append((beta, (base - val) / beta))
    return rows


def richardson_limit(rows: list[tuple[float, float]]) -> float:
    """First-order Richardson extrapolation of the final two scan rows."""
    if len(rows) < 2:
        raise DomainError("need at least two scan rows to extrapolate")
    (b1, r1), (b2, r2) = rows[-2], rows[-1]
    return (b1 * r2 - b2 * r1) / (b1 - b2)


def _reflect(profile: Profile) -> Profile:
    bp = tuple(sorted(-b for b in profile.breakpoints))
    vals = tuple(reversed(profile.values))
    if profile.tail_rule == "sign":
        # reflecting sign(z) gives -sign(z); fold it into constant tails
        return Profile(z_cut=profile.z_cut, breakpoints=bp, values=vals,
                       tail_rule="const", tail_values=(1.0, -1.0))
    left, right = profile.tail_values
    return Profile(z_cut=profile.z_cut, breakpoints=bp, values=vals,
                   tail_rule="const", tail_values=(right, left))


def _ascent_step(profile: Profile, lam: float, alpha: float) -> Profile:
    """One alternating-maximization update of the conditional profile.

    The new witness is the sign of the operator output: sign(z) outside the
    flat window |z| < lam/alpha and the negated bias inside it.
    """
    eta = lam / alpha
    edges, _, theta = _cells(profile, window=eta)
    return Profile(z_cut=eta, breakpoints=edges[1:-1], values=-theta)


def sign_ascent(initial: Profile, params: ReedsParams,
                iterations: int) -> tuple[Profile, list[float]]:
    """Alternating maximization of the norm starting from a profile.

    Each step replaces the profile by the conditional bias of the sign of
    the operator output and re-estimates its first moment.  The recorded
    norm sequence is nondecreasing.
    """
    if iterations < 1:
        raise DomainError(f"iterations must be >= 1, got {iterations}")
    lam = params.lam
    cur = initial
    m = moment(cur)
    if m < 0.0:
        cur, m = _reflect(cur), -m
    if m <= 1e-12:
        raise DomainError("initial profile has vanishing first moment")
    values = [r_lambda_norm_1d(
        ConditionalNormInput(cur, ReedsParams(lam=lam, alpha=m), 0.0))]
    for _ in range(iterations):
        cur = _ascent_step(cur, lam, m)
        m = moment(cur)
        if m < 0.0:
            cur, m = _reflect(cur), -m
        values.append(r_lambda_norm_1d(
            ConditionalNormInput(cur, ReedsParams(lam=lam, alpha=m), 0.0)))
    return cur, values


def mc_norm_estimate(theta_spec: Profile, config: McConfig,
                     params: ReedsParams, beta: float) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the perturbed norm.

    Samples the distinguished coordinate, draws the +-1 witness with bias
    theta(Z), and averages |alpha Z - lam f - beta c3 H3(Z)|.  The Philox
    counter-based generator keyed by the seed makes runs bit-identical; a
    parallel split would advance disjoint counter ranges.
    """
    if config.dimension not in (1, 2):
        raise DomainError(f"dimension must be 1 or 2, got {config.dimension}")
    _check_feasible(theta_spec, params)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    x = rng.standard_normal((config.samples, config.dimension))
    z = x[:, 0]
    u = rng.random(config.samples)
    bias = theta_spec.evaluate(z)
    f = np.where(u < 0.5 * (1.0 + bias), 1.0, -1.0)
    c3 = _h3_coefficient(theta_spec)
    vals = np.abs(params.alpha * z - params.lam * f
                  - beta * c3 * hermite_eval(3, z))
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(config.samples))
    return est, stderr


# -- profile generators used by scans and the verification suites -------------

def sample_theta_member(seed: int, cells: int = 16,
                        lam: float = LAMBDA_STAR) -> Profile:
    """A member of the maximizer set: random inner values, then repaired.

    No uniformity over the set is claimed; this is a witness generator.
    """
    eta_star = solve_eta_star(lam)
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = rng.uniform(-1.0, 1.0, cells)
    rough = Profile.from_grid(values, z_cut=eta_star)
    member, _ = repair_to_theta(rough, lam=lam)
    return member


def sample_feasible_profile(seed: int, params: ReedsParams, z_cut: float = 1.0,
                            cells: int = 12) -> Profile:
    """A random profile with the exact first moment params.alpha.

    Random cell values are blended linearly toward the +-sign(z) pattern,
    whose moment brackets the target; the blend weight is solved exactly.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = rng.uniform(-1.0, 1.0, cells)
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
