"""Stability-chain constants and the final inequality chain.

Everything here is explicit scalar arithmetic: the strip constant, small-ball
and projection bounds, the effective pairing constant on an L1 neighborhood,
the per-beta norm drop, and the closing chain that converts the drop into an
increment for the Grothendieck lower bound.

Magnitude discipline: quantities of order 1e-20 and below are computed and
reported standalone; nothing here ever subtracts a tiny drop from an O(1)
norm in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri

from .baseline import DAVIE_REEDS_C, LAMBDA_STAR, solve_eta_star
from .errors import DomainError
from .gauss import SQRT_2PI, gaussian_cdf, gaussian_pdf
from .profiles import gap_lower_large_delta

# Reference chain constants: rounded-safe values of the pairing constant, the
# third-chaos norm bound, and the small-ball constant used in the chain.
KAPPA0 = 0.0454
K0 = 0.359
L0 = 2.66
EPSILON_STAR = 1e-7
RHO_STAR = 0.7
ALPHA_MIN = 0.6
NEAR_DROP_COEFF = 0.0057
BETA_STAR = 8e-25
# Inputs of the final chain's second and third branches: the bound for
# profiles with a detuned first moment, and the defect size and alpha error
# at which the large-defect gap bound is taken.
DETUNED_BOUND = 0.9e-24
DEFECT_D = 1e-10
ALPHA_ERR = 1e-12

# Coefficient (e / sqrt(3))^3 = 3.86546..., rounded up to the 3.87 the chain uses.
P3_COEFF = 3.87
_P3_COEFF_EXACT = (math.e / math.sqrt(3.0)) ** 3


def C_z0(z0: float) -> float:
    """sup over |z| <= z0 of H3(z)^2/6 + H2(z)^2/2 + z^2 + 1.

    Grid search with local refinement; the integrand is even so only [0, z0]
    is scanned.
    """
    z0 = float(z0)
    if z0 < 0.0:
        raise DomainError(f"C_z0 requires z0 >= 0, got {z0}")

    def q(z):
        z2 = z * z
        return (z2 * z - 3.0 * z) ** 2 / 6.0 + (z2 - 1.0) ** 2 / 2.0 + z2 + 1.0

    if z0 == 0.0:
        return q(0.0)
    grid = np.linspace(0.0, z0, 100001)
    vals = q(grid)
    best = int(np.argmax(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    for _ in range(3):
        fine = np.linspace(lo, hi, 1001)
        fvals = q(fine)
        b = int(np.argmax(fvals))
        lo = fine[max(b - 1, 0)]
        hi = fine[min(b + 1, len(fine) - 1)]
    return float(np.max(q(np.linspace(lo, hi, 1001))))


def K_strip(z0: float, alpha_min: float) -> float:
    """Strip constant 8 sqrt(C_z0) / (alpha_min sqrt(2 pi))."""
    if z0 <= 0.0 or alpha_min <= 0.0:
        raise DomainError("K_strip requires positive inputs")
    return 8.0 * math.sqrt(C_z0(z0)) / (alpha_min * SQRT_2PI)


def L0_bound(alpha_min: float) -> float:
    """Small-ball constant 4 / (alpha_min sqrt(2 pi))."""
    if alpha_min <= 0.0:
        raise DomainError(f"alpha_min must be positive, got {alpha_min}")
    return 4.0 / (alpha_min * SQRT_2PI)


def l1_projection_bounds(h_norm1: float) -> tuple[float, float]:
    """(first-level, third-level) L1 projection bounds for small ||h||_1.

    P1: 0.5 ||h|| log(1/||h||);  P3: (e/sqrt(3))^3 ||h|| log(1/||h||)^{3/2}.
    """
    h = float(h_norm1)
    if not (0.0 < h <= 0.01):
        raise DomainError(f"h_norm1 must lie in (0, 1/100], got {h}")
    log_inv = math.log(1.0 / h)
    return 0.5 * h * log_inv, _P3_COEFF_EXACT * h * log_inv ** 1.5


def h3_tail_bound(s: float) -> float:
    """Tail mass bound exp(-(s/e)^{2/3}/2 - 1/2) for third-chaos functions."""
    s = float(s)
    if s < math.e:
        raise DomainError(f"h3_tail_bound requires s >= e, got {s}")
    return math.exp(-0.5 * (s / math.e) ** (2.0 / 3.0) - 0.5)


def sign_stability(epsilon: float, L0_const: float, lam: float) -> float:
    """L2 distance bound between sign patterns across an epsilon move.

    2^{3/2} [epsilon L0 (lambda + 0.5 log(2/epsilon))]^{1/4}.
    """
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 0.01):
        raise DomainError(f"epsilon must lie in (0, 1/100), got {epsilon}")
    inner = epsilon * L0_const * (lam + 0.5 * math.log(2.0 / epsilon))
    return 2.0 ** 1.5 * inner ** 0.25


def kappa_eff(epsilon: float, kappa0: float, K0_const: float,
              L0_const: float, lam: float) -> float:
    """Effective pairing constant on an epsilon-neighborhood.

    kappa0 - 3.87 eps log(2/eps)^{3/2} - sign_stability(eps) * K0.
    """
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 0.01):
        raise DomainError(f"epsilon must lie in (0, 1/100), got {epsilon}")
    leak = P3_COEFF * epsilon * math.log(2.0 / epsilon) ** 1.5
    return kappa0 - leak - sign_stability(epsilon, L0_const, lam) * K0_const


@dataclass(frozen=True)
class ChainParams:
    """Inputs of the neighborhood norm-drop bound."""

    epsilon: float = EPSILON_STAR
    beta: float = 1e-10
    rho: float = RHO_STAR
    alpha_min: float = ALPHA_MIN
    z0: float = 0.36
    kappa0: float = KAPPA0
    K0: float = K0
    L0: float = L0
    lam: float = LAMBDA_STAR

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.01):
            raise DomainError(f"epsilon must lie in (0, 1/100), got {self.epsilon}")
        if not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta}")
        if not (0.0 < self.rho < 1.0):
            raise DomainError(f"rho must lie in (0, 1), got {self.rho}")
        if not (0.0 < self.alpha_min < 1.0):
            raise DomainError(f"alpha_min must lie in (0, 1), got {self.alpha_min}")
        if self.z0 <= self.lam / self.alpha_min:
            raise DomainError(
                f"z0={self.z0} must exceed lambda/alpha_min="
                f"{self.lam / self.alpha_min:.6f}"
            )

    @classmethod
    def reference_defaults(cls, beta: float) -> "ChainParams":
        """The reference parameter choices, with z0 tracking beta^rho."""
        z0 = 1.0 / 3.0 + beta ** RHO_STAR / ALPHA_MIN
        return cls(epsilon=EPSILON_STAR, beta=beta, rho=RHO_STAR,
                   alpha_min=ALPHA_MIN, z0=z0, kappa0=KAPPA0, K0=K0, L0=L0,
                   lam=LAMBDA_STAR)


def neighborhood_drop(params: ChainParams) -> float:
    """Net norm drop (positive) for functions near the maximizer set:

    kappa_eff * beta - K_strip * beta^{1+rho} - 2 beta exp(-...).
    """
    t = params.beta ** params.rho
    needed_z0 = params.lam / params.alpha_min + t / params.alpha_min
    if params.z0 < needed_z0 - 1e-15:
        raise DomainError(
            f"z0={params.z0} inconsistent: needs >= lam/alpha_min + "
            f"beta^rho/alpha_min = {needed_z0:.9g}"
        )
    keff = kappa_eff(params.epsilon, params.kappa0, params.K0, params.L0,
                     params.lam)
    strip = K_strip(params.z0, params.alpha_min) * params.beta ** (1.0 + params.rho)
    exponent = -0.5 * math.exp(-2.0 / 3.0) \
        * params.beta ** (-(2.0 / 3.0) * (1.0 - params.rho)) - 0.5
    tail = 2.0 * params.beta * math.exp(exponent)
    return keff * params.beta - strip - tail


def flip_correction(beta: float, t: float, z0: float, alpha_min: float) -> float:
    """Bound K_strip beta t + 2 beta exp(-((t/(e beta))^{2/3})/2 - 1/2) on the
    sign-flip correction term, for a cutoff t in (0, lambda*)."""
    beta, t = float(beta), float(t)
    if beta < 0.0:
        raise DomainError(f"beta must be nonnegative, got {beta}")
    if beta == 0.0:
        return 0.0
    if not (0.0 < t < LAMBDA_STAR):
        raise DomainError(f"cutoff t must lie in (0, lambda*), got {t}")
    if t / beta <= math.e:
        raise DomainError(f"t/beta must exceed e, got {t / beta}")
    strip = K_strip(z0, alpha_min) * beta * t
    tail = 2.0 * beta * math.exp(-0.5 * (t / (math.e * beta)) ** (2.0 / 3.0) - 0.5)
    return strip + tail


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the final inequality chain at one beta."""

    kappa_eff: float
    drop_near_coeff: float
    branches: tuple[float, float, float]
    beta_star: float
    final_drop: float
    kg_increment: float
    certified: bool = False

    def to_json_dict(self) -> dict:
        return {
            "kappa_eff": self.kappa_eff,
            "drop_near_coeff": self.drop_near_coeff,
            "branches": list(self.branches),
            "beta_star": self.beta_star,
            "final_drop": self.final_drop,
            "kg_increment": self.kg_increment,
            "certified": self.certified,
        }

    def to_json(self) -> str:
        from .reporting import to_json
        return to_json(self.to_json_dict())


def kg_lower_bound(final_drop: float, lam: float, c: float) -> float:
    """Increment to the lower bound: c * final_drop / ((1 - lambda) / c)."""
    final_drop = float(final_drop)
    if final_drop <= 0.0:
        raise DomainError(f"final_drop must be positive, got {final_drop}")
    norm = (1.0 - lam) / c
    return c * final_drop / norm


def final_chain(beta: float) -> ChainReport:
    """Evaluate the three-branch case analysis at the given beta.

    Branch 1: the near-neighborhood drop -NEAR_DROP_COEFF beta.
    Branch 2: beta - DETUNED_BOUND (profiles with a detuned first moment).
    Branch 3: beta minus the large-defect gap bound at d = DEFECT_D,
              alpha error ALPHA_ERR.
    The worst (largest) branch is the certified change of the operator norm;
    its negative is the final drop.
    """
    beta = float(beta)
    if not (0.0 < beta < 1e-10):
        raise DomainError(f"beta must lie in (0, 1e-10), got {beta}")
    b1 = -NEAR_DROP_COEFF * beta
    b2 = beta - DETUNED_BOUND
    b3 = beta - gap_lower_large_delta(DEFECT_D, ALPHA_ERR, LAMBDA_STAR)
    drop = -max(b1, b2, b3)
    increment = kg_lower_bound(drop, LAMBDA_STAR, DAVIE_REEDS_C) if drop > 0.0 else 0.0
    keff = kappa_eff(EPSILON_STAR, KAPPA0, K0, L0, LAMBDA_STAR)
    return ChainReport(
        kappa_eff=keff,
        drop_near_coeff=NEAR_DROP_COEFF,
        branches=(b1, b2, b3),
        beta_star=beta,
        final_drop=drop,
        kg_increment=increment,
    )


def log_tail_envelope_margin(a: float) -> float:
    """log of 0.583 Phi(-a) log(1/Phi(-a)) minus log of pdf(a).

    Positive means the density envelope pdf(a) <= 0.583 Phi(-a) log(1/Phi(-a))
    holds at a.  Evaluated in log space so it stays finite out to a ~ 40.
    """
    a = float(a)
    if a < 2.3:
        raise DomainError(f"envelope is only claimed for a >= 2.3, got {a}")
    log_sf = float(log_ndtr(-a))            # log Phi(-a)
    log_pdf = -0.5 * a * a - math.log(SQRT_2PI)
    return math.log(0.583) + log_sf + math.log(-log_sf) - log_pdf


def strip_case_checks() -> list[tuple[str, float, float, bool]]:
    """Scalar facts behind the strip-repair contradiction sub-case.

    The n-dimensional geometry is out of scope; these are its 1-D moment
    ingredients, each checked against the constant the chain uses.  Entries
    are (name, value, bound, ok); the comparison direction is in the name.
    """
    eta_star = solve_eta_star(LAMBDA_STAR)
    d_prime = 1e-10
    checks: list[tuple[str, float, float, bool]] = []

    # Half-space first moment at mass 1.25e-10, then its log envelope.
    a = -float(ndtri(1.25 * d_prime))        # Phi(-a) = 1.25 d'
    halfspace = 2.0 * gaussian_pdf(a)
    envelope = 0.583 * 2.5 * d_prime * math.log(1.0 / (1.25 * d_prime))
    checks.append(("halfspace_moment <= envelope", halfspace, envelope,
                   halfspace <= envelope))
    checks.append(("envelope <= 3.33e-9", envelope, 3.33e-9, envelope <= 3.33e-9))

    # Half-strip moment: strip mass times the one-sided first moment of a
    # standard Gaussian coordinate.
    p = 2.0 * gaussian_cdf(eta_star) - 1.0
    half_strip = p * gaussian_pdf(0.0)
    checks.append(("half_strip_moment >= 0.0805", half_strip, 0.0805,
                   half_strip >= 0.0805))

    # One-sided strip first moment along the distinguished direction.
    strip_b = (1.0 - math.exp(-0.5 * eta_star * eta_star)) / SQRT_2PI
    checks.append(("strip_b_moment >= 0.012834", strip_b, 0.012834,
                   strip_b >= 0.012834))

    delta = 3.33e-9 / 0.0805
    omega = 3.34e-9 / 0.012834
    checks.append(("delta <= 4.2e-8", delta, 4.2e-8, delta <= 4.2e-8))
    checks.append(("omega <= 2.61e-7", omega, 2.61e-7, omega <= 2.61e-7))

    quarter_strip = p / 4.0
    checks.append(("quarter_strip_mass <= 0.051", quarter_strip, 0.051,
                   quarter_strip <= 0.051))

    total = (6.0 * 4.2e-8 + 6.0 * 2.61e-7) * 0.051 + 1e-10
    checks.append(("contradiction_total < 1e-7", total, 1e-7, total < 1e-7))
    return checks
