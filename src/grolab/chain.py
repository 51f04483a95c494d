"""Stability-chain constants and the final inequality chain.

Everything here is explicit scalar arithmetic: the strip and small-ball
constants, the effective pairing constant on an L1 neighborhood,
the per-beta norm drop, and the closing chain that converts the drop into an
increment for the Grothendieck lower bound.  The chain is evaluated at one
set of reference constants, the module constants below; only beta and
epsilon are arguments.

Magnitude discipline: quantities of order 1e-20 and below are computed and
reported standalone; nothing here ever subtracts a tiny drop from an O(1)
norm in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# Half-width of the strip on which the strip constant K_strip is taken.
STRIP_Z0 = 0.36


def C_z0(z0: float) -> float:
    """sup over |z| <= z0 of q(z) = H3(z)^2/6 + H2(z)^2/2 + z^2 + 1.

    q is even and q'(z) = z^5 - 2z^3 + 3z = z((z^2 - 1)^2 + 2) >= 0 for
    z >= 0, so q increases on [0, z0] and the sup is q(z0).
    """
    z0 = float(z0)
    if not (0.0 <= z0 < math.inf):
        raise DomainError(f"C_z0 requires finite z0 >= 0, got {z0}")
    z2 = z0 * z0
    return (z2 * z0 - 3.0 * z0) ** 2 / 6.0 + (z2 - 1.0) ** 2 / 2.0 + z2 + 1.0


def K_strip(z0: float, alpha_min: float) -> float:
    """Strip constant 8 sqrt(C_z0) / (alpha_min sqrt(2 pi))."""
    if not (0.0 < z0 < math.inf and 0.0 < alpha_min < math.inf):
        raise DomainError("K_strip requires positive finite inputs")
    return 8.0 * math.sqrt(C_z0(z0)) / (alpha_min * SQRT_2PI)


def L0_bound(alpha_min: float) -> float:
    """Small-ball constant 4 / (alpha_min sqrt(2 pi))."""
    if not (0.0 < alpha_min < math.inf):
        raise DomainError(f"alpha_min must be positive and finite, got {alpha_min}")
    return 4.0 / (alpha_min * SQRT_2PI)


def strip_z0(beta: float) -> float:
    """Strip half-width at beta: 1/3 + beta^RHO_STAR / ALPHA_MIN.

    It exceeds LAMBDA_STAR / ALPHA_MIN + beta^RHO_STAR / ALPHA_MIN, the floor
    the strip argument needs, because 1/3 > LAMBDA_STAR / ALPHA_MIN.
    """
    return 1.0 / 3.0 + beta ** RHO_STAR / ALPHA_MIN


def sign_stability(epsilon: float) -> float:
    """L2 distance bound between sign patterns across an epsilon move.

    2^{3/2} [epsilon L0 (LAMBDA_STAR + 0.5 log(2/epsilon))]^{1/4}.
    """
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 0.01):
        raise DomainError(f"epsilon must lie in (0, 1/100), got {epsilon}")
    inner = epsilon * L0 * (LAMBDA_STAR + 0.5 * math.log(2.0 / epsilon))
    return 2.0 ** 1.5 * inner ** 0.25


def kappa_eff(epsilon: float) -> float:
    """Effective pairing constant on an epsilon-neighborhood.

    KAPPA0 - 3.87 eps log(2/eps)^{3/2} - sign_stability(eps) * K0.
    """
    stability = sign_stability(epsilon)  # validates epsilon
    epsilon = float(epsilon)
    leak = P3_COEFF * epsilon * math.log(2.0 / epsilon) ** 1.5
    return KAPPA0 - leak - stability * K0


def neighborhood_drop(beta: float) -> float:
    """Net norm drop (positive) for functions near the maximizer set:

    kappa_eff * beta - K_strip * beta^{1+rho} - 2 beta exp(-...), at
    epsilon = EPSILON_STAR, rho = RHO_STAR and the strip z0 = strip_z0(beta).
    """
    beta = float(beta)
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    keff = kappa_eff(EPSILON_STAR)
    strip = K_strip(strip_z0(beta), ALPHA_MIN) * beta ** (1.0 + RHO_STAR)
    exponent = -0.5 * math.exp(-2.0 / 3.0) \
        * beta ** (-(2.0 / 3.0) * (1.0 - RHO_STAR)) - 0.5
    tail = 2.0 * beta * math.exp(exponent)
    return keff * beta - strip - tail


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the final inequality chain at one beta."""

    kappa_eff: float
    drop_near_coeff: float
    branches: tuple[float, float, float]
    beta_star: float
    final_drop: float
    kg_increment: float


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
    keff = kappa_eff(EPSILON_STAR)
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
