"""Stability-chain constants and the final inequality chain.

Everything here is explicit scalar arithmetic: the strip and small-ball
constants, the effective pairing constant on an L1 neighborhood,
the per-beta norm drop, and the closing chain that converts the drop into an
increment for the Grothendieck lower bound.  The chain is evaluated at one
set of reference constants, the module constants below; only beta and
epsilon are arguments.  The closed forms also take Interval arguments and
then return enclosures (see intervals.arith); certify calls them that way.

Magnitude discipline: quantities of order 1e-20 and below are computed and
reported standalone; nothing here ever subtracts a tiny drop from an O(1)
norm in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .baseline import DAVIE_REEDS_C, LAMBDA_STAR, solve_eta_star
from .errors import DomainError
from .gauss import (SQRT_2PI, gaussian_cdf, gaussian_isf, gaussian_pdf,
                    mills_ratio)
from .intervals import Num, arith, endpoints

# Reference chain constants: rounded-safe values of the pairing constant, the
# third-chaos norm bound, and the small-ball constant used in the chain.
KAPPA0 = 0.0454
K0 = 0.359
L0 = 2.66
EPSILON_STAR = 1e-7
RHO_STAR = Fraction(7, 10)
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


def C_z0(z0: Num) -> Num:
    """sup over |z| <= z0 of q(z) = H3(z)^2/6 + H2(z)^2/2 + z^2 + 1.

    q is even and q'(z) = z^5 - 2z^3 + 3z = z((z^2 - 1)^2 + 2) >= 0 for
    z >= 0, so q increases on [0, z0] and the sup is q(z0).
    """
    ar = arith(z0)
    z0 = ar.exact(z0)
    lo, hi = endpoints(z0)
    if not (0.0 <= lo and hi < math.inf):
        raise DomainError(f"C_z0 requires finite z0 >= 0, got {z0}")
    z2 = z0 * z0
    return ar.square(z2 * z0 - 3.0 * z0) / 6.0 + ar.square(z2 - 1.0) / 2.0 \
        + z2 + 1.0


def K_strip(z0: Num, alpha_min: Num) -> Num:
    """Strip constant 8 sqrt(C_z0) / (alpha_min sqrt(2 pi))."""
    ar = arith(z0, alpha_min)
    z0, alpha_min = ar.exact(z0), ar.exact(alpha_min)
    (z_lo, z_hi), (a_lo, a_hi) = endpoints(z0), endpoints(alpha_min)
    if not (0.0 < z_lo and z_hi < math.inf and 0.0 < a_lo and a_hi < math.inf):
        raise DomainError("K_strip requires positive finite inputs")
    return 8.0 * ar.sqrt(C_z0(z0)) / (alpha_min * ar.SQRT_2PI)


def L0_bound(alpha_min: Num) -> Num:
    """Small-ball constant 4 / (alpha_min sqrt(2 pi))."""
    ar = arith(alpha_min)
    lo, hi = endpoints(alpha_min)
    if not (0.0 < lo and hi < math.inf):
        raise DomainError(f"alpha_min must be positive and finite, got {alpha_min}")
    return 4.0 / (alpha_min * ar.SQRT_2PI)


def strip_z0(beta: float) -> float:
    """Strip half-width at beta: 1/3 + beta^RHO_STAR / ALPHA_MIN.

    It exceeds LAMBDA_STAR / ALPHA_MIN + beta^RHO_STAR / ALPHA_MIN, the floor
    the strip argument needs, because 1/3 > LAMBDA_STAR / ALPHA_MIN.
    """
    return 1.0 / 3.0 + beta ** float(RHO_STAR) / ALPHA_MIN


def sign_stability(epsilon: Num) -> Num:
    """L2 distance bound between sign patterns across an epsilon move.

    2^{3/2} [epsilon L0 (LAMBDA_STAR + 0.5 log(2/epsilon))]^{1/4}.
    """
    ar = arith(epsilon)
    epsilon = ar.exact(epsilon)
    lo, hi = endpoints(epsilon)
    if not (0.0 < lo and hi < 0.01):
        raise DomainError(f"epsilon must lie in (0, 1/100), got {epsilon}")
    inner = epsilon * L0 * (LAMBDA_STAR + 0.5 * ar.log(2.0 / epsilon))
    return ar.pow(ar.exact(2.0), Fraction(3, 2)) * ar.pow(inner, Fraction(1, 4))


def kappa_eff(epsilon: Num) -> Num:
    """Effective pairing constant on an epsilon-neighborhood.

    KAPPA0 - 3.87 eps log(2/eps)^{3/2} - sign_stability(eps) * K0.
    """
    ar = arith(epsilon)
    stability = sign_stability(epsilon)  # validates epsilon
    epsilon = ar.exact(epsilon)
    leak = P3_COEFF * epsilon * ar.pow(ar.log(2.0 / epsilon), Fraction(3, 2))
    return KAPPA0 - leak - stability * K0


def neighborhood_drop(beta: Num) -> Num:
    """Net norm drop (positive) for functions near the maximizer set:

    kappa_eff * beta - K_strip * beta^{1+rho} - 2 beta exp(-...), at
    epsilon = EPSILON_STAR, rho = RHO_STAR and the strip z0 = strip_z0(beta).
    An Interval beta takes z0 at its upper end: strip_z0 grows with beta, so
    that strip serves the whole interval.
    """
    ar = arith(beta)
    beta = ar.exact(beta)
    lo, hi = endpoints(beta)
    if not (0.0 < lo and hi < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    keff = kappa_eff(ar.exact(EPSILON_STAR))
    strip = K_strip(ar.exact(strip_z0(hi)), ALPHA_MIN) \
        * ar.pow(beta, 1 + RHO_STAR)
    exponent = -0.5 * ar.exp(-(ar.exact(2.0) / 3.0)) \
        * ar.pow(beta, -Fraction(2, 3) * (1 - RHO_STAR)) - 0.5
    tail = 2.0 * beta * ar.exp(exponent)
    return keff * beta - strip - tail


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the final inequality chain at one beta."""

    branches: tuple[float, float, float]
    beta_star: float
    final_drop: float
    kg_increment: float


def kg_lower_bound(final_drop: Num, lam: Num, c: Num) -> Num:
    """Increment to the lower bound: c * final_drop / ((1 - lambda) / c)."""
    ar = arith(final_drop, lam, c)
    final_drop, lam, c = ar.exact(final_drop), ar.exact(lam), ar.exact(c)
    if endpoints(final_drop)[0] <= 0.0:
        raise DomainError(f"final_drop must be positive, got {final_drop}")
    norm = (1.0 - lam) / c
    return c * final_drop / norm


def gap_lower_large_delta(d: Num, alpha_err: Num, lam: Num) -> Num:
    """Two-branch gap bound in the large inner-defect regime.

    The decimals 6.4 and 0.98 are built as 32/5 and 98/100, so an interval
    evaluation encloses them.
    """
    ar = arith(d, alpha_err, lam)
    d, alpha_err, lam = ar.exact(d), ar.exact(alpha_err), ar.exact(lam)
    if endpoints(d)[0] < 0.0 or endpoints(alpha_err)[0] < 0.0:
        raise DomainError("d and alpha_err must be nonnegative")
    if endpoints(alpha_err)[1] >= 0.01:
        raise DomainError(f"alpha_err must be < 1/100, got {alpha_err}")
    inner = d * (1.0 - 4.0 * alpha_err) / 8.0 \
        - ar.exact(32.0) / 5.0 * alpha_err
    if endpoints(inner)[0] <= 0.0:
        raise DomainError(f"inner expression {inner} must be positive")
    branch1 = d * (lam / 8.0 - alpha_err)
    branch2 = (ar.exact(98.0) / 100.0 / 8.0) * inner * inner
    return ar.min(branch1, branch2)


def final_branches(beta: Num) -> tuple[tuple[Num, Num, Num], Num]:
    """The final chain's three branches at beta, and the final drop.

    Branch 1: the near-neighborhood drop -NEAR_DROP_COEFF beta.
    Branch 2: beta - DETUNED_BOUND (profiles with a detuned first moment).
    Branch 3: beta minus the large-defect gap bound at d = DEFECT_D,
              alpha error ALPHA_ERR.
    The worst (largest) branch is the certified change of the operator norm;
    its negative is the final drop.
    """
    ar = arith(beta)
    lo, hi = endpoints(beta)
    if not (0.0 < lo and hi < 1e-10):
        raise DomainError(f"beta must lie in (0, 1e-10), got {beta}")
    gap = gap_lower_large_delta(ar.exact(DEFECT_D), ar.exact(ALPHA_ERR),
                                ar.exact(LAMBDA_STAR))
    branches = (-NEAR_DROP_COEFF * beta, beta - DETUNED_BOUND, beta - gap)
    return branches, -ar.max(*branches)


def final_chain(beta: float) -> ChainReport:
    """final_branches at a float beta, with the increment to the lower bound."""
    beta = float(beta)
    branches, drop = final_branches(beta)
    increment = kg_lower_bound(drop, LAMBDA_STAR, DAVIE_REEDS_C) if drop > 0.0 else 0.0
    return ChainReport(
        branches=branches,
        beta_star=beta,
        final_drop=drop,
        kg_increment=increment,
    )


def log_tail_envelope_margin(a: float) -> float:
    """log of 0.583 Phi(-a) log(1/Phi(-a)) minus log of pdf(a).

    Positive means the density envelope pdf(a) <= 0.583 Phi(-a) log(1/Phi(-a))
    holds at a.  With the Mills ratio R = Phi(-a)/pdf(a) it is
    log 0.583 + log R + log(-log Phi(-a)), which needs no difference of the
    two large logs and stays finite out to a ~ 40.
    """
    a = float(a)
    if a < 2.3:
        raise DomainError(f"envelope is only claimed for a >= 2.3, got {a}")
    log_r = math.log(mills_ratio(a))
    log_sf = log_r - 0.5 * a * a - math.log(SQRT_2PI)   # log Phi(-a)
    return math.log(0.583) + log_r + math.log(-log_sf)


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
    a = gaussian_isf(1.25 * d_prime)         # Phi(-a) = 1.25 d'
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
