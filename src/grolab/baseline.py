"""The Davie-Reeds lower-bound machinery for the Grothendieck constant.

Solves the transcendental equation tying lambda to the threshold eta, builds
the closed-form denominator of the operator-norm ratio, optimizes lambda, and
exposes the one-parameter objective F(alpha) with its derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .gauss import SQRT_2_OVER_PI, gaussian_cdf, gaussian_pdf
from .intervals import Num, arith

# Optimal lambda and the resulting lower bound, to double precision.
LAMBDA_STAR = 0.19747909099498196
DAVIE_REEDS_C = 1.676956674215576

# sqrt(2/pi) * eta * exp(-eta^2/2) attains its maximum on (0, 1) at eta = 1.
_LAMBDA_FEASIBLE_MAX = SQRT_2_OVER_PI * math.exp(-0.5)


@dataclass(frozen=True)
class ReedsParams:
    """Parameter pair (lambda, alpha); eta = lambda / alpha is derived."""

    lam: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise DomainError(f"lambda must lie in (0, 1), got {self.lam}")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def eta(self) -> float:
        return self.lam / self.alpha

    @classmethod
    def at_reeds_point(cls, lam: float = LAMBDA_STAR) -> "ReedsParams":
        """Params with alpha tied to lambda through the stationarity equation."""
        return cls(lam=lam, alpha=lam / solve_eta_star(lam))


def _eta_equation(eta: Num, lam: Num) -> Num:
    ar = arith(eta, lam)
    return ar.SQRT_2_OVER_PI * eta * ar.exp(-0.5 * eta * eta) - lam


@lru_cache(maxsize=4096)
def solve_eta_star(lam: float) -> float:
    """Unique root eta in (0, 1) of sqrt(2/pi) eta exp(-eta^2/2) = lambda.

    The map is strictly increasing on (0, 1), so bisection is safe; it stops
    at the first step that leaves (lo, hi) unchanged, since the step depends
    only on (lo, hi) and every later one would leave it unchanged too.  Two
    Newton steps polish the root to full double precision.
    """
    lam = float(lam)
    if not (0.0 < lam < _LAMBDA_FEASIBLE_MAX):
        raise DomainError(
            f"lambda={lam} admits no root with eta in (0, 1); "
            f"need 0 < lambda < {_LAMBDA_FEASIBLE_MAX:.12g}"
        )
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if _eta_equation(mid, lam) < 0.0:
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    eta = 0.5 * (lo + hi)
    for _ in range(2):
        # d/deta [sqrt(2/pi) eta e^{-eta^2/2}] = 2 pdf(eta) (1 - eta^2)
        deriv = 2.0 * gaussian_pdf(eta) * (1.0 - eta * eta)
        eta -= _eta_equation(eta, lam) / deriv
    return eta


# The cores below take the root eta of the threshold equation with lambda,
# so they evaluate on floats (eta = solve_eta_star(lambda)) and on intervals
# (eta enclosed by certify.eta_star_enclosure) alike.

def _denominator(lam: Num, eta: Num) -> Num:
    """(lambda/eta)^2 + lambda (1 - 4 Phi(-eta))."""
    ar = arith(lam, eta)
    alpha = lam / eta
    return alpha * alpha + lam * (1.0 - 4.0 * ar.cdf(-eta))


def _bound(lam: Num, eta: Num) -> Num:
    """(1 - lambda) / denominator."""
    return (1.0 - lam) / _denominator(lam, eta)


def _bound_derivative(lam: Num, eta: Num) -> Num:
    """Exact d/dlambda of the bound, via the implicit eta(lambda)."""
    ar = arith(lam, eta)
    alpha = lam / eta
    phi_m = ar.cdf(-eta)
    pdf_eta = ar.pdf(eta)
    deta = 1.0 / (2.0 * pdf_eta * (1.0 - eta * eta))
    dalpha = (eta - lam * deta) / (eta * eta)
    den = alpha * alpha + lam * (1.0 - 4.0 * phi_m)
    dden = 2.0 * alpha * dalpha + (1.0 - 4.0 * phi_m) + 4.0 * lam * pdf_eta * deta
    return (-den - (1.0 - lam) * dden) / (den * den)


def reeds_denominator(lam: float) -> float:
    """(lambda/eta)^2 + lambda (1 - 4 Phi(-eta)) at eta = solve_eta_star(lambda)."""
    return _denominator(lam, solve_eta_star(lam))


def davie_reeds_bound(lam: float) -> float:
    """The lower bound (1 - lambda) / denominator for the given lambda."""
    return _bound(lam, solve_eta_star(lam))


@lru_cache(maxsize=1)
def optimize_lambda() -> float:
    """Argmax of davie_reeds_bound on (1e-4, 0.4).

    Bisects the sign of the exact derivative _bound_derivative (positive at
    1e-4, negative at 0.4, else DomainError) until the bracket's ends are
    adjacent doubles, and returns their rounded midpoint.
    """
    def slope(lam):
        return _bound_derivative(lam, solve_eta_star(lam))

    lo, hi = 1e-4, 0.4
    if not (slope(lo) > 0.0 > slope(hi)):
        raise DomainError("derivative bracket lost; bound not unimodal here")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def F_value(alpha: float, lam: float) -> float:
    """The one-dimensional objective driving the denominator optimization.

    F(alpha) = 4 lambda * Phi([0, lambda/alpha]) - alpha^2
               + 4 alpha * pdf(lambda/alpha) - lambda.
    """
    alpha, lam = float(alpha), float(lam)
    if alpha <= 0.0 or lam <= 0.0:
        raise DomainError(f"F_value requires positive inputs, got ({alpha}, {lam})")
    eta = lam / alpha
    return (
        4.0 * lam * (gaussian_cdf(eta) - 0.5)
        - alpha * alpha
        + 4.0 * alpha * gaussian_pdf(eta)
        - lam
    )


def F_derivatives(alpha: float, lam: float) -> tuple[float, float]:
    """Closed forms F'(alpha) = 4 pdf(lambda/alpha) - 2 alpha and F''."""
    alpha, lam = float(alpha), float(lam)
    if alpha <= 0.0 or lam <= 0.0:
        raise DomainError(f"F_derivatives requires positive inputs, got ({alpha}, {lam})")
    eta = lam / alpha
    pdf_eta = gaussian_pdf(eta)
    fp = 4.0 * pdf_eta - 2.0 * alpha
    fpp = 4.0 * lam * lam * pdf_eta / alpha**3 - 2.0
    return fp, fpp


def solve_h(alpha: float) -> float:
    """Threshold h > 0 with sqrt(2/pi) (2 exp(-h^2/2) - 1) = alpha.

    This is the fill level of the single-threshold (bathtub) profile whose
    first moment equals alpha; inverted in closed form.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < SQRT_2_OVER_PI):
        raise DomainError(
            f"solve_h requires 0 < alpha < sqrt(2/pi) = {SQRT_2_OVER_PI:.12g}, got {alpha}"
        )
    inner = 0.5 * (alpha / SQRT_2_OVER_PI + 1.0)
    return math.sqrt(-2.0 * math.log(inner))
