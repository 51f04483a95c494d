"""The Davie-Reeds lower-bound machinery for the Grothendieck constant.

Solves the transcendental equation tying lambda to the threshold eta, builds
the closed-form denominator of the operator-norm ratio, finds the optimal
lambda as a root in eta, and gives the first two derivatives of the objective
F(alpha).  F itself, the dual functional D(-alpha), is profiles.F_value: the
one formula for that value lives with the dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .gauss import SQRT_2_OVER_PI, gaussian_pdf
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


def reeds_lambda(eta: Num) -> Num:
    """lambda = 2 eta pdf(eta), the threshold equation's left side."""
    ar = arith(eta)
    return ar.SQRT_2_OVER_PI * eta * ar.exp(-0.5 * eta * eta)


def _eta_equation(eta: Num, lam: Num) -> Num:
    return reeds_lambda(eta) - lam


def _argmax_equation(eta: Num) -> Num:
    """S = alpha^2 + 1 - 4 Phi(-eta), alpha = 2 pdf(eta), lambda = eta alpha.

    With den = alpha^2 + lambda (1 - 4 Phi(-eta)) the bound B = (1 - lambda)
    / den has B' = -lambda' S / den^2 in eta, lambda' = alpha (1 - eta^2) > 0
    on (0, 1).  S' = 2 alpha (1 - lambda) > 0 and S(0) < 0 < S(1), so S has
    exactly one root in (0, 1) and B exactly one maximum there.  The
    supremum is over eta in (0, 1), solve_eta_star's branch: B(1.5) = 1.738.
    """
    ar = arith(eta)
    alpha = 2.0 * ar.pdf(eta)
    return alpha * alpha + 1.0 - 4.0 * ar.cdf(-eta)


def _bisect(equation) -> float:
    """Root in [0, 1] of an increasing equation by bisection, stopped at the
    first step that leaves (lo, hi) unchanged: so would every later one."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if equation(mid) < 0.0:
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    return 0.5 * (lo + hi)


# Repeat callers ask for a handful of lambdas (verify-all 2, a bulk op 1, a
# sweep each of its steps in turn); the grid LP's traffic brings a new lambda
# every call, which a large cache would only hoard.
@lru_cache(maxsize=16)
def solve_eta_star(lam: float) -> float:
    """Unique root eta in (0, 1) of sqrt(2/pi) eta exp(-eta^2/2) = lambda.

    The map is strictly increasing on (0, 1), so bisection is safe; two
    Newton steps polish its root to full double precision.
    """
    lam = float(lam)
    if not (0.0 < lam < _LAMBDA_FEASIBLE_MAX):
        raise DomainError(
            f"lambda={lam} admits no root with eta in (0, 1); "
            f"need 0 < lambda < {_LAMBDA_FEASIBLE_MAX:.12g}"
        )
    eta = _bisect(lambda mid: _eta_equation(mid, lam))
    for _ in range(2):
        # d/deta [sqrt(2/pi) eta e^{-eta^2/2}] = 2 pdf(eta) (1 - eta^2)
        deriv = 2.0 * gaussian_pdf(eta) * (1.0 - eta * eta)
        eta -= _eta_equation(eta, lam) / deriv
    return eta


@lru_cache(maxsize=1)
def solve_eta_argmax() -> float:
    """The root of _argmax_equation in (0, 1): the eta of the bound's maximum."""
    return _bisect(_argmax_equation)


def argmax_gap(eta0: Num, eta_max: Num) -> Num:
    """Upper bound on B(eta_max) - B(eta0), eta_max the root of S (see
    _argmax_equation): S(eta0)^2 lambda'/den^2 / S', the last two factors
    over hull(eta0, eta_max), since |S| <= |S(eta0)| there and
    |eta_max - eta0| <= |S(eta0)| / inf S'."""
    ar = arith(eta0, eta_max)
    eta = ar.hull(eta0, eta_max)
    alpha = 2.0 * ar.pdf(eta)
    lam = eta * alpha
    den = alpha * alpha + lam * (1.0 - 4.0 * ar.cdf(-eta))
    slope = alpha * (1.0 - eta * eta) / (den * den)
    return (ar.square(_argmax_equation(eta0)) * slope
            / (2.0 * alpha * (1.0 - lam)))


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


def reeds_denominator(lam: float) -> float:
    """(lambda/eta)^2 + lambda (1 - 4 Phi(-eta)) at eta = solve_eta_star(lambda)."""
    return _denominator(lam, solve_eta_star(lam))


def davie_reeds_bound(lam: float) -> float:
    """The lower bound (1 - lambda) / denominator for the given lambda."""
    return _bound(lam, solve_eta_star(lam))


def optimize_lambda() -> float:
    """Argmax of davie_reeds_bound: lambda at the root of _argmax_equation."""
    return reeds_lambda(solve_eta_argmax())


def F_derivatives(alpha: float, lam: float) -> tuple[float, float]:
    """Closed forms F'(alpha) = 4 pdf(lambda/alpha) - 2 alpha and F'' of
    F = profiles.F_value."""
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
