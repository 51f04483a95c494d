"""Interval-certified checks of the paper's point claims.

Every entry of claims.CLAIMS, and nothing else, is evaluated here on
claims.Inputs built from Interval.exact, eta_star_enclosure and
eta_argmax_enclosure: the same formula the float report evaluates, on
Interval inputs, where every elementary operation rounds outward.  A line
passes on strict separation: the enclosure sits inside the +-tol window of a
TARGETS entry, or entirely on the required side of a BOUNDS entry.  Nothing
here searches for a root: each root is enclosed by certifying its
equation's signs on either side of the float root baseline finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .baseline import (_argmax_equation, _eta_equation, solve_eta_argmax,
                       solve_eta_star)
from .claims import BOUNDS, CLAIMS, TARGETS, Claim, Inputs
from .errors import InternalCheckError
from .intervals import Interval
from .reporting import spell


@dataclass(frozen=True)
class CertifiedCheck:
    """One interval-certified verdict.

    actual is the end of [lo, hi] that proves the claim: lo for a lower
    bound, hi for an upper bound, and for a window the end nearer its edge.
    """

    name: str
    lo: float
    hi: float
    requirement: str
    passed: bool
    actual: float


def _within(name: str, iv: Interval, claim: str) -> CertifiedCheck:
    """iv inside the +-tolerance window of the claims.TARGETS entry."""
    target, tol = TARGETS[claim]
    nearer_lo = iv.lo - (target - tol) < (target + tol) - iv.hi
    return CertifiedCheck(name, iv.lo, iv.hi,
                          f"within {spell(target)} +- {spell(tol)}",
                          iv.within(target, tol),
                          iv.lo if nearer_lo else iv.hi)


def _beyond(name: str, iv: Interval, relation: str,
            bound: float) -> CertifiedCheck:
    """iv strictly on the side of bound that relation (">", ">=", "<", "<=")
    names."""
    if relation not in (">", ">=", "<", "<="):
        raise ValueError(f"unknown relation {relation!r}")
    above = relation.startswith(">")
    passed = iv.strictly_above(bound) if above else iv.strictly_below(bound)
    return CertifiedCheck(name, iv.lo, iv.hi, f"{relation} {spell(bound)}",
                          passed, iv.lo if above else iv.hi)


# Doublings of each end's step before _enclose_root gives up.  From any
# root in (0, 1) 54 take the left end to 0, where the sign is certain; the
# right end runs out of them only for the threshold equation at a lambda
# within rounding of baseline._LAMBDA_FEASIBLE_MAX, where no sign at or
# below eta = 1 is certain.
_MAX_DOUBLINGS = 64


def _enclose_root(equation, root: float, what: str) -> Interval:
    """Certified enclosure of the root in [0, 1] of an increasing equation.

    Endpoints 0 <= lo < hi <= 1 with equation(lo) < 0 < equation(hi), both
    signs certified on intervals, enclose its unique root there.  Each end
    moves outward from the float root by k ulps, k doubling per step, until
    its sign is certified; the error names what.
    """
    def outward(direction: float, certified) -> float:
        step = direction * math.ulp(root)
        x = root
        for _ in range(_MAX_DOUBLINGS):
            x = min(max(x + step, 0.0), 1.0)
            if certified(equation(Interval.exact(x))):
                return x
            step *= 2.0
        raise InternalCheckError(
            f"sign of {what} not certified "
            f"{'above' if direction > 0 else 'below'} the float root {root!r}")

    return Interval(outward(-1.0, lambda g: g.strictly_below(0.0)),
                    outward(1.0, lambda g: g.strictly_above(0.0)))


@lru_cache(maxsize=8)
def eta_star_enclosure(lam: float) -> Interval:
    """Certified enclosure of the root eta in (0, 1) of reeds_lambda(eta) =
    lambda, from solve_eta_star(lambda).  Cached: Inputs takes the
    enclosures at LAM_LIT and LAMBDA_STAR, and Interval is immutable."""
    return _enclose_root(lambda eta: _eta_equation(eta, Interval.exact(lam)),
                         solve_eta_star(lam),
                         f"the threshold equation at lambda={lam!r}")


@lru_cache(maxsize=1)
def eta_argmax_enclosure() -> Interval:
    """Certified enclosure of the root of baseline._argmax_equation."""
    return _enclose_root(_argmax_equation, solve_eta_argmax(),
                         "the argmax equation")


def _certify(claim: Claim, x: Inputs) -> CertifiedCheck:
    iv = claim.formula(x)
    if claim.relation == "within":
        return _within(claim.label, iv, claim.name)
    return _beyond(claim.label, iv, claim.relation, BOUNDS[claim.name])


def all_certified_checks() -> list[CertifiedCheck]:
    """Every claims.CLAIMS entry, evaluated in intervals, in table order."""
    x = Inputs(Interval.exact, eta_star_enclosure, eta_argmax_enclosure)
    return [_certify(claim, x) for claim in CLAIMS]
