"""Interval-certified checks of the paper's point claims.

Every entry of claims.CLAIMS is evaluated here on claims.Inputs built from
Interval.exact and eta_star_enclosure: the same formula the float report
evaluates, on Interval inputs, where every elementary operation rounds
outward.  A line passes on strict separation: the enclosure sits inside the
+-tol window of a TARGETS entry, or entirely on the required side of a
BOUNDS entry.  The two argmax_bracket lines are the only ones outside the
table: the bound's derivative changes sign across the lambda_star window.
Nothing here searches for a root: eta is enclosed by certifying the
equation's signs on either side of the float root
baseline.solve_eta_star finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .baseline import (LAMBDA_STAR, _bound_derivative, _eta_equation,
                       solve_eta_star)
from .claims import BOUNDS, TARGETS, Claim, Inputs, suite_claims
from .errors import InternalCheckError
from .intervals import Interval


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


def _spell(x: float) -> str:
    """Shortest round-trip digits, spelled 7 and 1e-9 rather than 7.0 and 1e-09."""
    s = repr(float(x)).replace("e-0", "e-")
    return s[:-2] if s.endswith(".0") else s


def _within(name: str, iv: Interval, claim: str) -> CertifiedCheck:
    """iv inside the +-tolerance window of the claims.TARGETS entry."""
    target, tol = TARGETS[claim]
    nearer_lo = iv.lo - (target - tol) < (target + tol) - iv.hi
    return CertifiedCheck(name, iv.lo, iv.hi,
                          f"within {_spell(target)} +- {_spell(tol)}",
                          iv.within(target, tol),
                          iv.lo if nearer_lo else iv.hi)


def _beyond(name: str, iv: Interval, relation: str, bound: float,
            requirement: str | None = None) -> CertifiedCheck:
    """iv strictly on the side of bound that relation (">", ">=", "<", "<=")
    names; requirement replaces the default text "relation bound"."""
    if relation not in (">", ">=", "<", "<="):
        raise ValueError(f"unknown relation {relation!r}")
    above = relation.startswith(">")
    passed = iv.strictly_above(bound) if above else iv.strictly_below(bound)
    return CertifiedCheck(name, iv.lo, iv.hi,
                          requirement or f"{relation} {_spell(bound)}",
                          passed, iv.lo if above else iv.hi)


# Doublings of each end's step before eta_star_enclosure gives up.  From
# any root in (0, 1) 54 take the left end to 0, where the sign is certain;
# the right end runs out of them only when lambda is within rounding of
# baseline._LAMBDA_FEASIBLE_MAX, where no sign at or below eta = 1 is certain.
_MAX_DOUBLINGS = 64


@lru_cache(maxsize=8)
def eta_star_enclosure(lam: float) -> Interval:
    """Certified enclosure of the root eta in (0, 1) of g(eta) = lambda.

    g(eta) = sqrt(2/pi) eta exp(-eta^2/2) is strictly increasing on [0, 1],
    so endpoints 0 <= lo < hi <= 1 with g(lo) - lambda < 0 < g(hi) - lambda,
    both signs certified on intervals, enclose its unique root there.  The
    float root solve_eta_star(lambda) is only the starting point: each end
    moves outward from it by k ulps, k doubling per step, until its sign is
    certified.  Cached: each suite's Inputs takes the enclosures at LAM_LIT
    and LAMBDA_STAR, and Interval is immutable.
    """
    root = solve_eta_star(lam)
    lam_iv = Interval.exact(lam)

    def outward(direction: float, certified) -> float:
        step = direction * math.ulp(root)
        x = root
        for _ in range(_MAX_DOUBLINGS):
            x = min(max(x + step, 0.0), 1.0)
            if certified(_eta_equation(Interval.exact(x), lam_iv)):
                return x
            step *= 2.0
        raise InternalCheckError(
            f"eta sign not certified {'above' if direction > 0 else 'below'} "
            f"the float root {root!r} at lambda={lam!r}")

    return Interval(outward(-1.0, lambda g: g.strictly_below(0.0)),
                    outward(1.0, lambda g: g.strictly_above(0.0)))


def _certify(claim: Claim, x: Inputs) -> CertifiedCheck:
    iv = claim.formula(x)
    if claim.relation == "within":
        return _within(claim.label, iv, claim.name)
    return _beyond(claim.label, iv, claim.relation, BOUNDS[claim.name])


def _claim_checks(suite: str) -> list[CertifiedCheck]:
    """The suite's claims.CLAIMS entries, evaluated in intervals."""
    x = Inputs(Interval.exact, eta_star_enclosure)
    return [_certify(claim, x) for claim in suite_claims(suite)]


def _reeds_point(lam: float) -> tuple[Interval, Interval]:
    """(lambda, eta) enclosures at the given lambda."""
    return Interval.exact(lam), eta_star_enclosure(lam)


def certified_baseline_checks() -> list[CertifiedCheck]:
    # The argmax lies within the lambda_star claim's window: the bound's
    # derivative changes sign across it.
    _, step = TARGETS["lambda_star"]
    d_left = _bound_derivative(*_reeds_point(LAMBDA_STAR - step))
    d_right = _bound_derivative(*_reeds_point(LAMBDA_STAR + step))
    return _claim_checks("baseline") + [
        _beyond("argmax_bracket_left", d_left, ">", 0.0,
                f"derivative > 0 at lambda* - {_spell(step)}"),
        _beyond("argmax_bracket_right", d_right, "<", 0.0,
                f"derivative < 0 at lambda* + {_spell(step)}"),
    ]


def certified_pairing_checks() -> list[CertifiedCheck]:
    return _claim_checks("pairing")


def certified_chain_checks() -> list[CertifiedCheck]:
    return _claim_checks("chain")


def all_certified_checks() -> list[CertifiedCheck]:
    return (certified_baseline_checks() + certified_pairing_checks()
            + certified_chain_checks())
