"""Interval-certified checks of the headline constants.

Each check evaluates the library's own formulas (the `baseline`, `pairing`
and `chain` functions the float report uses) on Interval inputs, where every
elementary operation rounds outward, and verifies strict separation: the
enclosure sits inside the +-tol window of an equality target, or entirely on
the required side of a one-sided bound.  A formula is written once, so a
certified line proves the exact expression the float report evaluates; the
rigor comes from the outward rounding.  Nothing here searches for a root:
eta is enclosed by certifying the equation's signs on either side of the
float root baseline.solve_eta_star finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .baseline import (LAMBDA_STAR, _bound, _bound_derivative, _eta_equation,
                       solve_eta_star)
from .chain import (ALPHA_MIN, BETA_STAR, EPSILON_STAR, STRIP_Z0, K_strip,
                    final_branches, kappa_eff, kg_lower_bound,
                    neighborhood_drop)
from .claims import BOUNDS, LAM_LIT, PAIRING, TARGETS
from .errors import InternalCheckError
from .intervals import Interval
from .pairing import PairingConstants


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
    certified.  Cached: the checks take the enclosure at LAM_LIT three
    times, and Interval is immutable.
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


def _reeds_point(lam: float) -> tuple[Interval, Interval]:
    """(lambda, eta) enclosures at the given lambda."""
    return Interval.exact(lam), eta_star_enclosure(lam)


def certified_baseline_checks() -> list[CertifiedCheck]:
    lam, eta = _reeds_point(LAM_LIT)
    # The argmax lies within the lambda_star claim's window: the bound's
    # derivative changes sign across it.
    _, step = TARGETS["lambda_star"]
    d_left = _bound_derivative(*_reeds_point(LAMBDA_STAR - step))
    d_right = _bound_derivative(*_reeds_point(LAMBDA_STAR + step))
    return [
        _within("baseline_bound", _bound(lam, eta), "davie_reeds_bound"),
        _within("eta_star", eta, "eta_star"),
        _within("alpha_star", lam / eta, "alpha_star"),
        _beyond("argmax_bracket_left", d_left, ">", 0.0,
                f"derivative > 0 at lambda* - {_spell(step)}"),
        _beyond("argmax_bracket_right", d_right, "<", 0.0,
                f"derivative < 0 at lambda* + {_spell(step)}"),
    ]


def certified_pairing_checks() -> list[CertifiedCheck]:
    cons = PairingConstants.at_eta(eta_star_enclosure(LAM_LIT))
    return [_within(f"pairing_{name}", getattr(cons, name), name)
            for name in PAIRING]


def certified_chain_checks() -> list[CertifiedCheck]:
    checks = [_beyond("kappa_eff", kappa_eff(Interval.exact(EPSILON_STAR)),
                      ">", BOUNDS["kappa_eff"])]
    for beta in (1e-10, BETA_STAR):
        checks.append(_beyond(f"neighborhood_drop_per_beta_{beta:g}",
                              neighborhood_drop(Interval.exact(beta)) / beta,
                              ">=", BOUNDS["neighborhood_drop_per_beta"]))
    checks.append(_beyond(f"K_strip({_spell(STRIP_Z0)}, {_spell(ALPHA_MIN)})",
                          K_strip(Interval.exact(STRIP_Z0), ALPHA_MIN),
                          "<=", BOUNDS["K_strip"]))

    _, drop = final_branches(Interval.exact(BETA_STAR))
    checks.append(_within("final_drop", drop, "final_drop"))
    # The bound and the norm (1 - lambda)/c at one lambda, as final_chain
    # pairs LAMBDA_STAR with DAVIE_REEDS_C.
    lam, eta = _reeds_point(LAMBDA_STAR)
    increment = kg_lower_bound(drop, lam, _bound(lam, eta))
    exceeds = BOUNDS["kg_increment_exceeds"]
    checks.append(_beyond("kg_increment", increment, ">=",
                          BOUNDS["kg_increment"]))
    checks.append(_beyond(f"kg_increment_exceeds_{_spell(exceeds)}",
                          increment, ">", exceeds))
    return checks


def all_certified_checks() -> list[CertifiedCheck]:
    return (certified_baseline_checks() + certified_pairing_checks()
            + certified_chain_checks())
