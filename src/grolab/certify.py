"""Interval-certified checks of the headline constants.

Each check evaluates the library's own formulas (the `baseline`, `pairing`
and `chain` functions the float report uses) on Interval inputs, where every
elementary operation rounds outward, and verifies strict separation: the
enclosure sits inside the +-tol window of an equality target, or entirely on
the required side of a one-sided bound.  A formula is written once, so a
certified line proves the exact expression the float report evaluates; the
rigor comes from the outward rounding.  The one algorithm of its own here is
the sign-certified bisection that encloses eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .baseline import LAMBDA_STAR, _bound, _bound_derivative, _eta_equation
from .chain import (ALPHA_MIN, BETA_STAR, EPSILON_STAR, STRIP_Z0, K_strip,
                    final_branches, kappa_eff, kg_lower_bound,
                    neighborhood_drop)
from .claims import BOUNDS, LAM_LIT, PAIRING, TARGETS
from .errors import InternalCheckError
from .intervals import Interval
from .pairing import PairingConstants


@dataclass(frozen=True)
class CertifiedCheck:
    """One interval-certified verdict."""

    name: str
    lo: float
    hi: float
    requirement: str
    passed: bool


def _spell(x: float) -> str:
    """Shortest round-trip digits, spelled 7 and 1e-9 rather than 7.0 and 1e-09."""
    s = repr(float(x)).replace("e-0", "e-")
    return s[:-2] if s.endswith(".0") else s


def _within(name: str, iv: Interval, claim: str) -> CertifiedCheck:
    """iv inside the +-tolerance window of the claims.TARGETS entry."""
    target, tol = TARGETS[claim]
    return CertifiedCheck(name, iv.lo, iv.hi,
                          f"within {_spell(target)} +- {_spell(tol)}",
                          iv.within(target, tol))


def _beyond(name: str, iv: Interval, relation: str, bound: float) -> CertifiedCheck:
    """iv strictly on the side of bound that relation (">", ">=", "<=") names."""
    passed = (iv.strictly_above(bound) if relation.startswith(">")
              else iv.strictly_below(bound))
    return CertifiedCheck(name, iv.lo, iv.hi, f"{relation} {_spell(bound)}",
                          passed)


@lru_cache(maxsize=8)
def eta_star_enclosure(lam: float) -> Interval:
    """Certified enclosure of the root eta in (0, 1) for the given lambda.

    Bisection keeps endpoints whose equation signs are interval-certified;
    it stops early if a midpoint's sign cannot be resolved, leaving a valid
    (slightly wider) bracket.  Cached: the checks take the enclosure at
    LAM_LIT three times, and Interval is immutable.
    """
    lam_iv = Interval.exact(lam)

    def sign_eq(x: float) -> Interval:
        return _eta_equation(Interval.exact(x), lam_iv)

    lo, hi = 0.01, 0.99
    if not sign_eq(lo).strictly_below(0.0):
        raise InternalCheckError("left bracket sign not certified")
    if not sign_eq(hi).strictly_above(0.0):
        raise InternalCheckError("right bracket sign not certified")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        g = sign_eq(mid)
        if g.strictly_below(0.0):
            lo = mid
        elif g.strictly_above(0.0):
            hi = mid
        else:
            break
    return Interval(lo, hi)


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
        CertifiedCheck("argmax_bracket_left", d_left.lo, d_left.hi,
                       f"derivative > 0 at lambda* - {_spell(step)}",
                       d_left.strictly_above(0.0)),
        CertifiedCheck("argmax_bracket_right", d_right.lo, d_right.hi,
                       f"derivative < 0 at lambda* + {_spell(step)}",
                       d_right.strictly_below(0.0)),
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
    increment = kg_lower_bound(drop, Interval.exact(LAMBDA_STAR),
                               _bound(*_reeds_point(LAM_LIT)))
    exceeds = BOUNDS["kg_increment_exceeds"]
    checks.append(_beyond("kg_increment", increment, ">=",
                          BOUNDS["kg_increment"]))
    checks.append(_beyond(f"kg_increment_exceeds_{_spell(exceeds)}",
                          increment, ">", exceeds))
    return checks


def all_certified_checks() -> list[CertifiedCheck]:
    return (certified_baseline_checks() + certified_pairing_checks()
            + certified_chain_checks())
