"""The paper's point claims, each stated once: its number and its check.

TARGETS and BOUNDS hold the numbers; where a value is already a named
constant elsewhere, the entry refers to it.  CLAIMS holds, for each claim,
the suite that reports it, its relation to the number and its formula: one
function of the shared Inputs.  The CLI evaluates every formula in floats
(Inputs(float, solve_eta_star, solve_eta_argmax)) and certify in
outward-rounded intervals (Inputs(Interval.exact, eta_star_enclosure,
eta_argmax_enclosure)), so a claim's float line and its certified line
check one expression against one number.

Outside the table: the sampled, scanned and strip checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .baseline import (DAVIE_REEDS_C, LAMBDA_STAR, _bound, argmax_gap,
                       reeds_lambda)
from .chain import (ALPHA_MIN, BETA_STAR, EPSILON_STAR, K0, L0,
                    NEAR_DROP_COEFF, STRIP_Z0, C_z0, K_strip, L0_bound,
                    final_branches, kappa_eff, kg_increment,
                    neighborhood_drop)
from .intervals import Num
from .pairing import PairingConstants

# The rounded lambda at which the stated Reeds point and constants hold.
LAM_LIT = 0.197479091

# Equality claims: name -> (target, tolerance).
TARGETS: dict[str, tuple[float, float]] = {
    "davie_reeds_bound": (DAVIE_REEDS_C, 1e-12),
    "lambda_star": (LAMBDA_STAR, 1e-8),
    "eta_star": (0.255730213173163, 1e-11),
    "alpha_star": (0.772216503281451, 1e-11),
    "B": (-0.721715133242779, 1e-9),
    "A_max": (0.000839319067615, 1e-9),
    "kappa_Q": (0.086812004849191, 1e-9),
    "p": (0.201840836034193, 1e-9),
    "s1": (0.0256680575214142, 1e-9),
    "t2": (0.00436174503419317, 1e-9),
    "transverse": (0.0414080846777763, 1e-9),
    "pairing_lower": (0.0454039202, 1e-9),
    "final_drop": (4.56e-27, 1e-30),
}

# The PairingConstants fields among TARGETS, in report order.
PAIRING = ("B", "A_max", "kappa_Q", "p", "s1", "t2", "transverse",
           "pairing_lower")

# One-sided claims: name -> bound; the relation is the CLAIMS entry's.
# kg_increment_exceeds is the paper's headline K_G >= c + 1e-26, c the
# bound's supremum: the increment less baseline.argmax_gap.
BOUNDS: dict[str, float] = {
    "K0_upper": K0,
    "kappa_eff": 0.0058,
    "neighborhood_drop_per_beta": NEAR_DROP_COEFF,
    "kg_increment": 1.596e-26,
    "kg_increment_exceeds": 1e-26,
    "K_strip": 7.0,
    "L0_bound": L0,
    "C_z0": 1.7,
}


class Inputs:
    """The values the claim formulas share, in one number system.

    num turns a named constant into a number of the system (float, or
    Interval.exact); eta_of gives the threshold root at a lambda
    (solve_eta_star, or eta_star_enclosure); eta_argmax gives the root of
    baseline._argmax_equation (solve_eta_argmax, or eta_argmax_enclosure).
    That root, the pairing constants, the final drop and the K_G increment
    are computed on first use, once per instance.
    """

    def __init__(self, num: Callable[[float], Num],
                 eta_of: Callable[[float], Num],
                 eta_argmax: Callable[[], Num]):
        self.num = num
        self.eta = eta_of(LAM_LIT)
        self.eta_lambda_star = eta_of(LAMBDA_STAR)
        self._eta_argmax = eta_argmax

    @cached_property
    def eta_argmax(self) -> Num:
        return self._eta_argmax()

    @cached_property
    def pairing(self) -> PairingConstants:
        return PairingConstants.at_eta(self.eta)

    @cached_property
    def drop(self) -> Num:
        """The final chain's drop at BETA_STAR."""
        return final_branches(self.num(BETA_STAR))[1]

    @cached_property
    def increment(self) -> Num:
        """The K_G increment the final drop gives at lambda_star."""
        return kg_increment(self.drop, self.eta_lambda_star)


@dataclass(frozen=True)
class Claim:
    """One point claim: formula(inputs), related to the number under name.

    relation is "within" (the TARGETS window), ">=" or "<=" (the BOUNDS
    bound).  A claim taken at several points names each one; its report
    line is then name_point.
    """

    name: str
    suite: str
    relation: str
    formula: Callable[[Inputs], Num]
    point: float | None = None

    @property
    def label(self) -> str:
        return self.name if self.point is None else f"{self.name}_{self.point:g}"


def _pairing(field: str) -> Callable[[Inputs], Num]:
    return lambda x: getattr(x.pairing, field)


def _drop_per_beta(beta: float) -> Callable[[Inputs], Num]:
    return lambda x: neighborhood_drop(x.num(beta)) / x.num(beta)


CLAIMS: tuple[Claim, ...] = (
    Claim("davie_reeds_bound", "baseline", "within",
          lambda x: _bound(x.num(LAM_LIT), x.eta)),
    Claim("eta_star", "baseline", "within", lambda x: x.eta),
    Claim("alpha_star", "baseline", "within", lambda x: x.num(LAM_LIT) / x.eta),
    Claim("lambda_star", "baseline", "within",
          lambda x: reeds_lambda(x.eta_argmax)),
    *(Claim(name, "pairing", "within", _pairing(name)) for name in PAIRING),
    Claim("K0_upper", "pairing", "<=", _pairing("K0_upper")),
    Claim("kappa_eff", "chain", ">=", lambda x: kappa_eff(x.num(EPSILON_STAR))),
    *(Claim("neighborhood_drop_per_beta", "chain", ">=", _drop_per_beta(beta),
            point=beta) for beta in (1e-10, BETA_STAR)),
    Claim("final_drop", "chain", "within", lambda x: x.drop),
    Claim("kg_increment", "chain", ">=", lambda x: x.increment),
    Claim("kg_increment_exceeds", "chain", ">=",
          lambda x: x.increment - argmax_gap(x.eta_lambda_star, x.eta_argmax)),
    Claim("K_strip", "chain", "<=",
          lambda x: K_strip(x.num(STRIP_Z0), x.num(ALPHA_MIN))),
    Claim("L0_bound", "chain", "<=", lambda x: L0_bound(x.num(ALPHA_MIN))),
    Claim("C_z0", "chain", "<=", lambda x: C_z0(x.num(STRIP_Z0))),
)


def suite_claims(suite: str) -> tuple[Claim, ...]:
    """The CLAIMS entries of one suite, in table order."""
    return tuple(c for c in CLAIMS if c.suite == suite)
