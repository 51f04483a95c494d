"""Interval-certified re-derivations of the headline constants.

Each check rebuilds a quantity from scratch with the outward-rounded interval
kernel and verifies strict separation: the enclosure sits inside the +-tol
window of an equality target, or entirely on the required side of a one-sided
bound.  Nothing here reuses the floating-point code paths being certified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baseline import LAMBDA_STAR
from .chain import (ALPHA_ERR, ALPHA_MIN, BETA_STAR, DEFECT_D, DETUNED_BOUND,
                    EPSILON_STAR, K0, KAPPA0, L0, NEAR_DROP_COEFF, P3_COEFF,
                    STRIP_Z0, strip_z0)
from .claims import BOUNDS, LAM_LIT, PAIRING, TARGETS
from .errors import InternalCheckError
from .intervals import (
    Interval,
    SQRT_2_OVER_PI,
    SQRT_2PI,
    gaussian_cdf_iv,
    gaussian_pdf_iv,
)


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


def _eta_equation_iv(x: float, lam: Interval) -> Interval:
    xi = Interval.exact(x)
    return SQRT_2_OVER_PI * xi * (-(xi.square() * 0.5)).exp() - lam


def eta_star_enclosure(lam: float) -> Interval:
    """Certified enclosure of the root eta in (0, 1) for the given lambda.

    Bisection keeps endpoints whose equation signs are interval-certified;
    it stops early if a midpoint's sign cannot be resolved, leaving a valid
    (slightly wider) bracket.
    """
    lam_iv = Interval.exact(lam)
    lo, hi = 0.01, 0.99
    if not _eta_equation_iv(lo, lam_iv).strictly_below(0.0):
        raise InternalCheckError("left bracket sign not certified")
    if not _eta_equation_iv(hi, lam_iv).strictly_above(0.0):
        raise InternalCheckError("right bracket sign not certified")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        g = _eta_equation_iv(mid, lam_iv)
        if g.strictly_below(0.0):
            lo = mid
        elif g.strictly_above(0.0):
            hi = mid
        else:
            break
    return Interval(lo, hi)


def _denominator_iv(lam: float) -> tuple[Interval, Interval, Interval]:
    """(eta, alpha, denominator) enclosures at the given lambda."""
    lam_iv = Interval.exact(lam)
    eta = eta_star_enclosure(lam)
    alpha = lam_iv / eta
    one = Interval.exact(1.0)
    den = alpha.square() + lam_iv * (one - gaussian_cdf_iv(-eta) * 4.0)
    return eta, alpha, den


def bound_enclosure(lam: float) -> Interval:
    """Certified enclosure of (1 - lambda) / denominator(lambda)."""
    _, _, den = _denominator_iv(lam)
    return (Interval.exact(1.0) - Interval.exact(lam)) / den


def _bound_derivative_iv(lam: float) -> Interval:
    """Enclosure of the exact derivative of the bound in lambda."""
    lam_iv = Interval.exact(lam)
    one = Interval.exact(1.0)
    eta = eta_star_enclosure(lam)
    pdf_eta = gaussian_pdf_iv(eta)
    deta = one / (pdf_eta * 2.0 * (one - eta.square()))
    alpha = lam_iv / eta
    dalpha = (eta - lam_iv * deta) / eta.square()
    phi_m = gaussian_cdf_iv(-eta)
    den = alpha.square() + lam_iv * (one - phi_m * 4.0)
    dden = alpha * dalpha * 2.0 + (one - phi_m * 4.0) + lam_iv * pdf_eta * deta * 4.0
    return (-den - (one - lam_iv) * dden) / den.square()


def certified_baseline_checks() -> list[CertifiedCheck]:
    eta, alpha, _ = _denominator_iv(LAM_LIT)
    bound = bound_enclosure(LAM_LIT)
    # The argmax lies within the lambda_star claim's window: the bound's
    # derivative changes sign across it.
    _, step = TARGETS["lambda_star"]
    d_left = _bound_derivative_iv(LAMBDA_STAR - step)
    d_right = _bound_derivative_iv(LAMBDA_STAR + step)
    return [
        _within("baseline_bound", bound, "davie_reeds_bound"),
        _within("eta_star", eta, "eta_star"),
        _within("alpha_star", alpha, "alpha_star"),
        CertifiedCheck("argmax_bracket_left", d_left.lo, d_left.hi,
                       f"derivative > 0 at lambda* - {_spell(step)}",
                       d_left.strictly_above(0.0)),
        CertifiedCheck("argmax_bracket_right", d_right.lo, d_right.hi,
                       f"derivative < 0 at lambda* + {_spell(step)}",
                       d_right.strictly_below(0.0)),
    ]


def _pairing_ivs(eta: Interval) -> dict[str, Interval]:
    one = Interval.exact(1.0)
    pdf0 = gaussian_pdf_iv(Interval.exact(0.0))
    pdf_eta = gaussian_pdf_iv(eta)
    b = -(one - eta.square()) * pdf_eta * 2.0
    a_max = eta.square() * (pdf0 - pdf_eta)
    kq = (b.square() - a_max.square()) / 6.0
    p = gaussian_cdf_iv(eta) * 2.0 - one
    s1 = (pdf0 - pdf_eta) * 2.0
    t2 = p - eta * pdf_eta * 2.0
    transverse = p.square() + s1.square() + t2.square() * 0.5
    pairing = kq - transverse
    return {"B": b, "A_max": a_max, "kappa_Q": kq, "p": p, "s1": s1,
            "t2": t2, "transverse": transverse, "pairing_lower": pairing}


def certified_pairing_checks() -> list[CertifiedCheck]:
    ivs = _pairing_ivs(eta_star_enclosure(LAM_LIT))
    return [_within(f"pairing_{name}", ivs[name], name) for name in PAIRING]


def kappa_eff_enclosure() -> Interval:
    """Enclosure of chain.kappa_eff at epsilon = EPSILON_STAR."""
    eps = Interval.exact(EPSILON_STAR)
    log_term = (Interval.exact(2.0) / eps).log()
    leak = Interval.exact(P3_COEFF) * eps * (log_term * log_term.sqrt())
    inner = eps * Interval.exact(L0) * (Interval.exact(LAMBDA_STAR) + log_term * 0.5)
    stability = Interval.exact(8.0).sqrt() * inner.sqrt().sqrt() * Interval.exact(K0)
    return Interval.exact(KAPPA0) - leak - stability


def c_z0_upper_enclosure(z0: float) -> Interval:
    """Enclosure of sup_{|z|<=z0} of the strip polynomial
    q = H3^2/6 + H2^2/2 + z^2 + 1.

    q is even with q'(z) = z((z^2 - 1)^2 + 2) >= 0 for z >= 0, so the sup is
    q(z0), evaluated once in interval arithmetic.
    """
    z = Interval.exact(z0)
    z2 = z.square()
    h3 = z * z2 - z * 3.0
    h2 = z2 - Interval.exact(1.0)
    return h3.square() / 6.0 + h2.square() / 2.0 + z2 + 1.0


def drop_per_beta_enclosure(beta: float) -> Interval:
    """Enclosure of (neighborhood drop) / beta at the reference parameters."""
    beta_iv = Interval.exact(beta)
    keff = kappa_eff_enclosure()
    c_up = c_z0_upper_enclosure(strip_z0(beta))
    kstrip = Interval(0.0, (Interval.exact(8.0) * c_up.sqrt()
                            / (Interval.exact(ALPHA_MIN) * SQRT_2PI)).hi)
    strip_term = kstrip * beta_iv.pow_frac(7, 10)
    damp = (-(Interval.exact(2.0) / 3.0)).exp()
    exponent = -(beta_iv.pow_frac(-1, 5) * damp * 0.5) - Interval.exact(0.5)
    tail_term = exponent.exp() * 2.0
    return keff - strip_term - tail_term


def certified_chain_checks() -> list[CertifiedCheck]:
    checks = [_beyond("kappa_eff", kappa_eff_enclosure(), ">",
                      BOUNDS["kappa_eff"])]
    for beta in (1e-10, BETA_STAR):
        checks.append(_beyond(f"neighborhood_drop_per_beta_{beta:g}",
                              drop_per_beta_enclosure(beta), ">=",
                              BOUNDS["neighborhood_drop_per_beta"]))

    kstrip = (Interval.exact(8.0) * c_z0_upper_enclosure(STRIP_Z0).sqrt()
              / (Interval.exact(ALPHA_MIN) * SQRT_2PI))
    checks.append(_beyond(f"K_strip({_spell(STRIP_Z0)}, {_spell(ALPHA_MIN)})",
                          kstrip, "<=", BOUNDS["K_strip"]))

    # Final chain at the reference beta.
    beta = Interval.exact(BETA_STAR)
    lam = Interval.exact(LAMBDA_STAR)
    d_in, ae = Interval.exact(DEFECT_D), Interval.exact(ALPHA_ERR)
    one = Interval.exact(1.0)
    branch_a = d_in * (lam / 8.0 - ae)
    inner = d_in * (one - ae * 4.0) / 8.0 - ae * 6.4
    branch_b = inner.square() * (Interval.exact(0.98) / 8.0)
    gap = Interval(min(branch_a.lo, branch_b.lo), min(branch_a.hi, branch_b.hi))
    b1 = -(Interval.exact(NEAR_DROP_COEFF) * beta)
    b2 = beta - Interval.exact(DETUNED_BOUND)
    b3 = beta - gap
    worst = Interval(max(b1.lo, b2.lo, b3.lo), max(b1.hi, b2.hi, b3.hi))
    drop = -worst
    checks.append(_within("final_drop", drop, "final_drop"))

    bound = bound_enclosure(LAM_LIT)
    increment = bound.square() * drop / (one - lam)
    exceeds = BOUNDS["kg_increment_exceeds"]
    checks.append(_beyond("kg_increment", increment, ">=",
                          BOUNDS["kg_increment"]))
    checks.append(_beyond(f"kg_increment_exceeds_{_spell(exceeds)}",
                          increment, ">", exceeds))
    return checks


def all_certified_checks() -> list[CertifiedCheck]:
    return (certified_baseline_checks() + certified_pairing_checks()
            + certified_chain_checks())
