"""Third-Hermite-chaos pairing constants and the inequalities built on them.

All the scalar constants are closed forms in eta (Gaussian density / CDF
values); the profile-dependent checks integrate against piecewise-constant
profiles from the profiles module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FeasibilityError, InternalCheckError
from .intervals import Num, arith, endpoints
from .profiles import Profile, h3_moment, theta_moments

# Inner moments must vanish this tightly for the |A| bound hypothesis.
_INNER_MOMENT_TOL = 1e-9

# Doubles per array in one block of the sampled sign-flip check: 64 KiB,
# below glibc's 128 KiB mmap threshold, so the heap reuses the blocks
# instead of mapping and faulting in fresh pages for each one.
_SIGNFLIP_BLOCK = 8192


# The closed forms below take a float eta, or an Interval eta (then every
# result is an enclosure); see intervals.arith.

def inner_constants(eta: Num) -> tuple[Num, Num, Num]:
    """(p, s1, t2): mass, first and second absolute moments of |Z| < eta.

    p = 2 Phi(eta) - 1,  s1 = 2 (pdf(0) - pdf(eta)),  t2 = p - 2 eta pdf(eta),
    with pdf(0) the constant INV_SQRT_2PI.
    """
    ar = arith(eta)
    eta = ar.exact(eta)
    if endpoints(eta)[0] <= 0.0:
        raise DomainError(f"inner_constants requires eta > 0, got {eta}")
    pdf_eta = ar.pdf(eta)
    p = 2.0 * ar.cdf(eta) - 1.0
    s1 = 2.0 * (ar.INV_SQRT_2PI - pdf_eta)
    t2 = p - 2.0 * eta * pdf_eta
    return p, s1, t2


def kappa_Q(eta: Num) -> tuple[Num, Num, Num]:
    """(B, A_max, kappa_Q): tail H3 integral, inner H3 bound, zonal constant.

    B = -2 (1 - eta^2) pdf(eta),  A_max = eta^2 (pdf(0) - pdf(eta)),
    kappa_Q = (B^2 - A_max^2) / 6.
    """
    ar = arith(eta)
    eta = ar.exact(eta)
    if endpoints(eta)[0] <= 0.0:
        raise DomainError(f"kappa_Q requires eta > 0, got {eta}")
    pdf_eta = ar.pdf(eta)
    b = -2.0 * (1.0 - eta * eta) * pdf_eta
    a_max = eta * eta * (ar.INV_SQRT_2PI - pdf_eta)
    return b, a_max, (b * b - a_max * a_max) / 6.0


def transverse_bound(p: Num, s1: Num, t2: Num) -> Num:
    """Upper bound p^2 + s1^2 + t2^2 / 2 on the transverse chaos mass."""
    if any(endpoints(x)[0] < 0.0 for x in (p, s1, t2)):
        raise DomainError("transverse_bound requires nonnegative inputs")
    return p * p + s1 * s1 + 0.5 * t2 * t2


def K0_upper(b: Num, a_max: Num, transverse: Num) -> Num:
    """Upper bound on the L2 norm of the third-chaos component of a maximizer.

    From the kappa_Q terms B, A_max and the transverse bound: uses
    (|B| + A_max)^2 / 6 for the zonal part so the bound is valid for either
    sign of the inner term, plus the transverse mass bound.
    """
    ar = arith(b, a_max, transverse)
    return ar.sqrt(ar.square(abs(b) + a_max) / 6.0 + transverse)


@dataclass(frozen=True)
class PairingConstants:
    """All pairing scalars evaluated at one eta: floats, or Intervals when
    eta is an Interval."""

    eta_star: Num
    B: Num
    A_max: Num
    kappa_Q: Num
    p: Num
    s1: Num
    t2: Num
    transverse: Num
    pairing_lower: Num
    K0_upper: Num

    def __post_init__(self):
        if endpoints(self.pairing_lower)[0] <= 0.0:
            raise InternalCheckError(
                f"pairing lower bound {self.pairing_lower} is not positive"
            )

    @classmethod
    def at_eta(cls, eta: Num) -> "PairingConstants":
        b, a_max, kq = kappa_Q(eta)
        p, s1, t2 = inner_constants(eta)
        tr = transverse_bound(p, s1, t2)
        return cls(eta_star=eta, B=b, A_max=a_max, kappa_Q=kq, p=p, s1=s1,
                   t2=t2, transverse=tr, pairing_lower=kq - tr,
                   K0_upper=K0_upper(b, a_max, tr))


def A_bound_check(profile: Profile, eta: float) -> tuple[float, float]:
    """(|int_{-eta}^{eta} H3 theta pdf|, A_max = eta^2 (pdf(0) - pdf(eta))).

    Requires the profile's inner moment on (-eta, eta) to vanish; that is
    the hypothesis making the second entry an upper bound for the first.
    """
    eta = float(eta)
    if eta <= 0.0:
        raise DomainError(f"A_bound_check requires eta > 0, got {eta}")
    m = theta_moments(profile, eta)
    inner_m = m[1]
    if abs(inner_m) > _INNER_MOMENT_TOL:
        raise FeasibilityError(
            f"inner moment {inner_m:.3g} must vanish on (-{eta}, {eta})",
            residual=inner_m,
        )
    return abs(h3_moment(m)), kappa_Q(eta)[1]


def signflip_check(a, b, beta):
    """Both sides of |a - beta b| <= |a| - beta sign(a) b + 2 beta |b| 1{flip}.

    Accepts scalars or arrays; beta must be nonnegative (scalar or array).
    flip is |a| <= beta |b|.  The inequality holds for all real a, b and
    beta >= 0, by cases:
    - |a| > beta |b| (no flip): a - beta b has the sign of a, so
      |a - beta b| = sign(a) (a - beta b) = |a| - beta sign(a) b, and the
      two sides are equal.
    - |a| <= beta |b| (flip): |a - beta b| <= |a| + beta |b|
      = |a| - beta |b| + 2 beta |b| <= |a| - beta sign(a) b + 2 beta |b|,
      since -beta |b| <= -beta sign(a) b.
    Where no sign flips the sides are equal, so no interval can separate
    them; the sampled check is a cross-check of this proof.
    """
    beta_arr = np.asarray(beta, dtype=float)
    if np.any(beta_arr < 0.0):
        raise DomainError("signflip_check requires beta >= 0")
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    lhs = np.abs(a_arr - beta_arr * b_arr)
    flip = np.abs(a_arr) <= beta_arr * np.abs(b_arr)
    rhs = np.abs(a_arr) - beta_arr * np.sign(a_arr) * b_arr \
        + 2.0 * beta_arr * np.abs(b_arr) * flip
    if np.ndim(a) == 0 and np.ndim(b) == 0 and np.ndim(beta) == 0:
        return float(lhs), float(rhs)
    return lhs, rhs


def signflip_sample_holds(seed: int, n: int) -> bool:
    """Whether signflip_check's lhs <= rhs + 1e-12 on n seeded triples.

    The sample is the one-shot draw from Generator(Philox(key=seed)):
    uniform(-10, 10, n) for a, then uniform(-10, 10, n) for b, then
    uniform(0, 1, n) for beta.  Philox gives 4 doubles per counter step,
    so with n a multiple of 4 the stream advanced by k n / 4 steps starts
    where the k-th array starts, and the three arrays are drawn side by
    side in blocks of _SIGNFLIP_BLOCK, in bounded memory.
    """
    if n <= 0 or n % 4:
        raise DomainError(f"signflip_sample_holds requires n a positive "
                          f"multiple of 4, got {n}")
    ga, gb, gbeta = (np.random.Generator(np.random.Philox(key=seed)
                                         .advance(k * n // 4))
                     for k in range(3))
    for start in range(0, n, _SIGNFLIP_BLOCK):
        m = min(_SIGNFLIP_BLOCK, n - start)
        lhs, rhs = signflip_check(ga.uniform(-10, 10, m),
                                  gb.uniform(-10, 10, m),
                                  gbeta.uniform(0, 1, m))
        if not np.all(lhs <= rhs + 1e-12):
            return False
    return True
