"""Outward-rounded interval arithmetic for the certification mode.

Endpoints are doubles.  Every elementary operation computes the candidate
endpoints in ordinary (correctly rounded) double arithmetic and then widens
them outward by a few ulps via nextafter: one ulp absorbs the rounding of
+,-,*,/ and sqrt, two absorb the documented accuracy of libm exp/log, and a
larger margin covers erf.  The result is a rigorous enclosure as long as the
platform libm stays within those error budgets, which is the standard
assumption for this style of certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_ARITH_ULPS = 1
_EXPLOG_ULPS = 2
_ERF_ULPS = 8


def _down(x: float, ulps: int = _ARITH_ULPS) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, -math.inf)
    return x


def _up(x: float, ulps: int = _ARITH_ULPS) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, math.inf)
    return x


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def exact(cls, x: float) -> "Interval":
        return cls(float(x), float(x))

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        o = _coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = _coerce(other)
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "Interval":
        return _coerce(other) - self

    def __mul__(self, other) -> "Interval":
        o = _coerce(other)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(cands)), _up(max(cands)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = _coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError(f"division by interval containing zero: {o}")
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(cands)), _up(max(cands)))

    def __rtruediv__(self, other) -> "Interval":
        return _coerce(other) / self

    def abs(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def square(self) -> "Interval":
        a = self.abs()
        return Interval(max(0.0, _down(a.lo * a.lo)), _up(a.hi * a.hi))

    # -- monotone elementary functions ----------------------------------------

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise ValueError(f"sqrt of interval with negative part: {self}")
        return Interval(_down(math.sqrt(self.lo)), _up(math.sqrt(self.hi)))

    def exp(self) -> "Interval":
        return Interval(max(0.0, _down(math.exp(self.lo), _EXPLOG_ULPS)),
                        _up(math.exp(self.hi), _EXPLOG_ULPS))

    def log(self) -> "Interval":
        if self.lo <= 0.0:
            raise ValueError(f"log of interval touching zero: {self}")
        return Interval(_down(math.log(self.lo), _EXPLOG_ULPS),
                        _up(math.log(self.hi), _EXPLOG_ULPS))

    def erf(self) -> "Interval":
        return Interval(_down(math.erf(self.lo), _ERF_ULPS),
                        _up(math.erf(self.hi), _ERF_ULPS))

    def pow_frac(self, num: int, den: int) -> "Interval":
        """x^(num/den) for positive intervals via exp(log), outward rounded."""
        if self.lo <= 0.0:
            raise ValueError(f"pow_frac needs a positive interval: {self}")
        return (self.log() * Interval.exact(num) / Interval.exact(den)).exp()

    # -- predicates -----------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def strictly_below(self, bound: float) -> bool:
        return self.hi < bound

    def strictly_above(self, bound: float) -> bool:
        return self.lo > bound

    def within(self, center: float, tol: float) -> bool:
        return center - tol <= self.lo and self.hi <= center + tol

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.exact(float(x))


# Shared constants as enclosures.
PI = Interval(_down(math.pi), _up(math.pi))
TWO_PI = PI * 2.0
SQRT_2PI = TWO_PI.sqrt()
SQRT_2 = Interval.exact(2.0).sqrt()
SQRT_2_OVER_PI = (Interval.exact(2.0) / PI).sqrt()
E = Interval(_down(math.e), _up(math.e))


def gaussian_pdf_iv(z: Interval) -> Interval:
    """Enclosure of the standard Gaussian density over z."""
    return (-(z.square() * 0.5)).exp() / SQRT_2PI


def gaussian_cdf_iv(z: Interval) -> Interval:
    """Enclosure of the standard Gaussian CDF over z."""
    half = Interval.exact(0.5)
    return half * ((z / SQRT_2).erf() + 1.0)
