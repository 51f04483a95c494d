"""Gaussian measure primitives: density, CDF, Hermite polynomials, moments.

Every integral the library needs is a piecewise polynomial of degree <= 3
times the standard Gaussian density, so one exact primitive lives here:
`gaussian_moments`, the moments int_a^b z^k pdf(z) dz (k = 0..3) of an array
of cells.  An integral is then a dot product of per-cell polynomial
coefficients with these moments.

The adaptive Gauss-Legendre panel rule is kept as an independent oracle: the
tests check the closed forms against it, and the `closed_form_vs_quadrature`
verification check does the same at run time.  Integrands are piecewise
smooth with known kink locations; panels are aligned with the kinks, which
restores spectral accuracy of the fixed-order rule inside each panel.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import AccuracyError, DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive quadrature oracle.

    truncation: half-width of the integration window; Gaussian mass outside
        is bounded into the error estimate rather than ignored.
    rel_tol / abs_tol: the integral is accepted once the accumulated panel
        error estimate is below max(abs_tol, rel_tol * |value|).
    max_subdivisions: hard cap on adaptive panel splits before giving up.
    """

    truncation: float = 12.0
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (math.isfinite(self.truncation) and self.truncation >= 8.0):
            raise DomainError(f"truncation must be >= 8, got {self.truncation}")
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (0.0 < v <= 1e-6):
                raise DomainError(f"{name} must lie in (0, 1e-6], got {v}")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_SPEC = QuadratureSpec()


def gaussian_pdf(z):
    """Standard Gaussian density; accepts a float or an ndarray."""
    if isinstance(z, np.ndarray):
        if not np.all(np.isfinite(z)):
            raise DomainError("gaussian_pdf requires finite input")
        return np.exp(-0.5 * z * z) * INV_SQRT_2PI
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"gaussian_pdf requires finite input, got {z}")
    return math.exp(-0.5 * z * z) * INV_SQRT_2PI


def _erfc_array(x: np.ndarray) -> np.ndarray:
    """math.erfc elementwise: the scalar path's function, so array and scalar
    values agree bit for bit."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def gaussian_cdf(t):
    """Standard Gaussian CDF via erfc, accurate in both tails."""
    if isinstance(t, np.ndarray):
        if not np.all(np.isfinite(t)):
            raise DomainError("gaussian_cdf requires finite input")
        return 0.5 * _erfc_array(-t / _SQRT2)
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"gaussian_cdf requires finite input, got {t}")
    return 0.5 * math.erfc(-t / _SQRT2)


# Below this argument mills_ratio takes Phi(-a) from erfc; above it the
# continued fraction converges in at most ~25 terms.
_MILLS_CF_FROM = 5.0


def mills_ratio(a: float) -> float:
    """Mills ratio R(a) = Phi(-a) / pdf(a) for finite a >= 0.

    Below a = 5 it is gaussian_cdf(-a) / gaussian_pdf(a).  From 5 on
    it is the continued fraction R = 1/(a + 1/(a + 2/(a + 3/(a + ...)))),
    evaluated by the modified Lentz method, which needs no erfc and stays
    accurate where Phi(-a) and pdf(a) underflow.
    """
    a = float(a)
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"mills_ratio requires finite a >= 0, got {a}")
    if a < _MILLS_CF_FROM:
        return gaussian_cdf(-a) / gaussian_pdf(a)
    f = c = a
    d = 0.0
    for j in range(1, 200):
        d = 1.0 / (a + j * d)
        c = a + j / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= 2.3e-16:
            return 1.0 / f
    raise AccuracyError(f"Mills-ratio continued fraction did not converge at a={a}")


def gaussian_isf(q: float) -> float:
    """The a > 0 with Phi(-a) = q, for 0 < q < 1/2.

    Newton's method on log Phi(-a) - log q, whose derivative is -1/R(a).  The
    function is concave and decreasing, so from a0 = sqrt(-2 log q), where
    Phi(-a0) < pdf(a0)/a0 <= q, the iterates decrease monotonically to the
    root.  Each step is log(Phi(-a)/q) R(a): the log of a ratio near 1, which
    keeps the last steps accurate.  Iteration stops once rounding noise no
    longer lets a step decrease a.
    """
    q = float(q)
    if not 0.0 < q < 0.5:
        raise DomainError(f"gaussian_isf requires 0 < q < 1/2, got {q}")
    a = math.sqrt(-2.0 * math.log(q))
    for _ in range(100):
        step = math.log(gaussian_cdf(-a) / q) * mills_ratio(a)
        if not a + step < a:
            return a
        a += step
    raise AccuracyError(f"gaussian_isf did not converge at q={q}")


def hermite_eval(k: int, z):
    """Probabilists' Hermite polynomial H_k for k in {0, 1, 2, 3}."""
    if k == 0:
        return np.ones_like(z, dtype=float) if isinstance(z, np.ndarray) else 1.0
    if k == 1:
        return np.asarray(z, dtype=float) if isinstance(z, np.ndarray) else float(z)
    if k == 2:
        return z * z - 1.0
    if k == 3:
        return z * (z * z - 3.0)
    raise DomainError(f"hermite_eval supports k in 0..3, got {k}")


# Scalar closed forms; the tests use them as references for gaussian_moments.

def interval_mass(a: float, b: float) -> float:
    """Gaussian measure of [a, b]."""
    return gaussian_cdf(b) - gaussian_cdf(a)


def interval_z_moment(a: float, b: float) -> float:
    """Integral of z * pdf(z) over [a, b]."""
    return gaussian_pdf(a) - gaussian_pdf(b)


def tail_first_moment(eta: float) -> float:
    """Integral of z * pdf(z) over [eta, inf) for eta >= 0; equals pdf(eta)."""
    eta = float(eta)
    if not math.isfinite(eta) or eta < 0.0:
        raise DomainError(f"tail_first_moment requires eta >= 0, got {eta}")
    return gaussian_pdf(eta)


def h3_tail_integral(eta: float) -> float:
    """Two-sided tail integral 2 * int_eta^inf H3(z) pdf(z) dz, closed form."""
    eta = float(eta)
    if not math.isfinite(eta) or eta < 0.0:
        raise DomainError(f"h3_tail_integral requires eta >= 0, got {eta}")
    return -2.0 * (1.0 - eta * eta) * gaussian_pdf(eta)


# pdf(z) and Phi(-|z|) underflow to exactly 0.0 for |z| >= 38.6, so clipping
# edges (infinite ones included) to +-40 leaves every moment unchanged.
_EDGE_CLIP = 40.0


def gaussian_moments(edges) -> np.ndarray:
    """Exact moments I_k = int_{e_i}^{e_{i+1}} z^k pdf(z) dz, k = 0..3.

    edges is a nondecreasing sequence of n + 1 cell edges, which may start at
    -inf and end at +inf.  Returns an array of shape (4, n) whose row k holds
    I_k of every cell.

    I_0 is the Phi difference written as 2 Phi(e) - 1 = sign(e) (1 - erfc(|e|
    / sqrt 2)) with the two parts differenced separately: for a cell on one
    side of 0 the sign parts cancel exactly and only the erfc values of that
    tail are subtracted, so far-tail cells keep their relative accuracy.  The
    higher moments follow from I_k = (k - 1) I_{k-2} + a^{k-1} pdf(a) -
    b^{k-1} pdf(b) on each cell [a, b].
    """
    e = np.minimum(np.maximum(np.asarray(edges, dtype=float), -_EDGE_CLIP),
                   _EDGE_CLIP)
    s = np.sign(e)
    s_erfc = s * _erfc_array(np.abs(e) / _SQRT2)
    pdf = np.exp(-0.5 * e * e) * INV_SQRT_2PI
    z_pdf = e * pdf
    zz_pdf = e * z_pdf
    out = np.empty((4, e.size - 1))
    out[0] = 0.5 * ((s[1:] - s[:-1]) - (s_erfc[1:] - s_erfc[:-1]))
    out[1] = pdf[:-1] - pdf[1:]
    out[2] = out[0] + (z_pdf[:-1] - z_pdf[1:])
    out[3] = 2.0 * out[1] + (zz_pdf[:-1] - zz_pdf[1:])
    return out


# Fixed-order Gauss-Legendre nodes for the panel rule (7 vs 15 points gives
# the per-panel error estimate).
_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
_MAX_PANEL_WIDTH = 3.0


def _panel_eval(f, lo: float, hi: float):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    z = np.concatenate((c + h * _X15, c + h * _X7))
    y = np.asarray(f(z), dtype=float) * gaussian_pdf(z)
    i15 = h * float(np.dot(_W15, y[:15]))
    i7 = h * float(np.dot(_W7, y[15:]))
    err = abs(i15 - i7) + 1e-18 * abs(i15)
    return i15, err


def gauss_integrate_with_error(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_SPEC,
    kinks: Iterable[float] = (),
    interval: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Adaptive integral of f(z) * pdf(z), returning (value, error bound).

    `f` must accept ndarray input.  Kink locations are panel boundaries, so
    f only needs to be smooth inside each panel.  With interval=None the
    window is [-T, T] and the (crudely bounded) truncated tail mass is added
    to the error estimate.
    """
    if interval is None:
        a, b = -spec.truncation, spec.truncation
    else:
        a, b = float(interval[0]), float(interval[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError("integration interval must be finite")
    if not a < b:
        return 0.0, 0.0

    edges = [a]
    for k in sorted(set(float(k) for k in kinks)):
        if a < k < b and k - edges[-1] > 1e-15:
            edges.append(k)
    edges.append(b)

    # Cap panel width so the Gaussian weight is well resolved per panel.
    refined = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, int(math.ceil((hi - lo) / _MAX_PANEL_WIDTH)))
        step = (hi - lo) / n
        refined.extend((lo + i * step, lo + (i + 1) * step) for i in range(n))

    tail_bound = 0.0
    if interval is None:
        yab = np.asarray(f(np.array([a, b])), dtype=float)
        fscale = 1.0 + abs(float(yab[0])) + abs(float(yab[1]))
        tail_bound = 2.0 * fscale * (spec.truncation + 1.0) * gaussian_pdf(spec.truncation)

    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = tail_bound
    for lo, hi in refined:
        val, err = _panel_eval(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val))
        counter += 1
        total += val
        total_err += err

    splits = 0
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if splits >= spec.max_subdivisions or not heap:
            raise AccuracyError(
                f"quadrature did not converge after {splits} subdivisions "
                f"(estimate {total:.17g}, error bound {total_err:.3g})",
                estimate=total,
                error_bound=total_err,
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        total -= val
        total_err += neg_err  # removes the panel's error contribution
        mid = 0.5 * (lo + hi)
        for plo, phi in ((lo, mid), (mid, hi)):
            v, e = _panel_eval(f, plo, phi)
            heapq.heappush(heap, (-e, counter, plo, phi, v))
            counter += 1
            total += v
            total_err += e
        splits += 1

    # Deterministic left-to-right re-summation.
    panels = sorted((lo, val) for _, _, lo, _, val in heap)
    return math.fsum(v for _, v in panels), total_err


def gauss_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_SPEC,
    kinks: Iterable[float] = (),
    interval: tuple[float, float] | None = None,
) -> float:
    """Adaptive Gaussian-weight integral; see gauss_integrate_with_error."""
    value, _ = gauss_integrate_with_error(f, spec, kinks, interval)
    return value
