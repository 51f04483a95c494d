"""Gaussian measure primitives: density, CDF, tails, moments.

Every integral the library needs is a piecewise polynomial of degree <= 3
times the standard Gaussian density, so one exact primitive lives here:
`gaussian_moments`, the moments int_a^b z^k pdf(z) dz (k = 0..3) of a list
of cells.  An integral is then a sum of per-cell polynomial coefficients
times these moments.  Its row 0, the cell masses, is `cell_masses`: erfc
differences, or, on a partition of cells at most 2**-10 wide, a midpoint
series with one exp per cell and no erfc.

Two kinds of caller, two arithmetics.  Few-cell work (profiles of a few
dozen cells, one integral at a time) runs on Python floats with `math`:
`gaussian_moments` returns lists of floats from one loop over the edges,
one math.exp and one signed math.erfc per edge, and `gaussian_pdf` of a
float is a float.  Grid work (the LP's thousands of cells) runs on numpy
arrays: it needs only masses and first moments, and takes `cell_masses` and
`gaussian_pdf` of an ndarray of edges.  The erfc difference on floats is
`_erfc_masses`, which `cell_masses` takes on wide cells, and
`gaussian_moments` inlines the same expression; the midpoint series is
numpy only, and a partition narrow enough for it is the one case where
`gaussian_moments` hands its masses to `cell_masses`, which decides the
regime.  Outside it each cell's moments depend on its two edges alone, so
a caller may integrate a few cells of a partition in a call of their own
and get the bits of one call on the whole of it; `erfc_only` tells it, from
a call's cell count and end edges, that the call will take erfc.

Both grid kernels also write into arrays the caller gives:
`gaussian_pdf(z, out=...)` and `cell_masses_into(edges, out, work)`, whose
series keeps every intermediate in out and four rows of work.  The grid LP
passes rows of the work block it keeps per thread for its last grid size
(7 rows of n + 1 floats, 0.92 MB at 16384 cells): new arrays on every call
cost it 153 minor page faults per call, as glibc gave the freed heap back
to the OS and the next call faulted it in again, and the block brings that
to 0.1.  `cell_masses` returns a new array, through the same code.

The adaptive Gauss-Legendre panel rule is kept as an independent oracle: the
tests check the closed forms against it, and the `closed_form_vs_quadrature`
verification check does the same at run time.  Integrands are piecewise
smooth with known kink locations; panels are aligned with the kinks, which
restores spectral accuracy of the fixed-order rule inside each panel.  Its
nodes and weights are literals, so numpy.polynomial is never imported.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
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


def _pdf_float(z: float) -> float:
    return math.exp(-0.5 * z * z) * INV_SQRT_2PI


def gaussian_pdf(z, out: np.ndarray | None = None):
    """Standard Gaussian density; accepts a float or an ndarray.

    For an ndarray z the density is written into out (an array of z's shape)
    when one is given, else into a new array, by the same operations in the
    same order as _pdf_float: ((-0.5 z) z), exp, times 1/sqrt(2 pi).
    """
    if isinstance(z, np.ndarray):
        if not np.all(np.isfinite(z)):
            raise DomainError("gaussian_pdf requires finite input")
        out = np.multiply(z, -0.5, out=out)
        out *= z
        np.exp(out, out=out)
        out *= INV_SQRT_2PI
        return out
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"gaussian_pdf requires finite input, got {z}")
    return _pdf_float(z)


def gaussian_cdf(t: float) -> float:
    """Standard Gaussian CDF via erfc, accurate in both tails."""
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


# pdf(z) and Phi(-|z|) underflow to exactly 0.0 for |z| >= 38.6, so clipping
# edges (infinite ones included) to +-40 leaves every moment unchanged.
_EDGE_CLIP = 40.0

# Widest cell whose mass cell_masses takes from the midpoint series.
_SERIES_MAX_WIDTH = 2.0 ** -10


def _may_take_series(edges) -> bool:
    """Cheap necessary test for cell_masses' midpoint series: the edges span
    at most n * 2**-10 inside [-40, 40].  The bounds keep +-inf (and
    inf - inf) out."""
    n = len(edges) - 1
    return bool(n > 0 and -_EDGE_CLIP <= edges[0] and edges[-1] <= _EDGE_CLIP
                and edges[-1] - edges[0] <= n * _SERIES_MAX_WIDTH)


def erfc_only(n: int, lo: float, hi: float) -> bool:
    """Whether gaussian_moments of n cells from edge lo to edge hi takes
    every mass from erfc, whatever the widths of the cells between: clipped
    to +-40, as gaussian_moments clips them, the edges span more than
    n * 2**-10, so some cell is wider than the midpoint series allows.  A
    False only means the series may apply.  (Where the difference below is
    positive it is the clipped span: lo < 40 and hi > -40 there.)"""
    return min(hi, _EDGE_CLIP) - max(lo, -_EDGE_CLIP) > n * _SERIES_MAX_WIDTH


def _erfc_masses(edges: list[float]) -> list[float]:
    """Cell masses as Phi differences on floats, one math.erfc per edge.

    2 Phi(e) - 1 = sign(e) (1 - erfc(|e| / sqrt 2)), with the two parts
    differenced separately: for a cell on one side of 0 the sign parts
    cancel exactly and only the erfc values of that tail are subtracted, so
    far-tail cells keep their relative accuracy.
    """
    erfc = math.erfc
    s = [(e > 0.0) - (e < 0.0) for e in edges]
    s_erfc = [si * erfc(abs(e) / _SQRT2) for si, e in zip(s, edges)]
    return [0.5 * ((s1 - s0) - (t1 - t0))
            for s0, s1, t0, t1 in zip(s, s[1:], s_erfc, s_erfc[1:])]


def cell_masses(edges) -> np.ndarray:
    """Gaussian mass I_0 = Phi(e_{i+1}) - Phi(e_i) of every cell, as an array.

    edges is a nondecreasing array of n + 1 cell edges, which may start at
    -inf and end at +inf; returns the n masses in a new array, from
    cell_masses_into (regimes and accuracy are described there).  The grid
    LP calls cell_masses_into itself, with rows of the work block it keeps
    per thread for the last grid size (0.92 MB at 16384 cells), since new
    intermediates on every call cost it 153 minor page faults per call.
    """
    edges = np.asarray(edges, dtype=float)
    return cell_masses_into(edges, np.empty(max(len(edges) - 1, 0)))


def cell_masses_into(edges: np.ndarray, out: np.ndarray,
                     work: np.ndarray | None = None) -> np.ndarray:
    """cell_masses(edges) written into out, an array of the n cells' length;
    returns out.

    Like mills_ratio it has two regimes, chosen once per call.

    A partition of [-40, 40] whose every cell is at most W = 2**-10 wide (a
    grid of a few thousand cells or more) takes the midpoint series
    I_0 = h pdf(m) sum_{n=0..3} He_{2n}(m) (h/2)^{2n} / (2n+1)!, with m the
    cell's midpoint and h its width: pdf(m + t) = pdf(m) sum_k He_k(m)
    (-t)^k / k! integrated over |t| <= h/2, where the odd terms cancel.  The
    first omitted term, n = 4, is at most max |He_8| (h/2)^8 / 9! <=
    40^8 2^-88 / 9! relative to pdf on the cell, whose extremes differ by at
    most exp(40 W) = 1.04: below 6.1e-20, 1/1800 ulp (three terms would
    leave 1.1e-14).  One exp per cell and no erfc; the result is within a
    few ulp of the mass of [m - h/2, m + h/2] once the rounding of m * m is
    accounted for, which is pdf's own conditioning (relative error up to
    m^2/2 times 2^-53, as if m moved by half an ulp).  An erfc difference
    across such a cell loses relative accuracy as erfc / (h pdf): up to
    2.4e-12 at grid 16384.  The series runs in place: out and four rows of
    work (a float array of at least 4 rows of n, allocated here when None)
    hold every intermediate, so a caller that passes its own work, as the
    grid LP does, allocates nothing.

    Any other partition takes each mass as the erfc difference of
    _erfc_masses, on Python floats: math.erfc, the function the scalar
    gaussian_cdf calls, once per edge.  A single wide cell sends the whole
    call there, which is cheaper than choosing per cell.
    """
    n = len(out)
    if _may_take_series(edges):
        if work is None:
            work = np.empty((4, n))
        h, mm, t, u = (row[:n] for row in work[:4])
        np.subtract(edges[1:], edges[:-1], out=h)
        if (h <= _SERIES_MAX_WIDTH).all():
            np.add(edges[:-1], edges[1:], out=mm)
            mm *= 0.5
            mm *= mm  # m^2 of the correctly rounded midpoint m
            np.multiply(h, 0.25, out=t)
            t *= h
            # Horner in t; He_2, He_4, He_6 as polynomials in m^2.  s, the
            # sum, is out; u holds each coefficient.
            s = out
            np.subtract(mm, 15.0, out=u)
            u *= mm
            u += 45.0
            u *= mm
            u -= 15.0
            u *= 1.0 / 5040.0
            np.multiply(t, u, out=s)
            np.subtract(mm, 6.0, out=u)
            u *= mm
            u += 3.0
            u *= 1.0 / 120.0
            s += u
            s *= t
            np.subtract(mm, 1.0, out=u)
            u *= 1.0 / 6.0
            s += u
            s *= t
            s += 1.0
            # h pdf(m) s, with pdf(m) = exp(-m^2 / 2) / sqrt(2 pi).
            np.multiply(mm, -0.5, out=u)
            np.exp(u, out=u)
            u *= INV_SQRT_2PI
            u *= h
            s *= u
            return out
    out[:] = _erfc_masses(edges.tolist())
    return out


def gaussian_moments(edges) -> tuple[list[float], list[float], list[float],
                                     list[float]]:
    """Exact moments I_k = int_{e_i}^{e_{i+1}} z^k pdf(z) dz, k = 0..3.

    edges is a nondecreasing sequence of n + 1 cell edges, which may start at
    -inf and end at +inf.  Returns four lists of n Python floats: list k
    holds I_k of every cell.

    I_0 is the cell mass, I_1 = pdf(a) - pdf(b) on each cell [a, b], and the
    higher moments follow from I_k = (k - 1) I_{k-2} + a^{k-1} pdf(a) -
    b^{k-1} pdf(b).

    One loop over the edges: per edge one math.exp for pdf, z pdf and z^2
    pdf and, unless the partition may take cell_masses' midpoint series,
    one signed math.erfc for the mass (_erfc_masses' expression, inlined);
    per cell the four moments; the left edge's values carry over to the
    next cell.  On 20 edges that is 10.2 us a call against 18.4 us for the
    nine list passes it replaced (2-vCPU VM), with the same bits.
    """
    e = list(map(float, edges))
    # The edges are sorted, so those beyond +-40 are a prefix and a suffix.
    lo, hi = bisect_left(e, -_EDGE_CLIP), bisect_right(e, _EDGE_CLIP)
    e[:lo] = [-_EDGE_CLIP] * lo
    e[hi:] = [_EDGE_CLIP] * (len(e) - hi)
    if not e:
        return [], [], [], []
    series = iter(cell_masses(e).tolist()) if _may_take_series(e) else None
    exp, erfc = math.exp, math.erfc
    m0: list[float] = []
    m1: list[float] = []
    m2: list[float] = []
    m3: list[float] = []
    a = e[0]
    pa = exp(-0.5 * a * a) * INV_SQRT_2PI
    za = a * pa
    zza = a * za
    sa = (a > 0.0) - (a < 0.0)
    ta = sa * erfc(abs(a) / _SQRT2) if series is None else 0.0
    for b in e[1:]:
        pb = exp(-0.5 * b * b) * INV_SQRT_2PI
        zb = b * pb
        zzb = b * zb
        if series is None:
            sb = (b > 0.0) - (b < 0.0)
            tb = sb * erfc(abs(b) / _SQRT2)
            i0 = 0.5 * ((sb - sa) - (tb - ta))
            sa, ta = sb, tb
        else:
            i0 = next(series)
        i1 = pa - pb
        m0.append(i0)
        m1.append(i1)
        m2.append(i0 + (za - zb))
        m3.append(2.0 * i1 + (zza - zzb))
        pa, za, zza = pb, zb, zzb
    return m0, m1, m2, m3


def dedupe_edges(points, lo: float, hi: float) -> list[float]:
    """Sorted interior points of (lo, hi), duplicates within 1e-15 merged."""
    return merge_sorted_edges(sorted(map(float, points)), lo, hi)


def merge_sorted_edges(points, lo: float, hi: float) -> list[float]:
    """dedupe_edges of points that are already sorted floats, with no sort:
    the interior points of (lo, hi), each kept when it lies more than 1e-15
    above the last one kept."""
    out: list[float] = []
    for p in points:
        if lo < p < hi and (not out or p - out[-1] > 1e-15):
            out.append(p)
    return out


# Fixed-order Gauss-Legendre nodes and weights for the panel rule (7 vs 15
# points gives the per-panel error estimate): the repr of numpy 2.4.6's
# np.polynomial.legendre.leggauss(7) and (15), written out so that no
# process imports numpy.polynomial for them (2.6-7.3 ms in a fresh process
# on a 2-vCPU VM).
# Every entry lies within 64 ulp of the 200-bit Gauss-Legendre value
# (tests/test_gauss.py).
_X7 = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586])
_W7 = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
    0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
    0.12948496616886973])
_X15 = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854])
_W15 = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203])
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

    edges = [a, *dedupe_edges(kinks, a, b), b]

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

