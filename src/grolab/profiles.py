"""Piecewise-constant profiles and the moment-constrained 1-D maximization.

A Profile is a conditional-expectation function theta: R -> [-1, 1] given by
piecewise-constant values on an inner window plus symbolic tails (sign(z) or
per-side constants).  The operations here evaluate the primal objective V,
its dual certificate, the exact optimality-gap tail integral, the discretized
bathtub maximizer, and the repair projection onto the maximizer set.

The objective F(alpha) = D(-alpha) (F_value) is dual_value's closed form.
It is the LP optimum where |_dual_anchor| <= 1, the one attainment test
(F_value_dual, gap_certificate), and only an upper bound elsewhere.

Every integral here is a piecewise polynomial of degree <= 3 times the
Gaussian density: the line is cut into cells on which theta is constant and
the other factors are polynomials, and the integral is the sum over cells of
the per-cell coefficients times gauss.gaussian_moments.  The dual
functional's kinks are fixed points rather than profile breakpoints, so
dual_value is a closed form instead.

A Profile is cut and integrated once: its cell table (Profile._cell_table,
built on first use) holds the cells of the whole line, each with its
midpoint, theta and four moments.  The full-line moments are fsums over it,
a window's moments a slice of it (_window_cells), and an integral with
kinks of its own (+-eta for V_value and the gap certificate, the cubic
roots of the perturbed norm) the table cut at them (_splice): only the
cells a kink splits are integrated afresh.  Each gives the bits that
cutting the whole line and integrating every cell (_reference_cells) would
give; where that is not certain (a kink within 1e-15 of an edge, a
partition that may take gauss' midpoint series) it takes that path.

A profile has a few dozen cells at most in every check except a loaded LP
file, so profiles and their integrals are on Python floats: a Profile keeps
tuples, cell lookup is bisect, and every per-cell sum is math.fsum, whose
result is the correctly rounded sum of the terms (independent of order and
of any BLAS kernel, and exact enough for a 16384-cell profile).  Only the
grid LP (_lp_cells, lp_maximize) runs on numpy arrays, on its thousands of
cells; Profile.evaluate also takes an ndarray, for the quadrature oracle.

The grid LP runs in place, in one work block per thread kept for the last
grid size (_lp_work): 7 rows of grid_size + 1 floats, 0.92 MB at grid 16384.
Allocated afresh on every call, its ten or so full-size arrays made glibc
give the freed heap back to the OS after each call and fault it in again on
the next: 153 minor page faults per call in a benchmark-like loop.  With the
block it is 0.1.
"""

from __future__ import annotations

import math
import operator
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .baseline import LAMBDA_STAR, ReedsParams, solve_eta_star, solve_h
from .errors import DomainError, FeasibilityError, InternalCheckError
from .gauss import (INV_SQRT_2PI, cell_masses, cell_masses_into,
                    dedupe_edges, erfc_only, first_moments, gaussian_cdf,
                    gaussian_moments, gaussian_pdf, merge_sorted_edges)

SIGN_TAILS = "sign"
CONST_TAILS = "const"

# Absolute tolerance on the moment constraint; well below every gap bound.
FEASIBILITY_TOL = 1e-10
# Dual value minus primal value must reproduce the tail integral this tightly.
CERTIFICATE_TOL = 1e-8


@dataclass(frozen=True)
class Profile:
    """theta: piecewise constant on (-z_cut, z_cut), symbolic tails outside.

    breakpoints are the interior cell boundaries (strictly increasing, inside
    the window); values has one entry per cell, len(breakpoints) + 1 total.
    Both are stored as tuples of Python floats, whatever sequence or array
    was passed; the cell edges and the values padded with both tails are
    also kept once as tuples, for evaluate and edges.  The cell table and
    the full-line moments are computed on first use and kept too.
    """

    z_cut: float
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    tail_rule: str = SIGN_TAILS
    tail_values: tuple[float, float] = (-1.0, 1.0)
    _edges: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _table: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z_cut = float(self.z_cut)
        if not (math.isfinite(z_cut) and z_cut > 0.0):
            raise DomainError(f"z_cut must be positive, got {z_cut}")
        bp = tuple(map(float, self.breakpoints))
        vals = tuple(map(float, self.values))
        if len(vals) != len(bp) + 1:
            raise DomainError(
                f"need len(values) == len(breakpoints) + 1, got {len(vals)} vs {len(bp)}"
            )
        edges = (-z_cut, *bp, z_cut)
        # Strictly increasing edges <=> breakpoints inside the window and
        # strictly increasing (NaN fails every comparison); the slow branch
        # only picks the message.
        if not all(map(operator.lt, edges, edges[1:])):
            if not all(-z_cut < b < z_cut for b in bp):
                raise DomainError("breakpoints must lie strictly inside (-z_cut, z_cut)")
            raise DomainError("breakpoints must be strictly increasing")
        if not all(abs(v) <= 1.0 + 1e-15 for v in vals):  # NaN fails too
            raise DomainError("profile values must lie in [-1, 1]")
        if self.tail_rule not in (SIGN_TAILS, CONST_TAILS):
            raise DomainError(f"unknown tail rule {self.tail_rule!r}")
        if self.tail_rule == SIGN_TAILS:
            tv = (-1.0, 1.0)
        else:
            tv = (float(self.tail_values[0]), float(self.tail_values[1]))
            if not all(abs(v) <= 1.0 for v in tv):
                raise DomainError("tail constants must lie in [-1, 1]")
        object.__setattr__(self, "z_cut", z_cut)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tail_values", tv)
        object.__setattr__(self, "_edges", edges)
        # theta on (-inf, edges[0]), the cells, [edges[-1], inf): entry k
        # holds for the z with k edges <= z.
        object.__setattr__(self, "_table", (tv[0], *vals, tv[1]))

    @property
    def edges(self) -> tuple[float, ...]:
        """All cell boundaries including +-z_cut."""
        return self._edges

    def evaluate(self, z):
        """theta(z) for any real z (tails included): a float for a float z,
        an ndarray for an array."""
        if isinstance(z, (float, int)):
            return self._table[bisect_right(self._edges, z)]
        return np.array(self._table)[np.searchsorted(self._edges, z,
                                                     side="right")]

    @cached_property
    def _cell_table(self) -> "Cells":
        """The profile's cells over the whole line with their midpoints,
        theta and moments, computed on first use and read-only: what
        _reference_cells(self) gives, but cut at the edges as they are, with
        the 1e-15 merge and no sort (the edges are strictly increasing)."""
        edges, mid = _partition_sorted(self._edges, math.inf)
        return Cells(tuple(edges), tuple(zip(mid, _theta_at(self, mid),
                                             *gaussian_moments(edges))))

    @cached_property
    def _moments(self) -> tuple[float, float, float, float]:
        """theta_moments over the whole line: fsums over the cell table."""
        return _fsum_moments(self._cell_table.rows)

    @classmethod
    def constant(cls, value: float, z_cut: float, tail_rule: str = SIGN_TAILS,
                 tail_values=(-1.0, 1.0)) -> "Profile":
        return cls(z_cut=z_cut, breakpoints=(), values=(value,),
                   tail_rule=tail_rule, tail_values=tail_values)

    @classmethod
    def from_grid(cls, values, z_cut: float, tail_rule: str = SIGN_TAILS,
                  tail_values=(-1.0, 1.0)) -> "Profile":
        """Uniform-cell profile over (-z_cut, z_cut)."""
        values = tuple(float(v) for v in values)
        return cls(z_cut=z_cut,
                   breakpoints=_grid_edges(len(values), z_cut)[1:-1],
                   values=values, tail_rule=tail_rule, tail_values=tail_values)


def _grid_edges(n: int, z_cut: float) -> list[float]:
    """The n + 1 edges of Profile.from_grid's n uniform cells on
    (-z_cut, z_cut)."""
    z_cut = float(z_cut)
    return [-z_cut, *(-z_cut + 2.0 * z_cut * i / n for i in range(1, n)),
            z_cut]


def _sign(x: float) -> int:
    """sign(x) in {-1, 0, 1}, like np.sign on a float."""
    return (x > 0.0) - (x < 0.0)


def _partition(points, window: float = math.inf):
    """Cells of (-window, window) cut at the points inside it.

    Returns (edges, mid): the n + 1 cell edges, infinite at both ends when
    the window is, and a point inside each cell, as lists of floats.
    """
    return _partition_sorted(sorted(map(float, points)), window)


def _partition_sorted(points, window: float):
    """_partition of points that are already sorted floats: no sort."""
    edges = [-window, *merge_sorted_edges(points, -window, window), window]
    mid = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    if math.isinf(window):
        mid[0], mid[-1] = edges[1] - 1.0, edges[-2] + 1.0
    return edges, mid


def _theta_at(profile: Profile, zs) -> list[float]:
    """theta at each of the floats zs: Profile.evaluate's lookup."""
    table, cuts = profile._table, profile._edges
    return [table[bisect_right(cuts, z)] for z in zs]


def _cells(profile: Profile, kinks=(), window: float = math.inf):
    """Cells of (-window, window) on which theta is constant, also cut at kinks.

    Returns (edges, mid, theta) with theta the profile's value on each cell.
    """
    edges, mid = _partition(
        [*profile.breakpoints, -profile.z_cut, profile.z_cut, *kinks], window)
    return edges, mid, _theta_at(profile, mid)


class Cells(NamedTuple):
    """Cells on which theta is constant: the n + 1 edges, and one row per
    cell, (mid, theta, m0, m1, m2, m3): a point inside it (the midpoint, or
    an edge -+ 1 for an infinite cell), theta there and the moments
    m_k = int z^k pdf over it (gaussian_moments' rows).  Rows, not columns,
    so that a splice copies one sequence, not six."""

    edges: Sequence[float]
    rows: Sequence[tuple[float, float, float, float, float, float]]


def _fsum_moments(rows) -> tuple[float, float, float, float]:
    """(fsum of theta m_k over the rows)_{k=0..3}."""
    _, theta, *moments = zip(*rows)
    return tuple(math.fsum(map(operator.mul, m, theta)) for m in moments)


def _reference_cells(profile: Profile, kinks=(),
                     window: float = math.inf) -> Cells:
    """_cells and one gaussian_moments call on them: the reference path that
    _splice and _window_cells reproduce bit for bit, and their fallback."""
    edges, mid, theta = _cells(profile, kinks, window)
    return Cells(edges, list(zip(mid, theta, *gaussian_moments(edges))))


def _splice(profile: Profile, kinks) -> Cells | None:
    """The profile's cell table cut at kinks too: _reference_cells(profile,
    kinks) to the bit, with only the cells a kink splits integrated afresh.

    A cell's moments are a function of its two edges alone, unless
    gaussian_moments takes the midpoint series, which it decides for the
    whole call; so the split cells' pieces are taken in one call on their
    edges, and every other cell keeps the table's row.  The kinks are merged
    among themselves as the reference merges them (dedupe_edges), and one
    equal to a table edge cuts nothing.  Returns None, for the reference to
    be taken instead, where the bits could differ:
    - a kink within 1e-15 of a table edge: the reference's 1e-15 merge may
      then keep the kink and drop the edge, or a profile breakpoint that
      the table merged away;
    - a partition (the whole cut line, or the pieces' call) on which
      gaussian_moments may take the series: 81920 cells or more on the
      line, or split cells spanning at most 2**-10 per piece.
    """
    table = profile._cell_table
    edges = table.edges
    if not erfc_only(len(edges) - 1 + len(kinks), -math.inf, math.inf):
        return None
    cuts: list[float] = []  # each split cell's edges and kinks, in turn
    split: list[tuple[int, int]] = []  # (table cell, number of pieces)
    last = -math.inf  # dedupe_edges' merge of the kinks, inline
    for k in sorted(map(float, kinks)):
        if not (-math.inf < k < math.inf and k - last > 1e-15):
            continue
        last = k
        j = bisect_right(edges, k) - 1  # edges[j] <= k < edges[j + 1]
        a, b = edges[j], edges[j + 1]
        if a == k:
            continue
        if k - a <= 1e-15 or b - k <= 1e-15:
            return None
        if split and split[-1][0] == j:
            cuts.insert(-1, k)
            split[-1] = (j, split[-1][1] + 1)
        else:
            cuts += (a, k, b)
            split.append((j, 2))
    if not split:
        return table
    if not erfc_only(len(cuts) - 1, cuts[0], cuts[-1]):
        return None
    # One call for every piece; the gap between two split cells is a cell
    # of the call too, and is skipped.
    mid = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
    if cuts[0] == -math.inf:
        mid[0] = cuts[1] - 1.0
    if cuts[-1] == math.inf:
        mid[-1] = cuts[-2] + 1.0
    pieces = list(zip(mid, _theta_at(profile, mid), *gaussian_moments(cuts)))
    rows = table.rows
    out = Cells([], [])
    start = pos = 0  # next table cell to copy; next cell of the call
    for j, n in split:
        out.edges.extend(edges[start:j + 1])
        out.edges.extend(cuts[pos + 1:pos + n])
        out.rows.extend(rows[start:j])
        out.rows.extend(pieces[pos:pos + n])
        start, pos = j + 1, pos + n + 1
    out.edges.extend(edges[start:])
    out.rows.extend(rows[start:])
    return out


def _cut_cells(profile: Profile, kinks) -> Cells:
    """The profile's cells over the whole line, also cut at kinks."""
    return _splice(profile, kinks) or _reference_cells(profile, kinks)


def _window_cells(profile: Profile, window: float) -> Cells | None:
    """_reference_cells(profile, window=window) to the bit, as the slice of
    the table cut at +-window (_splice) between them; None where the bits
    could differ.

    The window's own partition restarts the 1e-15 merge at -window: its
    first point inside is kept however close to -window, where the line's
    merge drops it.  So a profile edge within 1e-15 above -window, a window
    the splice cannot cut, and a window partition on which gaussian_moments
    may take the series (a 16384-cell grid profile's own window, or any
    window no wider than 2**-10 a cell, such as one whose kinks +-window
    merge) all return None.
    """
    if not 0.0 < window < math.inf:
        return None
    cells = _splice(profile, (-window, window))
    if cells is None:
        return None
    edges = cells.edges
    lo, hi = bisect_left(edges, -window), bisect_left(edges, window)
    cuts = profile._edges
    first = bisect_right(cuts, -window)  # the first profile edge inside
    if first < len(cuts) and cuts[first] < window \
            and cuts[first] - (-window) <= 1e-15:
        return None
    if not erfc_only(hi - lo, -window, window):
        return None
    return Cells(edges[lo:hi + 1], cells.rows[lo:hi])


def _window_moments(profile: Profile, window: float) -> tuple[float, ...]:
    """theta_moments over (-window, window) on the window's own partition:
    the reference for theta_moments' slice of the cell table."""
    return _fsum_moments(_reference_cells(profile, window=window).rows)


def theta_moments(profile: Profile,
                  window: float = math.inf) -> tuple[float, float, float, float]:
    """(int theta(z) z^k pdf(z) dz over |z| < window)_{k=0..3}, exactly.

    Sums over the profile's cell table.  With the default infinite window
    the symbolic tails are included and the profile's own copy is returned:
    a Profile is immutable, so its full-line moments are computed once.  A
    finite window is the table's slice between +-window, cut there when they
    are not profile edges (_window_cells), or, where that slice could differ
    from the window's own partition in the last bit, that partition
    (_window_moments).
    """
    if window == math.inf:
        return profile._moments
    cells = _window_cells(profile, window)
    if cells is None:
        return _window_moments(profile, window)
    return _fsum_moments(cells.rows)


def h3_moment(m) -> float:
    """int theta H3 pdf, with H3(z) = z^3 - 3 z, from theta_moments' m over
    the same window: m_3 - 3 m_1, signed."""
    return m[3] - 3.0 * m[1]


def _rebuild(profile: Profile, window: float, extra_edges=(),
             override=None) -> Profile:
    """Profile restricted to (-window, window) with sign tails, optional cell
    override.

    override(mid) may return a replacement value for the cell centered at mid,
    or None to keep theta(mid).
    """
    edges, mids, vals = _cells(profile, kinks=extra_edges, window=window)
    if override is not None:
        vals = [v if (o := override(m)) is None else o
                for m, v in zip(mids, vals)]
    return Profile(z_cut=window, breakpoints=edges[1:-1],
                   values=[min(1.0, max(-1.0, v)) for v in vals])


# -- pointwise kernels -------------------------------------------------------

def A_B_eval(z, params: ReedsParams):
    """The even/odd split (A, B) of |alpha z -+ lambda|.

    A = (|alpha z - lambda| + |alpha z + lambda|) / 2 is even in z and
    B = (|alpha z - lambda| - |alpha z + lambda|) / 2 is odd.
    """
    az = params.alpha * np.asarray(z, dtype=float)
    plus = np.abs(az + params.lam)
    minus = np.abs(az - params.lam)
    a = 0.5 * (minus + plus)
    b = 0.5 * (minus - plus)
    if np.ndim(z) == 0:
        return float(a), float(b)
    return a, b


def _int_A_full(lam: float, alpha: float, tail_eta: float,
                pdf_eta: float) -> float:
    """int_R A(z) pdf(z) dz in closed form at (lambda, alpha), given tail_eta
    = Phi(-eta) and pdf_eta = pdf(eta) at eta = lambda / alpha."""
    return lam * (1.0 - 2.0 * tail_eta) + 2.0 * alpha * pdf_eta


# -- moments and objective ---------------------------------------------------

def moment(profile: Profile) -> float:
    """First Gaussian moment int z theta(z) pdf(z) dz, tails included."""
    return theta_moments(profile)[1]


def check_feasible(profile: Profile, params: ReedsParams) -> None:
    """Raise FeasibilityError unless moment(profile) is params.alpha within
    FEASIBILITY_TOL."""
    m = moment(profile)
    residual = m - params.alpha
    if abs(residual) > FEASIBILITY_TOL:
        raise FeasibilityError(
            f"profile moment {m:.15g} != alpha {params.alpha:.15g}",
            residual=residual,
        )


def _eta_cells(profile: Profile, eta: float):
    """The rows (mid, theta, m0..m3) of the profile's cells cut at +-eta,
    where A and B change form: the partition V_value and gap_tail_integral
    sum over.  It is the cell table with the one or two cells that +-eta
    split integrated afresh (_cut_cells), and the table itself when +-eta
    are profile edges, as at a member's z_cut = eta*."""
    return _cut_cells(profile, (-eta, eta)).rows


def _V_sum(rows, params: ReedsParams) -> float:
    lam, alpha, eta = params.lam, params.alpha, params.eta
    # A = lambda, B = -alpha z inside (-eta, eta); A = alpha |z|, B = -lambda
    # sign(z) outside.
    terms = []
    for z, t, i0, i1, _, _ in rows:
        if abs(z) < eta:
            terms += (lam * i0, -alpha * t * i1)
        else:
            s = _sign(z)
            terms += (-lam * s * t * i0, alpha * s * i1)
    return math.fsum(terms)


def V_value(profile: Profile, params: ReedsParams) -> float:
    """Primal objective V(theta) = int (A + theta B) pdf.

    Evaluated whether or not theta meets the moment constraint; feasibility
    is the caller's concern (see gap_certificate).
    """
    return _V_sum(_eta_cells(profile, params.eta), params)


# 1/sqrt(2 pi) - INV_SQRT_2PI, the rounding error of the float pdf(0)
# (300-bit mpmath; tests/test_profiles.py recomputes it).
_INV_SQRT_2PI_LO = -2.49232720227773e-17


def dual_value(mu: float, params: ReedsParams) -> float:
    """Dual functional D(mu) = int A pdf + mu alpha + int |B - mu z| pdf.

    |B - mu z| is even, with B = -alpha z on |z| < eta and -lambda sign(z)
    beyond, so in closed form

        D(mu) = int A pdf + mu alpha
                + 2 [|alpha + mu| (pdf(0) - pdf(eta)) + outer(mu)],

    where outer(mu) = int_eta^inf |lambda + mu z| pdf.  lambda + mu z keeps
    one sign on (eta, inf) unless -alpha < mu < 0, when it changes sign at
    w = lambda / |mu| > eta.  A w that overflows (mu within ~1e-309 of 0)
    leaves no mass beyond it, as for mu >= 0.  A non-finite mu raises
    DomainError.

    Where lambda + mu z keeps one sign, D is linear in mu, and it is summed
    in that form, so no terms of size |mu| cancel (they would lose ~|mu|
    ulp):

        mu >= 0:      D = lambda + 2 alpha pdf(0) + mu (alpha + 2 pdf(0)),
        mu <= -alpha: D = lambda (1 - 4 Phi(-eta)) + 4 alpha pdf(eta)
                          - 2 alpha pdf(0) + mu (alpha - 2 pdf(0)),

    with pdf(0) = INV_SQRT_2PI; the first needs no erfc at all.  Near the
    Reeds point alpha = 2 pdf(eta), so the second slope cancels to about
    -pdf(0) eta^2; it is taken with the rounding error of INV_SQRT_2PI
    added back, or that error (0.45 ulp) would come back |mu| / eta^2 times.
    """
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"dual_value requires finite mu, got {mu}")
    return _dual(mu, params.lam, params.alpha)


def _dual(mu: float, lam: float, alpha: float) -> float:
    """dual_value's closed form at (lambda, alpha), for a finite float mu: no
    ReedsParams is built or checked, so F_value's scans pay for neither."""
    eta = lam / alpha  # ReedsParams.eta
    if mu >= 0.0 or math.isinf(w := lam / -mu):
        return lam + 2.0 * alpha * INV_SQRT_2PI + mu * (alpha + 2.0 * INV_SQRT_2PI)
    tail_eta, pdf_eta = gaussian_cdf(-eta), gaussian_pdf(eta)
    if mu <= -alpha:
        slope = (alpha - 2.0 * INV_SQRT_2PI) - 2.0 * _INV_SQRT_2PI_LO
        return (lam * (1.0 - 4.0 * tail_eta) + 4.0 * alpha * pdf_eta
                - 2.0 * alpha * INV_SQRT_2PI + mu * slope)
    tail_w, pdf_w = gaussian_cdf(-w), gaussian_pdf(w)
    outer = (lam * (tail_eta - tail_w) + mu * (pdf_eta - pdf_w)
             - (lam * tail_w + mu * pdf_w))
    inner = (alpha + mu) * (INV_SQRT_2PI - pdf_eta)
    return (_int_A_full(lam, alpha, tail_eta, pdf_eta) + mu * alpha
            + 2.0 * (inner + outer))


def F_value(alpha: float, lam: float) -> float:
    """F(alpha) = D(-alpha) at (lambda, alpha): the LP optimum where the dual
    is attained at mu = -alpha (F_value_dual), an upper bound on it
    elsewhere.  At the Reeds point it is reeds_denominator(lambda).

    lambda and alpha must lie in (0, 1), as in ReedsParams; the value is
    _dual's, the closed form dual_value takes, with no ReedsParams built.
    """
    alpha, lam = float(alpha), float(lam)
    if not (0.0 < lam < 1.0 and 0.0 < alpha < 1.0):
        raise DomainError(
            f"F_value requires lambda and alpha in (0, 1), got {lam}, {alpha}")
    return _dual(-alpha, lam, alpha)


def _dual_anchor(params: ReedsParams) -> float:
    """The interpolation coefficient placing the attaining profile in [-1, 1].

    A flat inner profile a*sign(z) with sign tails at eta has moment
    2 pdf(eta) + 2 a (pdf(0) - pdf(eta)); the dual value at mu = -alpha is
    attained exactly when that moment can reach alpha with |a| <= 1.
    """
    pdf_eta = gaussian_pdf(params.eta)
    return (params.alpha - 2.0 * pdf_eta) / (2.0 * (INV_SQRT_2PI - pdf_eta))


def F_value_dual(params: ReedsParams) -> float:
    """Optimal value of the moment-constrained maximization, D(-alpha).

    Offered exactly where a feasible profile attains it (|_dual_anchor| <= 1);
    elsewhere D(-alpha) is only an upper bound, and this raises DomainError.
    """
    a = _dual_anchor(params)
    if abs(a) > 1.0:
        raise DomainError(
            f"dual certificate is not attained at mu = -alpha for these "
            f"params (anchor {a:.6g}, need |anchor| <= 1)"
        )
    return dual_value(-params.alpha, params)


@dataclass(frozen=True)
class GapCertificate:
    """Primal value, dual value, their gap, and the independent tail integral."""

    primal_V: float
    dual_D: float
    gap: float
    tail_integral: float
    mu: float

    def __post_init__(self):
        if self.gap < -CERTIFICATE_TOL:
            raise InternalCheckError(
                f"negative optimality gap {self.gap}; duality violated"
            )
        if abs(self.gap - self.tail_integral) > CERTIFICATE_TOL:
            raise InternalCheckError(
                f"gap {self.gap} disagrees with tail integral {self.tail_integral}"
            )


def _gap_tail_sum(rows, params: ReedsParams) -> float:
    lam, alpha, eta = params.lam, params.alpha, params.eta
    terms = []
    for z, t, i0, i1, _, _ in rows:
        if abs(z) > eta:
            s = _sign(z)
            defect = 1.0 - t * s
            terms += (-lam * defect * i0, alpha * defect * s * i1)
    return math.fsum(terms)


def gap_tail_integral(profile: Profile, params: ReedsParams) -> float:
    """int_{|z|>eta} (alpha |z| - lambda)(1 - theta(z) sign(z)) pdf(z) dz."""
    return _gap_tail_sum(_eta_cells(profile, params.eta), params)


def gap_certificate(profile: Profile, params: ReedsParams) -> GapCertificate:
    """Optimality certificate for a feasible profile.

    Feasibility means the first moment matches params.alpha within tolerance;
    the returned gap F - V is cross-checked against the closed tail integral.
    V_value and gap_tail_integral are summed over one shared partition.
    """
    check_feasible(profile, params)
    F = F_value_dual(params)
    rows = _eta_cells(profile, params.eta)
    V = _V_sum(rows, params)
    tail = _gap_tail_sum(rows, params)
    return GapCertificate(primal_V=V, dual_D=F, gap=F - V, tail_integral=tail,
                          mu=-params.alpha)


# -- discretized maximization (bathtub fill) ---------------------------------

# lp_maximize's full-size arrays, for the last grid size seen on each thread.
_lp_local = threading.local()


def _lp_work(grid_size: int) -> np.ndarray:
    """This thread's 7 x (grid_size + 1) float block for lp_maximize.

    Rows: the edges; then _lp_cells' a, c, edge pdf and three scratch rows,
    which lp_maximize reuses for |a|, the ratios and theta.
    Only the last grid size's block is kept: another size replaces it.
    """
    work = getattr(_lp_local, "work", None)
    if work is None or work.shape[1] != grid_size + 1:
        _lp_local.work = None  # free the old block before taking the new
        work = _lp_local.work = np.empty((7, grid_size + 1))
    return work


def _linspace(out: np.ndarray, start: float, stop: float) -> np.ndarray:
    """np.linspace(start, stop, len(out)) written into out, bit for bit:
    k * ((stop - start) / (len(out) - 1)) + start for k = 0, 1, ..., with
    stop as the last value.  len(out) >= 2."""
    n = len(out)
    out[:2] = 0.0, 1.0
    k = 2
    while k < n:  # out[k:2k] = out[:k] + k, exact integers
        m = min(k, n - k)
        np.add(out[:m], k, out=out[k:k + m])
        k += m
    out *= (stop - start) / (n - 1)
    out += start
    out[-1] = stop
    return out


def _lp_cells(edges: np.ndarray, eta: float, alpha: float, lam: float,
              work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell integrals a_i = int z pdf and c_i = int B pdf on the grid.

    B = lambda for z < -eta, -alpha z on (-eta, eta) and -lambda for z > eta.
    a is pdf(e_i) - pdf(e_{i+1}) on every cell; the mass (cell_masses) is
    taken only on cells beyond +-eta, where B is constant.  On a fine grid
    (cells at most 2**-10 wide, grid_size >~ 2,600 at the Reeds point) that
    is cell_masses' midpoint series, with no erfc; on a coarser grid it is
    an erfc difference.  Each of -eta and eta splits at most one cell (none
    when it is a grid edge); that cell's pieces are summed left to right
    from 0.0, and every other cell is 0.0 + its own integral, so a -0.0
    integral is stored as +0.0.

    work is a float array of 6 rows of len(edges), or None for a new one:
    a and c are returned in its first two rows, and the other four hold the
    edge densities and the mass series' intermediates.
    """
    n = len(edges) - 1
    if work is None:
        work = np.empty((6, n + 1))
    a, c, pdf = work[0, :n], work[1, :n], work[2]
    scratch = work[2:]  # the mass series' four rows; pdf is spent by then
    gaussian_pdf(edges, out=pdf)
    np.subtract(pdf[:-1], pdf[1:], out=a)
    np.multiply(a, -alpha, out=c)
    lo = int(np.searchsorted(edges, -eta, side="right"))  # e[lo-1] <= -eta < e[lo]
    hi = int(np.searchsorted(edges, eta))                 # e[hi-1] < eta <= e[hi]
    left = cell_masses_into(edges[:lo], c[:lo - 1], scratch)
    left *= lam
    right = cell_masses_into(edges[hi:], c[hi:], scratch)
    right *= -lam
    c += 0.0  # a zero integral is +0.0, never -0.0
    for j in sorted({lo - 1, hi - 1}):
        kinks = [k for k in (-eta, eta) if edges[j] < k < edges[j + 1]]
        if not kinks:
            continue
        cuts = np.array([edges[j], *kinks, edges[j + 1]])
        cut_pdf = gaussian_pdf(cuts)  # np.exp like the grid's, not math.exp
        a_piece = cut_pdf[:-1] - cut_pdf[1:]
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        c_piece = np.where(np.abs(mid) < eta, -alpha * a_piece,
                           -lam * np.sign(mid) * cell_masses(cuts))
        a_sum = c_sum = 0.0
        for x, y in zip(a_piece.tolist(), c_piece.tolist()):
            a_sum += x
            c_sum += y
        a[j], c[j] = a_sum, c_sum
    return a, c


def _lp_walk(ratio: np.ndarray, weight: np.ndarray, total: float,
             target: float) -> tuple[np.ndarray, int, int, float]:
    """The bathtub walk: flip cells in ascending ratio order, ties grouped,
    until the moment would cross the target.

    Flipping cell i moves the moment down by 2 weight[i] from total.  Cells
    whose ratios differ by at most 1e-12 (1 + |r|) from their neighbour in
    the stable order form one group (mirror cells share their ratio exactly);
    the group that would cross target gets the common fraction t instead.
    Returns (order, lo, hi, t): order[:lo] flip fully and order[lo:hi], the
    crossing group, are multiplied by t in [-1, 1].  With no crossing every
    cell flips: lo = hi = len(ratio).

    Only the crossing group and those before it are read, and on the LP
    grids the crossing is the first group (the inner cells, ratio -alpha).
    So the cells within one tie tolerance of the smallest ratio are walked
    first, with the smallest ratio beyond them as a sentinel that closes
    their last group exactly as a sort of every cell would.  Their stable
    order is a prefix of the full stable order, so everything the walk
    returns is the same to the bit.  Only when the crossing is not found in
    that window, or falls in its last group and the sentinel does not close
    it, are all cells sorted and walked.
    """
    r_min = float(ratio.min())
    inside = ratio <= r_min + 1e-12 * (1.0 + abs(r_min))
    if not inside.all():
        window = np.flatnonzero(inside)
        found = _walk_groups(ratio[window], weight[window], total, target,
                             float(np.min(ratio, where=~inside,
                                          initial=np.inf)))
        if found is not None:
            order, lo, hi, t = found
            return window[order], lo, hi, t
    return _walk_groups(ratio, weight, total, target, None)


def _walk_groups(ratio, weight, total, target, sentinel):
    """_lp_walk on the given cells; None if they cannot settle the crossing.

    sentinel is the smallest ratio among the cells left out, or None when
    none are.
    """
    order = np.argsort(ratio, kind="stable")
    sorted_ratio = ratio[order]
    if sentinel is not None:
        sorted_ratio = np.append(sorted_ratio, sentinel)
    new_group = (np.abs(np.diff(sorted_ratio))
                 > 1e-12 * (1.0 + np.abs(sorted_ratio[:-1])))
    n = len(order)
    starts = np.flatnonzero(np.concatenate(([True], new_group[:n - 1])))
    group_drop = np.add.reduceat(2.0 * weight[order], starts)
    # running[k] is the moment before group k flips, subtracted in walk order.
    running = np.subtract.accumulate(np.concatenate(([total], group_drop)))
    crossing = np.flatnonzero(running[1:] < target - 1e-15)
    if crossing.size == 0:
        return None if sentinel is not None else (order, n, n, -1.0)
    k = int(crossing[0])
    last = k + 1 == len(starts)
    if last and sentinel is not None and not new_group[-1]:
        return None  # the group may go on beyond the cells given
    lo = starts[k]
    hi = n if last else starts[k + 1]
    denom = float(np.sum(weight[order[lo:hi]]))
    t = (target - (running[k] - denom)) / denom
    return order, lo, hi, min(1.0, max(-1.0, t))


def lp_maximize(params: ReedsParams, grid_size: int) -> tuple[Profile, float]:
    """Exact solution of the grid-discretized moment-constrained LP.

    Single equality constraint plus box bounds: the maximizer is a bathtub
    fill ordered by objective-per-moment ratio, with one fractional tie
    group found by a parametric threshold.  Sign tails are kept symbolic
    beyond the grid window.  Cell integrals are closed forms taken on the
    grid cells themselves (_lp_cells): the first moment pdf(a) - pdf(b) on
    every cell, and the mass (cell_masses: a midpoint series on a fine grid,
    erfc differences on a coarse one) only on cells beyond +-eta.

    Only the crossing group is sorted (_lp_walk): the cells within one tie
    tolerance of the smallest ratio, which at and near the Reeds point are
    the inner cells (ratio -alpha) and hold the crossing.  When the crossing
    lies beyond them (alpha far from alpha*, e.g. 0.3), all cells are sorted,
    and the result is the same either way.

    The LP is solved on all grid_size cells, and the returned value is
    c . theta over all of them.  The returned profile is the same function
    in canonical form: one cell per run of equal values, so its breakpoints
    are the grid edges where theta changes (a bathtub has a handful).

    Every full-size array lives in this thread's work block (_lp_work),
    kept between calls for the last grid size only: the edges, a, c, the
    edge pdf (later |a|) and three scratch rows (the mass series, then the
    ratios and theta); 7 x 8 x (grid_size + 1) bytes, 0.92 MB at grid
    16384.  Each is written by the same operations in the same order as
    into new arrays, so results are the same to the bit, and none leaves
    the call: the profile and value are copies.  Fresh arrays on every call
    cost 153 minor page faults per call at grid 16384 (glibc returned the
    freed heap to the OS each time); the block brings that to 0.1.
    """
    if grid_size < 64:
        raise DomainError(f"grid_size must be >= 64, got {grid_size}")
    alpha = params.alpha
    if abs(alpha) >= math.sqrt(2.0 / math.pi):
        raise DomainError(f"alpha={alpha} infeasible: |alpha| >= sqrt(2/pi)")
    eta = params.eta
    z_cut = max(eta, solve_h(alpha)) + 1.0
    work = _lp_work(grid_size)
    edges = _linspace(work[0], -z_cut, z_cut)
    a, c = _lp_cells(edges, eta, alpha, params.lam, work[1:])
    # _lp_cells is done with its pdf and scratch rows, 3 to 6.
    abs_a, ratio, theta = work[3:6, :grid_size]

    target = alpha - 2.0 * gaussian_pdf(z_cut)
    np.abs(a, out=abs_a)
    total = abs_a.sum()
    if abs(target) > total + 1e-12:
        raise DomainError("moment target unreachable on this grid")

    # theta_i(mu) = sign(c_i - mu a_i); as mu grows past c_i/a_i the cell's
    # moment contribution drops from |a_i| to -|a_i|.  A zero-moment cell (the
    # symmetric middle cell of an odd grid, where c = 0 too) has no ratio and
    # moves neither the moment nor the value; it stays out of the walk at 0.
    # Without one (every even grid) the walk is every cell: no gather.
    nonzero = abs_a > 0.0
    if nonzero.all():
        order, lo, hi, t = _lp_walk(np.divide(c, a, out=ratio), abs_a, total,
                                    target)
    else:
        walk = np.flatnonzero(nonzero)
        order, lo, hi, t = _lp_walk(c[walk] / a[walk], abs_a[walk], total,
                                    target)
        order = walk[order]

    np.sign(a, out=theta)  # state before any flip; zero-moment cells stay 0
    theta[order[:lo]] *= -1.0
    theta[order[lo:hi]] *= t
    value = (_int_A_full(params.lam, alpha, gaussian_cdf(-eta),
                         gaussian_pdf(eta))
             + float(np.dot(c, theta))
             - 2.0 * params.lam * gaussian_cdf(-z_cut))
    # Canonical form: keep only the grid edges where theta changes.  Bit
    # patterns are compared, so -0.0 and 0.0 stay apart.
    bits = theta.view(np.int64)
    cut = np.flatnonzero(bits[1:] != bits[:-1])
    prof = Profile(z_cut=z_cut, breakpoints=edges[1:-1][cut],
                   values=theta[np.concatenate(([0], cut + 1))])
    return prof, value


# -- constructive projection onto the maximizing set -------------------------

def _repair_threshold(profile: Profile, s: float, eta_star: float,
                      delta: float) -> float:
    """Smallest t with G(t) >= delta for the capacity integral

        G(t) = int_{eta*/2 < |z| < t} z (sign(z) + s theta(z)) pdf dz
             = int_{half}^{t} u [(1 + s theta(u)) + (1 - s theta(-u))] pdf(u) du,

    the negative side folded onto u = -z.  The weight w is constant on each
    folded cell, so G is tabulated cumulatively at the cell edges (each
    entry an fsum of the cells below) and inverted exactly inside the
    crossing cell [c, d]:
        pdf(t) = pdf(c) - r / w  <=>  t^2 = c^2 - 2 log1p(-r / (w pdf(c))),
    with r the part of delta left after the cells below c.
    """
    half = eta_star / 2.0
    cuts = [half, *dedupe_edges(map(abs, profile.breakpoints), half, eta_star),
            eta_star]
    weight = [(1.0 + s * profile.evaluate(m)) + (1.0 - s * profile.evaluate(-m))
              for m in (0.5 * (a + b) for a, b in zip(cuts, cuts[1:]))]
    pieces = list(map(operator.mul, weight, first_moments(cuts)))
    capacity = [math.fsum(pieces[:k]) for k in range(1, len(pieces) + 1)]
    if capacity[-1] < delta - 1e-13:
        raise InternalCheckError(
            f"repair capacity {capacity[-1]} below defect {delta}"
        )
    j = bisect_left(capacity, delta)
    if j == len(capacity):
        return eta_star
    rest = delta - (capacity[j - 1] if j else 0.0)
    c = cuts[j]
    t_sq = c * c - 2.0 * math.log1p(-rest / (weight[j] * gaussian_pdf(c)))
    return min(math.sqrt(t_sq), cuts[j + 1])


def _spaced(profile: Profile) -> bool:
    """Whether the profile's edges lie more than 1e-15 apart: a partition
    of its window merges none of them."""
    edges = profile._edges
    return all(b - a > 1e-15 for a, b in zip(edges, edges[1:]))


def _tails_fixed(profile: Profile, eta_star: float) -> bool:
    """Whether repair_to_theta's step 1 is a no-op on the profile: sign tails
    at z_cut = eta* make the tail cost a sum of 0.0 * mass = 0.0; and with
    values in [-1, 1] (no clipping) and edges more than 1e-15 apart (no
    merge, and each midpoint strictly inside its cell) _rebuild(profile,
    eta*) returns the same breakpoints and values, bit for bit."""
    return (profile.tail_rule == SIGN_TAILS and profile.z_cut == eta_star
            and all(-1.0 <= v <= 1.0 for v in profile.values)
            and _spaced(profile))


def _inner_moment(profile: Profile, eta_star: float) -> float:
    """theta_moments(profile, eta_star)[1], from first_moments on the
    profile's own edges where those are the window's own partition: z_cut
    is eta* and the edges lie more than 1e-15 apart, so the partition merges
    none of them, and each midpoint, inside (-1, 1) as eta* < 1, falls
    strictly inside its cell and reads the cell's value.  Row 1 of
    gaussian_moments is first_moments bit for bit on any partition, so the
    fsum is theta_moments' own.  Elsewhere theta_moments itself."""
    if profile.z_cut == eta_star and _spaced(profile):
        return math.fsum(map(operator.mul, first_moments(profile._edges),
                             profile.values))
    return theta_moments(profile, eta_star)[1]


def repair_to_theta(profile: Profile,
                    lam: float = LAMBDA_STAR) -> tuple[Profile, float]:
    """Project a profile onto the maximizer set: sign tails at eta*, zero
    inner moment.  Returns the repaired profile and the L1 cost of the move.

    Follows the constructive two-step proof: fix the tails first, then flip
    theta toward -sign on a band eta*/2 < |z| < t0 whose capacity absorbs the
    inner-moment defect; t0 solves the capacity equation exactly.
    eta* is tied to the supplied lambda so callers stay on one Reeds point.

    Step 1 is skipped where it is a no-op (_tails_fixed): an input with
    sign tails at exactly eta*, values in [-1, 1] and edges more than 1e-15
    apart, as every sample_theta_member input is, has tail cost 0.0 and is
    its own tail-fixed profile.  Else the tail cost is taken on the input's
    cells cut at +-eta* over the whole line (_cut_cells).

    The tail-fixed profile's inner moment is a first-moment sum over its
    own edges (_inner_moment), with no cell table: the tail-fixed profile
    is discarded unless it already is a member.  The last step's inner
    cost and residual inner moment are a slice of the repaired profile's
    cell table on (-eta*, eta*) (_window_cells), or the window's own
    partition where the slice could differ from it in the last bit.  The
    repaired profile's cells already carry every breakpoint of the
    tail-fixed one (it was cut from its cells), so the tail-fixed profile
    is constant on each of them.  The member returned carries its table on
    to the checks that integrate it next (A_bound_check, the beta scan).
    """
    eta_star = solve_eta_star(lam)

    # Step 1: tail cost int_{|z|>eta*} |sign(z) - theta| pdf and the
    # tail-fixed profile on (-eta*, eta*).
    if _tails_fixed(profile, eta_star):
        fixed, tail_cost = profile, 0.0
    else:
        rows = _cut_cells(profile, (-eta_star, eta_star)).rows
        tail_cost = math.fsum((1.0 - t * _sign(z)) * i0
                              for z, t, i0, _, _, _ in rows
                              if abs(z) > eta_star)
        fixed = _rebuild(profile, eta_star)

    inner = _inner_moment(fixed, eta_star)
    delta = abs(inner)
    if delta <= 1e-15:
        return fixed, tail_cost

    s = 1.0 if inner >= 0.0 else -1.0
    t0 = _repair_threshold(fixed, s, eta_star, delta)
    half = eta_star / 2.0

    def override(mid):
        if half < abs(mid) < t0:
            return -s * math.copysign(1.0, mid)
        return None

    repaired = _rebuild(fixed, eta_star, extra_edges=(-t0, -half, half, t0),
                        override=override)

    # Inner cost int |repaired - fixed| pdf and the residual inner moment,
    # from one partition: repaired's own cells on (-eta*, eta*), on which
    # fixed is constant too.
    rows = (_window_cells(repaired, eta_star)
            or _reference_cells(repaired, window=eta_star)).rows
    inner_cost = math.fsum(abs(t - fixed.evaluate(z)) * i0
                           for z, t, i0, _, _, _ in rows)
    residual = math.fsum(i1 * t for _, t, _, i1, _, _ in rows)
    if abs(residual) > 1e-13:
        raise InternalCheckError(
            f"repair left inner moment {residual}; expected 0"
        )
    return repaired, tail_cost + inner_cost


# -- serialization ------------------------------------------------------------

def profile_to_text(profile: Profile) -> str:
    """Flat text format: z_cut, breakpoints..., values..., tail token."""
    if profile.tail_rule == SIGN_TAILS:
        tail = "sign"
    else:
        left, right = profile.tail_values
        tail = f"const:{left!r}:{right!r}"
    return ",".join((repr(profile.z_cut), *map(repr, profile.breakpoints),
                     *map(repr, profile.values), tail))


def profile_from_text(text: str) -> Profile:
    """Inverse of profile_to_text.

    Whitespace around tokens and empty tokens are ignored; malformed or
    out-of-range input raises DomainError.
    """
    tokens = [t for t in map(str.strip, text.split(",")) if t]
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise DomainError(f"malformed profile text ({len(tokens)} tokens)")
    tail_token = tokens[-1]
    ncells = (len(tokens) - 3) // 2 + 1
    if tail_token == "sign":
        tail_rule, tail_values = SIGN_TAILS, ()
    elif tail_token.startswith("const:"):
        tail_rule, tail_values = CONST_TAILS, tail_token.split(":")[1:]
        if len(tail_values) != 2:
            raise DomainError(f"malformed tail token {tail_token!r}")
    else:
        raise DomainError(f"unknown tail token {tail_token!r}")
    try:
        z_cut = float(tokens[0])
        bp = tuple(map(float, tokens[1:ncells]))
        vals = tuple(map(float, tokens[ncells:-1]))
        tail_values = tuple(map(float, tail_values))
    except ValueError as exc:
        raise DomainError(f"unparsable profile token: {exc}") from exc
    # Sign tails ignore tail_values.
    return Profile(z_cut=z_cut, breakpoints=bp, values=vals,
                   tail_rule=tail_rule, tail_values=tail_values)
