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

A Profile's consecutive edges, +-z_cut included, lie more than EDGE_TOL =
1e-15 apart.  It is cut and integrated once: its cell table
(Profile._cell_table, built on first use) holds the cells of the whole line
at those edges, each with its midpoint, theta and four moments from one
gaussian_moments call, and the full-line moments are fsums over it.  Every
other integral cuts the table at kinks of its own (+-window, +-eta, the
perturbed norm's cubic roots) by one rule (_cut): a kink within EDGE_TOL of
an edge cuts nothing, and only the cells a kink splits are integrated
afresh (_cut_cells).

A profile has a few dozen cells at most in every check except a loaded LP
file, so profiles and their integrals are on Python floats: a Profile keeps
tuples, cell lookup is bisect, and every per-cell sum is math.fsum, whose
result is the correctly rounded sum of the terms (independent of order and
of any BLAS kernel, and exact enough for a 16384-cell profile).  Only the
grid LP (_lp_cells, lp_maximize) runs on numpy arrays, on its thousands of
cells, in one work block per thread (_lp_work); Profile.evaluate also takes
an ndarray, for the quadrature oracle.
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
from .gauss import (EDGE_TOL, INV_SQRT_2PI, cell_masses, cell_masses_into,
                    dedupe_edges, first_moments, gaussian_cdf,
                    gaussian_moments, gaussian_pdf)

SIGN_TAILS = "sign"
CONST_TAILS = "const"

# Absolute tolerance on the moment constraint; well below every gap bound.
FEASIBILITY_TOL = 1e-10
# Dual value minus primal value must reproduce the tail integral this tightly.
CERTIFICATE_TOL = 1e-8


@dataclass(frozen=True)
class Profile:
    """theta: piecewise constant on (-z_cut, z_cut), symbolic tails outside.

    breakpoints are the interior cell boundaries, inside the window; values
    has one entry per cell, len(breakpoints) + 1 total.  Consecutive edges,
    +-z_cut included, lie more than EDGE_TOL = 1e-15 apart, or DomainError
    is raised: closer edges would count as one (gauss.dedupe_edges), and
    every cut of the line (_cut) keeps them all.  Both are stored as tuples
    of Python floats, whatever sequence or array was passed; the cell edges
    and the values padded with both tails are also kept once as tuples, for
    evaluate and edges.  The cell table and the full-line moments are
    computed on first use and kept too.
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
        # Edges more than EDGE_TOL apart imply breakpoints inside the window
        # and strictly increasing (NaN fails every comparison); the slow
        # branch only picks the message.
        if not all(b - a > EDGE_TOL for a, b in zip(edges, edges[1:])):
            if not all(-z_cut < b < z_cut for b in bp):
                raise DomainError("breakpoints must lie strictly inside (-z_cut, z_cut)")
            raise DomainError("breakpoints must be strictly increasing, with "
                              f"edges more than {EDGE_TOL:g} apart")
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
        """The profile's cells over the whole line, edges (-inf, *edges,
        inf), with their midpoints, theta (the entries of _table in order)
        and moments from one gaussian_moments call; computed on first use
        and read-only."""
        edges = (-math.inf, *self._edges, math.inf)
        return Cells(edges, tuple(zip(_mids(edges), self._table,
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
    if not rows:
        return (0.0, 0.0, 0.0, 0.0)
    _, theta, *moments = zip(*rows)
    return tuple(math.fsum(map(operator.mul, m, theta)) for m in moments)


def _mids(edges) -> list[float]:
    """A point inside each cell: its midpoint, or the finite edge -+ 1 for
    an infinite cell."""
    mid = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    if edges[0] == -math.inf:
        mid[0] = edges[1] - 1.0
    if edges[-1] == math.inf:
        mid[-1] = edges[-2] + 1.0
    return mid


def _cut(edges, kinks) -> list[tuple[int, list[float]]]:
    """The one cut rule, on a profile's cell table edges: the finite kinks
    are taken in ascending order, and each cuts the cell it falls in (as cut
    by the kinks before it) unless it lies within EDGE_TOL of one of that
    cell's edges.  So a kink equal to an edge cuts nothing, and the cut's
    edges lie more than EDGE_TOL apart, as a Profile's do.

    Returns (j, [edges[j], k..., edges[j + 1]]) for each cell j a kink cuts,
    in order.
    """
    split: list[tuple[int, list[float]]] = []
    for k in sorted(map(float, kinks)):
        if not -math.inf < k < math.inf:
            continue
        j = bisect_right(edges, k) - 1  # edges[j] <= k < edges[j + 1]
        if not split or split[-1][0] != j:
            split.append((j, [edges[j], edges[j + 1]]))
        cell = split[-1][1]
        if k - cell[-2] > EDGE_TOL and cell[-1] - k > EDGE_TOL:
            cell.insert(-1, k)
    return [(j, cell) for j, cell in split if len(cell) > 2]


def _cut_cells(profile: Profile, kinks) -> Cells:
    """The profile's cells over the whole line, also cut at kinks (_cut):
    its cell table with only the cells a kink splits integrated afresh, all
    of their pieces in one gaussian_moments call."""
    table = profile._cell_table
    split = _cut(table.edges, kinks)
    if not split:
        return table
    # The gap between two split cells is a cell of the call too, skipped.
    cuts = [e for _, cell in split for e in cell]
    pieces = list(zip(_mids(cuts), *gaussian_moments(cuts)))
    edges, rows = list(table.edges), list(table.rows)
    end = len(pieces)  # where the pieces of the cells left to splice end
    for j, cell in reversed(split):  # from the last cell, so j holds
        n, theta = len(cell) - 1, rows[j][1]
        edges[j + 1:j + 1] = cell[1:-1]
        rows[j:j + 1] = [(z, theta, *m) for z, *m in pieces[end - n:end]]
        end -= n + 1  # and the gap cell before them
    return Cells(edges, rows)


def _inside(cells: Cells, window: float) -> Cells:
    """The cells of a cut at +-window that lie inside (-window, window):
    those whose right edge lies more than EDGE_TOL above -window and whose
    left edge more than EDGE_TOL below window.  The cut has an edge at or
    within EDGE_TOL of -window, and of window; the first and last cells
    kept end at such edges, and the inner edges kept lie more than EDGE_TOL
    inside, so that (-window, window) cut at them is a valid Profile.
    """
    edges = cells.edges
    lo = bisect_right(edges, EDGE_TOL, key=lambda e: e + window) - 1
    hi = bisect_left(edges, -EDGE_TOL, key=lambda e: e - window)
    return Cells(edges[lo:hi + 1], cells.rows[lo:hi])


def theta_moments(profile: Profile,
                  window: float = math.inf) -> tuple[float, float, float, float]:
    """(int theta(z) z^k pdf(z) dz over |z| < window)_{k=0..3}, exactly.

    window must be positive (infinity included), else DomainError.  With
    the default infinite window the symbolic tails are included and the
    profile's own copy is returned: a Profile is immutable, so its
    full-line moments are fsums over its cell table, computed once.  A
    finite window's are fsums over the rows of the table cut at +-window
    that lie inside it (_inside): an edge within EDGE_TOL of +-window
    stands in for it.
    """
    if not window > 0.0:
        raise DomainError(f"theta_moments requires window > 0, got {window}")
    if window == math.inf:
        return profile._moments
    return _fsum_moments(
        _inside(_cut_cells(profile, (-window, window)), window).rows)


def h3_moment(m) -> float:
    """int theta H3 pdf, with H3(z) = z^3 - 3 z, from theta_moments' m over
    the same window: m_3 - 3 m_1, signed."""
    return m[3] - 3.0 * m[1]


def _rebuild(profile: Profile, window: float, extra_edges=(),
             override=None) -> Profile:
    """Profile restricted to (-window, window) with sign tails, optional cell
    override: the profile's cells cut at +-window and extra_edges (_cut)
    that lie inside the window (_inside), values clipped to [-1, 1].  No
    moments are taken.

    override(mid) may return a replacement value for the cell centered at mid,
    or None to keep theta(mid).
    """
    edges = (-math.inf, *profile._edges, math.inf)
    cut, theta = list(edges), list(profile._table)
    for j, cell in reversed(_cut(edges, (-window, window, *extra_edges))):
        cut[j + 1:j + 1] = cell[1:-1]  # from the last cell, so j holds
        theta[j:j] = [theta[j]] * (len(cell) - 2)
    cells = _inside(Cells(cut, list(zip(_mids(cut), theta))), window)
    vals = [t if override is None or (o := override(z)) is None else o
            for z, t, *_ in cells.rows]
    return Profile(z_cut=window, breakpoints=cells.edges[1:-1],
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
    return _V_sum(_cut_cells(profile, (-params.eta, params.eta)).rows, params)


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
    return _gap_tail_sum(_cut_cells(profile, (-params.eta, params.eta)).rows,
                         params)


def gap_certificate(profile: Profile, params: ReedsParams) -> GapCertificate:
    """Optimality certificate for a feasible profile.

    Feasibility means the first moment matches params.alpha within tolerance;
    the returned gap F - V is cross-checked against the closed tail integral.
    V_value and gap_tail_integral are summed over one shared partition.
    """
    check_feasible(profile, params)
    F = F_value_dual(params)
    rows = _cut_cells(profile, (-params.eta, params.eta)).rows
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


def _tails_fixed(profile: Profile, eta_star: float) -> bool:
    """Whether repair_to_theta's step 1 is a no-op on the profile: sign tails
    at z_cut = eta* make the tail cost a sum of 0.0 * mass = 0.0, and with
    values in [-1, 1] (no clipping) _rebuild(profile, eta*) returns the same
    breakpoints and values, bit for bit."""
    return (profile.tail_rule == SIGN_TAILS and profile.z_cut == eta_star
            and all(-1.0 <= v <= 1.0 for v in profile.values))


def repair_to_theta(profile: Profile,
                    lam: float = LAMBDA_STAR) -> tuple[Profile, float]:
    """Project a profile onto the maximizer set: sign tails at eta*, zero
    inner moment.  Returns the repaired profile and the L1 cost of the move.

    Follows the constructive two-step proof: fix the tails first, then flip
    theta toward -sign on a band eta*/2 < |z| < t0 whose capacity absorbs the
    inner-moment defect; t0 solves the capacity equation exactly.
    eta* is tied to the supplied lambda so callers stay on one Reeds point.

    Step 1 is skipped where it is a no-op (_tails_fixed): an input with
    sign tails at exactly eta* and values in [-1, 1], as every
    sample_theta_member input is, has tail cost 0.0 and is its own
    tail-fixed profile.  Else the tail cost is taken on the input's cells
    cut at +-eta* over the whole line (_cut_cells).

    The tail-fixed profile's window is (-eta*, eta*), so its inner moment
    is a first-moment sum over its own edges, with no cell table: the
    tail-fixed profile is discarded unless it already is a member.  The
    last step's inner cost and residual inner moment are read from the
    inner rows of the repaired profile's cell table.  The repaired
    profile's cells already carry every breakpoint of the tail-fixed one
    (it was cut from its cells), so the tail-fixed profile is constant on
    each of them.  The member returned carries its table on to the checks
    that integrate it next (A_bound_check, the beta scan).
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

    inner = math.fsum(map(operator.mul, first_moments(fixed._edges),
                          fixed.values))
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
    rows = repaired._cell_table.rows[1:-1]
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
