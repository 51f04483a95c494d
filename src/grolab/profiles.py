"""Piecewise-constant profiles and the moment-constrained 1-D maximization.

A Profile is a conditional-expectation function theta: R -> [-1, 1] given by
piecewise-constant values on an inner window plus symbolic tails (sign(z) or
per-side constants).  The operations here evaluate the primal objective V,
its dual certificate, the exact optimality-gap tail integral, the discretized
bathtub maximizer, and the repair projection onto the maximizer set.

Every integral here is a piecewise polynomial of degree <= 3 times the
Gaussian density: the line is cut into cells on which theta is constant and
the other factors are polynomials, and the integral is a dot product of the
per-cell coefficients with gauss.gaussian_moments.  The dual functional's
kinks are fixed points rather than profile breakpoints, so dual_value is a
closed form on Python floats instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .baseline import LAMBDA_STAR, ReedsParams, solve_eta_star, solve_h
from .errors import DomainError, FeasibilityError, InternalCheckError
from .gauss import (INV_SQRT_2PI, gaussian_cdf, gaussian_moments,
                    gaussian_pdf)

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
    also kept once as read-only float64 arrays for evaluate and edges.
    """

    z_cut: float
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    tail_rule: str = SIGN_TAILS
    tail_values: tuple[float, float] = (-1.0, 1.0)
    _edges: np.ndarray = field(init=False, repr=False, compare=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z_cut = self.z_cut
        if not (math.isfinite(z_cut) and z_cut > 0.0):
            raise DomainError(f"z_cut must be positive, got {z_cut}")
        bp = np.array(self.breakpoints, dtype=float)
        vals = np.array(self.values, dtype=float)
        if len(vals) != len(bp) + 1:
            raise DomainError(
                f"need len(values) == len(breakpoints) + 1, got {len(vals)} vs {len(bp)}"
            )
        edges = np.concatenate(([-z_cut], bp, [z_cut]))
        # Strictly increasing edges <=> breakpoints inside the window and
        # strictly increasing (NaN fails every comparison); the slow branch
        # only picks the message.
        if not (edges[1:] > edges[:-1]).all():
            if not ((-z_cut < bp) & (bp < z_cut)).all():
                raise DomainError("breakpoints must lie strictly inside (-z_cut, z_cut)")
            raise DomainError("breakpoints must be strictly increasing")
        if not np.abs(vals).max() <= 1.0 + 1e-15:  # "not <=" rejects NaN
            raise DomainError("profile values must lie in [-1, 1]")
        if self.tail_rule not in (SIGN_TAILS, CONST_TAILS):
            raise DomainError(f"unknown tail rule {self.tail_rule!r}")
        if self.tail_rule == SIGN_TAILS:
            tv = (-1.0, 1.0)
        else:
            tv = (float(self.tail_values[0]), float(self.tail_values[1]))
            if not all(abs(v) <= 1.0 for v in tv):
                raise DomainError("tail constants must lie in [-1, 1]")
        # theta on (-inf, edges[0]), the cells, [edges[-1], inf): entry k
        # holds for the z with k edges <= z.
        table = np.concatenate(([tv[0]], vals, [tv[1]]))
        edges.flags.writeable = False
        table.flags.writeable = False
        object.__setattr__(self, "breakpoints", tuple(bp.tolist()))
        object.__setattr__(self, "values", tuple(vals.tolist()))
        object.__setattr__(self, "tail_values", tv)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_table", table)

    @property
    def edges(self) -> np.ndarray:
        """All cell boundaries including +-z_cut (read-only)."""
        return self._edges

    def evaluate(self, z) -> np.ndarray:
        """Vectorized theta(z) for any real z (tails included)."""
        return self._table[np.searchsorted(self._edges, z, side="right")]

    @cached_property
    def _moments(self) -> np.ndarray:
        """theta_moments over the whole line, computed on first use (read-only)."""
        m = _window_moments(self, math.inf)
        m.flags.writeable = False
        return m

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
        n = len(values)
        bp = tuple(-z_cut + 2.0 * z_cut * i / n for i in range(1, n))
        return cls(z_cut=z_cut, breakpoints=bp, values=values,
                   tail_rule=tail_rule, tail_values=tail_values)

    @classmethod
    def bathtub(cls, h: float, z_cut: float | None = None) -> "Profile":
        """Odd single-threshold profile: -sign(z) on |z| < h, sign(z) beyond."""
        if h <= 0.0:
            raise DomainError(f"bathtub threshold must be positive, got {h}")
        if z_cut is None or abs(z_cut - h) < 1e-15:
            return cls(z_cut=h, breakpoints=(0.0,), values=(1.0, -1.0))
        if z_cut < h:
            raise DomainError("z_cut must be >= h for a bathtub profile")
        return cls(z_cut=z_cut, breakpoints=(-h, 0.0, h),
                   values=(-1.0, 1.0, -1.0, 1.0))


def _dedupe_edges(points, lo: float, hi: float) -> list[float]:
    """Sorted interior points of (lo, hi), duplicates within 1e-15 merged."""
    out: list[float] = []
    for p in sorted(float(p) for p in points):
        if lo < p < hi and (not out or p - out[-1] > 1e-15):
            out.append(p)
    return out


def _partition(points, window: float = math.inf):
    """Cells of (-window, window) cut at the points inside it.

    Returns (edges, mid): the n + 1 cell edges, infinite at both ends when
    the window is, and a point inside each cell.
    """
    edges = np.array([-window, *_dedupe_edges(points, -window, window), window])
    mid = 0.5 * (edges[:-1] + edges[1:])
    if math.isinf(window):
        mid[0], mid[-1] = edges[1] - 1.0, edges[-2] + 1.0
    return edges, mid


def _cells(profile: Profile, kinks=(), window: float = math.inf):
    """Cells of (-window, window) on which theta is constant, also cut at kinks.

    Returns (edges, mid, theta) with theta the profile's value on each cell.
    """
    edges, mid = _partition(
        [*profile.breakpoints, -profile.z_cut, profile.z_cut, *kinks], window)
    return edges, mid, profile.evaluate(mid)


def _window_moments(profile: Profile, window: float) -> np.ndarray:
    edges, _, theta = _cells(profile, window=window)
    return gaussian_moments(edges) @ theta


def theta_moments(profile: Profile, window: float = math.inf) -> np.ndarray:
    """(int theta(z) z^k pdf(z) dz over |z| < window)_{k=0..3}, exactly.

    With the default infinite window the symbolic tails are included, and
    the profile's own read-only copy is returned: a Profile is immutable, so
    its full-line moments are computed once.
    """
    if window == math.inf:
        return profile._moments
    return _window_moments(profile, window)


def _rebuild(profile: Profile, window: float, extra_edges=(),
             override=None) -> Profile:
    """Profile restricted to (-window, window) with sign tails, optional cell
    override.

    override(mid) may return a replacement value for the cell centered at mid,
    or None to keep theta(mid).
    """
    edges, mids, vals = _cells(profile, kinks=extra_edges, window=window)
    if override is not None:
        vals = np.array([v if (o := override(m)) is None else o
                         for m, v in zip(mids, vals)])
    vals = np.clip(vals, -1.0, 1.0)
    return Profile(z_cut=window, breakpoints=edges[1:-1], values=vals)


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


def _int_A_full(params: ReedsParams) -> float:
    """int_R A(z) pdf(z) dz in closed form."""
    eta = params.eta
    return params.lam * (2.0 * gaussian_cdf(eta) - 1.0) + 2.0 * params.alpha * gaussian_pdf(eta)


# -- moments and objective ---------------------------------------------------

def moment(profile: Profile) -> float:
    """First Gaussian moment int z theta(z) pdf(z) dz, tails included."""
    return float(theta_moments(profile)[1])


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


def V_value(profile: Profile, params: ReedsParams) -> float:
    """Primal objective V(theta) = int (A + theta B) pdf.

    Evaluated whether or not theta meets the moment constraint; feasibility
    is the caller's concern (see gap_certificate).
    """
    eta = params.eta
    edges, mid, theta = _cells(profile, kinks=(-eta, eta))
    moments = gaussian_moments(edges)
    inner = np.abs(mid) < eta
    sign = np.sign(mid)
    # A = lambda, B = -alpha z inside (-eta, eta); A = alpha |z|, B = -lambda
    # sign(z) outside.
    c0 = np.where(inner, params.lam, -params.lam * sign * theta)
    c1 = np.where(inner, -params.alpha * theta, params.alpha * sign)
    return float(c0 @ moments[0] + c1 @ moments[1])


def dual_value(mu: float, params: ReedsParams) -> float:
    """Dual functional D(mu) = int A pdf + mu alpha + int |B - mu z| pdf.

    |B - mu z| is even, with B = -alpha z on |z| < eta and -lambda sign(z)
    beyond, so in closed form

        D(mu) = int A pdf + mu alpha
                + 2 [|alpha + mu| (pdf(0) - pdf(eta)) + outer(mu)],

    where outer(mu) = int_eta^inf |lambda + mu z| pdf.  lambda + mu z keeps
    one sign on (eta, inf) unless -alpha < mu < 0, when it changes sign at
    w = lambda / |mu| > eta.  A w that overflows (mu within ~1e-309 of 0)
    leaves no mass beyond it.  A non-finite mu raises DomainError.
    """
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"dual_value requires finite mu, got {mu}")
    lam, alpha, eta = params.lam, params.alpha, params.eta
    tail_eta, pdf_eta = gaussian_cdf(-eta), gaussian_pdf(eta)
    if mu >= 0.0:
        outer = lam * tail_eta + mu * pdf_eta
    elif mu <= -alpha:
        outer = -(lam * tail_eta + mu * pdf_eta)
    else:
        w = lam / -mu
        tail_w, pdf_w = ((0.0, 0.0) if math.isinf(w)
                         else (gaussian_cdf(-w), gaussian_pdf(w)))
        outer = (lam * (tail_eta - tail_w) + mu * (pdf_eta - pdf_w)
                 - (lam * tail_w + mu * pdf_w))
    inner = abs(alpha + mu) * (INV_SQRT_2PI - pdf_eta)  # pdf(0) = INV_SQRT_2PI
    return _int_A_full(params) + mu * alpha + 2.0 * (inner + outer)


def _dual_anchor(params: ReedsParams) -> float:
    """The interpolation coefficient placing the attaining profile in [-1, 1].

    A flat inner profile a*sign(z) with sign tails at eta has moment
    2 pdf(eta) + 2 a (pdf(0) - pdf(eta)); the dual value at mu = -alpha is
    attained exactly when that moment can reach alpha with |a| <= 1.
    """
    eta = params.eta
    denom = 2.0 * (gaussian_pdf(0.0) - gaussian_pdf(eta))
    return (params.alpha - 2.0 * gaussian_pdf(eta)) / denom


def _dual_attained_value(params: ReedsParams) -> float:
    if abs(_dual_anchor(params)) > 1.0:
        raise DomainError(
            "dual certificate is not attained at mu = -alpha for these params"
        )
    return dual_value(-params.alpha, params)


def F_value_dual(params: ReedsParams) -> float:
    """Optimal value of the moment-constrained maximization, via the dual.

    Only offered inside the window |alpha - alpha*(lambda)| < 1/100 where the
    attaining primal point is proven to exist; outside, the dual value is
    merely an upper bound and this operation refuses.
    """
    alpha_star = params.lam / solve_eta_star(params.lam)
    if abs(params.alpha - alpha_star) >= 0.01:
        raise DomainError(
            f"F_value_dual requires |alpha - {alpha_star:.6f}| < 0.01, "
            f"got alpha={params.alpha}"
        )
    return _dual_attained_value(params)


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


def gap_tail_integral(profile: Profile, params: ReedsParams) -> float:
    """int_{|z|>eta} (alpha |z| - lambda)(1 - theta(z) sign(z)) pdf(z) dz."""
    eta = params.eta
    edges, mid, theta = _cells(profile, kinks=(-eta, eta))
    moments = gaussian_moments(edges)
    sign = np.sign(mid)
    defect = np.where(np.abs(mid) > eta, 1.0 - theta * sign, 0.0)
    return float(-params.lam * defect @ moments[0]
                 + params.alpha * (defect * sign) @ moments[1])


def gap_certificate(profile: Profile, params: ReedsParams) -> GapCertificate:
    """Optimality certificate for a feasible profile.

    Feasibility means the first moment matches params.alpha within tolerance;
    the returned gap F - V is cross-checked against the closed tail integral.
    """
    check_feasible(profile, params)
    F = _dual_attained_value(params)
    V = V_value(profile, params)
    tail = gap_tail_integral(profile, params)
    return GapCertificate(primal_V=V, dual_D=F, gap=F - V, tail_integral=tail,
                          mu=-params.alpha)


# -- discretized maximization (bathtub fill) ---------------------------------

def lp_maximize(params: ReedsParams, grid_size: int) -> tuple[Profile, float]:
    """Exact solution of the grid-discretized moment-constrained LP.

    Single equality constraint plus box bounds: the maximizer is a bathtub
    fill ordered by objective-per-moment ratio, with one fractional tie
    group found by a parametric threshold.  Sign tails are kept symbolic
    beyond the grid window.  Cell integrals are closed forms.
    """
    if grid_size < 64:
        raise DomainError(f"grid_size must be >= 64, got {grid_size}")
    alpha = params.alpha
    if abs(alpha) >= math.sqrt(2.0 / math.pi):
        raise DomainError(f"alpha={alpha} infeasible: |alpha| >= sqrt(2/pi)")
    eta = params.eta
    z_cut = max(eta, solve_h(alpha)) + 1.0
    edges = np.linspace(-z_cut, z_cut, grid_size + 1)
    # Cut the grid at the kinks +-eta of B, integrate B = lambda, -alpha z,
    # -lambda on the pieces, and sum the pieces back into their grid cells.
    # Sorted union without np.union1d, which imports numpy.ma at run time.
    pieces = np.sort(np.concatenate((edges, (-eta, eta))))
    pieces = pieces[np.concatenate(([True], pieces[1:] != pieces[:-1]))]
    mid = 0.5 * (pieces[:-1] + pieces[1:])
    cell = np.searchsorted(edges, mid) - 1
    moments = gaussian_moments(pieces)
    b_int = np.where(np.abs(mid) < eta, -alpha * moments[1],
                     -params.lam * np.sign(mid) * moments[0])
    a = np.bincount(cell, weights=moments[1], minlength=grid_size)
    c = np.bincount(cell, weights=b_int, minlength=grid_size)

    target = alpha - 2.0 * gaussian_pdf(z_cut)
    abs_a = np.abs(a)
    total = abs_a.sum()
    if abs(target) > total + 1e-12:
        raise DomainError("moment target unreachable on this grid")

    # theta_i(mu) = sign(c_i - mu a_i); as mu grows past c_i/a_i the cell's
    # moment contribution drops from |a_i| to -|a_i|.  A zero-moment cell (the
    # symmetric middle cell of an odd grid, where c = 0 too) has no ratio and
    # moves neither the moment nor the value; it stays out of the walk at 0.
    walk = np.flatnonzero(abs_a > 0.0)
    ratio = c[walk] / a[walk]
    rank = np.argsort(ratio, kind="stable")
    order = walk[rank]
    sorted_ratio = ratio[rank]
    # Flips go in ascending ratio order, ties grouped (mirror cells share their
    # ratio exactly); the group that would cross the target gets a common
    # fractional value instead.
    starts = np.flatnonzero(np.concatenate(([True], np.abs(np.diff(sorted_ratio))
                                            > 1e-12 * (1.0 + np.abs(sorted_ratio[:-1])))))
    group_drop = np.add.reduceat(2.0 * abs_a[order], starts)
    # running[k] is the moment before group k flips, subtracted in walk order.
    running = np.subtract.accumulate(np.concatenate(([total], group_drop)))
    crossing = np.flatnonzero(running[1:] < target - 1e-15)

    theta = np.sign(a)  # state before any flip; zero-moment cells stay 0
    if crossing.size == 0:
        theta[order] *= -1.0
    else:
        k = int(crossing[0])
        lo = starts[k]
        hi = starts[k + 1] if k + 1 < len(starts) else len(order)
        group = order[lo:hi]
        theta[order[:lo]] *= -1.0
        denom = float(np.sum(abs_a[group]))
        t = (target - (running[k] - denom)) / denom
        theta[group] *= min(1.0, max(-1.0, t))

    value = _int_A_full(params) + float(np.dot(c, theta)) \
        - 2.0 * params.lam * gaussian_cdf(-z_cut)
    prof = Profile(z_cut=z_cut, breakpoints=edges[1:-1], values=theta)
    return prof, value


# -- structural helpers ------------------------------------------------------

def odd_part(profile: Profile) -> Profile:
    """(theta(z) - theta(-z)) / 2, on the symmetrized cell structure."""
    edges, mids, theta = _cells(profile, kinks=[-b for b in profile.breakpoints],
                                window=profile.z_cut)
    vals = 0.5 * (theta - profile.evaluate(-mids))
    if profile.tail_rule == SIGN_TAILS:
        return Profile(z_cut=profile.z_cut, breakpoints=edges[1:-1],
                       values=vals)
    left, right = profile.tail_values
    odd_right = 0.5 * (right - left)
    return Profile(z_cut=profile.z_cut, breakpoints=edges[1:-1],
                   values=vals, tail_rule=CONST_TAILS,
                   tail_values=(-odd_right, odd_right))


# -- constructive projection onto the maximizing set -------------------------

def _repair_threshold(profile: Profile, s: float, eta_star: float,
                      delta: float) -> float:
    """Smallest t with G(t) >= delta for the capacity integral

        G(t) = int_{eta*/2 < |z| < t} z (sign(z) + s theta(z)) pdf dz
             = int_{half}^{t} u [(1 + s theta(u)) + (1 - s theta(-u))] pdf(u) du,

    the negative side folded onto u = -z.  The weight w is constant on each
    folded cell, so G is tabulated cumulatively at the cell edges and
    inverted exactly inside the crossing cell [c, d]:
        pdf(t) = pdf(c) - r / w  <=>  t^2 = c^2 - 2 log1p(-r / (w pdf(c))),
    with r the part of delta left after the cells below c.
    """
    half = eta_star / 2.0
    cuts = np.array([half, *_dedupe_edges(np.abs(profile.breakpoints),
                                          half, eta_star), eta_star])
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    weight = (1.0 + s * profile.evaluate(mid)) + (1.0 - s * profile.evaluate(-mid))
    capacity = np.cumsum(weight * gaussian_moments(cuts)[1])
    if capacity[-1] < delta - 1e-13:
        raise InternalCheckError(
            f"repair capacity {capacity[-1]} below defect {delta}"
        )
    j = int(np.searchsorted(capacity, delta))
    if j == len(capacity):
        return eta_star
    rest = delta - (capacity[j - 1] if j else 0.0)
    c = float(cuts[j])
    t_sq = c * c - 2.0 * math.log1p(-rest / (weight[j] * gaussian_pdf(c)))
    return min(math.sqrt(t_sq), float(cuts[j + 1]))


def repair_to_theta(profile: Profile,
                    lam: float = LAMBDA_STAR) -> tuple[Profile, float]:
    """Project a profile onto the maximizer set: sign tails at eta*, zero
    inner moment.  Returns the repaired profile and the L1 cost of the move.

    Follows the constructive two-step proof: fix the tails first, then flip
    theta toward -sign on a band eta*/2 < |z| < t0 whose capacity absorbs the
    inner-moment defect; t0 solves the capacity equation exactly.
    eta* is tied to the supplied lambda so callers stay on one Reeds point.
    """
    eta_star = solve_eta_star(lam)

    # Step 1: tail cost int_{|z|>eta*} |sign(z) - theta| pdf and the
    # tail-fixed profile on (-eta*, eta*).
    edges, mid, theta = _cells(profile, kinks=(-eta_star, eta_star))
    sign = np.sign(mid)
    defect = np.where(np.abs(mid) > eta_star, 1.0 - theta * sign, 0.0)
    tail_cost = float(defect @ gaussian_moments(edges)[0])

    fixed = _rebuild(profile, eta_star)

    inner = float(theta_moments(fixed, eta_star)[1])
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

    edges, mid, theta = _cells(repaired, kinks=fixed.breakpoints,
                               window=eta_star)
    moved = np.abs(theta - fixed.evaluate(mid))
    inner_cost = float(moved @ gaussian_moments(edges)[0])
    residual = float(theta_moments(repaired, eta_star)[1])
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
    # Values repeat (an LP maximizer has a handful of distinct ones), so each
    # distinct bit pattern is formatted once; the int64 view keeps -0.0 and
    # 0.0 apart.
    bits, which = np.unique(profile._table[1:-1].view(np.int64),
                            return_inverse=True)
    texts = list(map(repr, bits.view(float).tolist()))
    return ",".join((repr(profile.z_cut), *map(repr, profile.breakpoints),
                     *[texts[i] for i in which.tolist()], tail))


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
    # fromiter drops each parsed float at once: no list of 16k float objects
    # sits beside the arrays Profile builds (peak memory of large profiles).
    try:
        z_cut = float(tokens[0])
        bp = np.fromiter(map(float, tokens[1:ncells]), float, ncells - 1)
        vals = np.fromiter(map(float, tokens[ncells:-1]), float, ncells)
        tail_values = tuple(map(float, tail_values))
    except ValueError as exc:
        raise DomainError(f"unparsable profile token: {exc}") from exc
    # Sign tails ignore tail_values.
    return Profile(z_cut=z_cut, breakpoints=bp, values=vals,
                   tail_rule=tail_rule, tail_values=tail_values)
