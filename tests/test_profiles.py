import math
import re
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linprog

from grolab import profiles
from grolab.baseline import LAMBDA_STAR, ReedsParams, solve_eta_star, solve_h
from grolab.chain import gap_lower_large_delta
from grolab.errors import DomainError, FeasibilityError
from grolab.explorer import sample_feasible_profile, sample_theta_member
from grolab.gauss import gaussian_cdf, gaussian_moments, gaussian_pdf
from grolab.profiles import (
    A_B_eval,
    F_value_dual,
    Profile,
    V_value,
    _int_A_full,
    _lp_cells,
    dual_value,
    gap_certificate,
    gap_tail_integral,
    lp_maximize,
    moment,
    profile_from_text,
    profile_to_text,
    repair_to_theta,
    theta_moments,
)

from conftest import LAM
from oracles import (bathtub, erfc_cell_masses, gauss_integrate,
                     gaussian_moments_array, interval_mass, interval_z_moment,
                     odd_part, partition, repair_to_theta_five_partitions)


# -- Profile type -------------------------------------------------------------

_INVALID_PROFILES = [
    # (z_cut, breakpoints, values, tail_rule, tail_values, message)
    (1.0, (0.5, 0.2), (0.0, 0.0, 0.0), "sign", (-1.0, 1.0), "strictly increasing"),
    (1.0, (0.2, 0.2), (0.0, 0.0, 0.0), "sign", (-1.0, 1.0), "strictly increasing"),
    (1.0, (1.5,), (0.0, 0.0), "sign", (-1.0, 1.0), "strictly inside"),
    (1.0, (-1.0,), (0.0, 0.0), "sign", (-1.0, 1.0), "strictly inside"),
    (1.0, (math.nan,), (0.0, 0.0), "sign", (-1.0, 1.0), "strictly inside"),
    (1.0, (0.5, 0.2, 1.5), (0.0,) * 4, "sign", (-1.0, 1.0), "strictly inside"),
    # edges, +-z_cut included, at most 1e-15 apart
    (1.0, (0.25, 0.2500000000000005), (0.0,) * 3, "sign", (-1.0, 1.0),
     "more than 1e-15 apart"),
    (1.0, (-0.3, -0.3 + 1e-15, 0.5), (0.0,) * 4, "sign", (-1.0, 1.0),
     "more than 1e-15 apart"),
    (1.0, (-1.0 + 5e-16, 0.0), (0.0,) * 3, "sign", (-1.0, 1.0),
     "more than 1e-15 apart"),
    (1.0, (0.0, 1.0 - 8e-16), (0.0,) * 3, "const", (0.5, 0.5),
     "more than 1e-15 apart"),
    (1.0, (), (1.5,), "sign", (-1.0, 1.0), "values must lie"),
    (1.0, (0.0,), (0.5, math.nan), "sign", (-1.0, 1.0), "values must lie"),
    (1.0, (), (0.0, 0.0), "sign", (-1.0, 1.0), "len(values)"),
    (1.0, (), (0.0,), "weird", (-1.0, 1.0), "unknown tail rule"),
    (1.0, (), (0.0,), "const", (1.5, 0.0), "tail constants"),
    (1.0, (), (0.0,), "const", (math.nan, 0.2), "tail constants"),
    (-1.0, (), (0.0,), "sign", (-1.0, 1.0), "z_cut must be positive"),
    (math.nan, (), (0.0,), "sign", (-1.0, 1.0), "z_cut must be positive"),
]


def test_profile_validation():
    # the same error, checked in the same order, for tuples and arrays
    for z_cut, bp, vals, rule, tails, message in _INVALID_PROFILES:
        for wrap in (tuple, np.array):
            with pytest.raises(DomainError, match=re.escape(message)):
                Profile(z_cut=z_cut, breakpoints=wrap(bp), values=wrap(vals),
                        tail_rule=rule, tail_values=tails)


@pytest.mark.parametrize("where", [0, 2, -1])
def test_profile_rejects_nan_anywhere(where):
    # a NaN in the first, a middle or the last place of either sequence
    # (a max over the sequence would only see a leading NaN)
    bp = [-0.6, -0.3, 0.0, 0.3, 0.6]
    vals = [0.5, -0.5, 0.25, -0.25, 1.0, -1.0]
    for wrap in (tuple, np.array):
        bad_bp = list(bp)
        bad_bp[where] = math.nan
        with pytest.raises(DomainError, match="strictly inside"):
            Profile(z_cut=1.0, breakpoints=wrap(bad_bp), values=wrap(vals))
        bad_vals = list(vals)
        bad_vals[where] = math.nan
        with pytest.raises(DomainError, match="values must lie"):
            Profile(z_cut=1.0, breakpoints=wrap(bp), values=wrap(bad_vals))


def test_profile_fields_are_python_floats():
    from_tuple = Profile(z_cut=1.0, breakpoints=(0.0,), values=(-0.5, 0.5))
    from_array = Profile(z_cut=1.0, breakpoints=np.array([0.0]),
                         values=np.array([-0.5, 0.5], dtype=np.float32))
    assert from_array == from_tuple
    assert hash(from_array) == hash(from_tuple)
    assert repr(from_array) == repr(from_tuple)
    assert all(type(v) is float for v in from_array.breakpoints + from_array.values)
    assert from_array.edges == (-1.0, 0.0, 1.0)
    assert all(type(v) is float for v in from_array.edges)
    with pytest.raises(TypeError):
        from_array.edges[0] = 0.0  # the cached edges are read-only


def _evaluate_reference(prof, z):
    """theta(z) by clipping the cell index and overwriting the tails."""
    z = np.asarray(z, dtype=float)
    values = np.array(prof.values)
    idx = np.clip(np.searchsorted(prof.edges, z, side="right") - 1,
                  0, len(values) - 1)
    out = values[idx]
    out = np.where(z < -prof.z_cut, prof.tail_values[0], out)
    return np.where(z >= prof.z_cut, prof.tail_values[1], out)


def test_profile_evaluate():
    prof = Profile(z_cut=1.0, breakpoints=(0.0,), values=(-0.5, 0.5))
    z = np.array([-2.0, -0.5, 0.5, 2.0])
    assert np.allclose(prof.evaluate(z), [-1.0, -0.5, 0.5, 1.0])
    const = Profile(z_cut=1.0, breakpoints=(), values=(0.25,),
                    tail_rule="const", tail_values=(0.1, -0.2))
    assert np.allclose(const.evaluate(np.array([-3.0, 0.0, 3.0])),
                       [0.1, 0.25, -0.2])
    # the tail-padded table lookup equals the reference bit for bit on
    # every edge, its neighbours, +-inf and cell interiors, for arrays and
    # scalars alike
    profiles = [prof, const, bathtub(0.7, z_cut=1.5),
                Profile(z_cut=2.0, breakpoints=(-1.0, 0.0, 0.5),
                        values=(-0.0, 0.0, 1.0, -0.75), tail_rule="const",
                        tail_values=(-0.0, 0.5)),
                Profile.from_grid(np.linspace(-1.0, 1.0, 12), z_cut=1.0)]
    for p in profiles:
        e = np.array(p.edges)
        z = np.concatenate((e, -e, np.nextafter(e, -np.inf),
                            np.nextafter(e, np.inf), 0.5 * (e[1:] + e[:-1]),
                            (-np.inf, np.inf, 0.0, -0.0, -1e300, 1e300)))
        assert p.evaluate(z).tobytes() == _evaluate_reference(p, z).tobytes()
        for x in z.tolist():
            got = p.evaluate(x)
            assert type(got) is float
            assert np.asarray(got).tobytes() == _evaluate_reference(p, x).tobytes(), (p, x)


# -- kernels ------------------------------------------------------------------

def test_A_B_parity(params, rng):
    z = rng.uniform(-4, 4, 200)
    a, b = A_B_eval(z, params)
    a_neg, b_neg = A_B_eval(-z, params)
    assert np.array_equal(a_neg, a)    # A even
    assert np.array_equal(b_neg, -b)   # B odd


def test_A_B_values(params):
    a0, b0 = A_B_eval(0.0, params)
    assert (a0, b0) == (LAM, 0.0)
    eta = params.eta
    _, b_lo = A_B_eval(eta - 1e-13, params)
    _, b_hi = A_B_eval(eta + 1e-13, params)
    assert b_lo == pytest.approx(-LAM, abs=1e-12)
    assert b_hi == pytest.approx(-LAM, abs=1e-12)
    a2, _ = A_B_eval(2.0, params)
    assert a2 == pytest.approx(2.0 * params.alpha, abs=1e-15)
    z = np.linspace(-3, 3, 101)
    a, _ = A_B_eval(z, params)
    assert np.all(a >= LAM - 1e-15)


# -- moments and objective ----------------------------------------------------

def test_moment_bathtub(params):
    h = solve_h(params.alpha)
    tub = bathtub(h, z_cut=params.eta)
    assert moment(tub) == pytest.approx(params.alpha, abs=1e-13)


def test_moment_full_sign_profile():
    # theta = 1 on z > 0 (odd): the moment is the full first absolute moment
    prof = Profile(z_cut=2.0, breakpoints=(0.0,), values=(-1.0, 1.0))
    assert moment(prof) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-13)


def test_theta_moments_memo(params, rng):
    # a Profile's full-line moments are computed once, equal to the direct
    # cell sum (fsum) bit for bit, and shared read-only
    profiles = [bathtub(solve_h(params.alpha), z_cut=params.eta),
                Profile(z_cut=1.5, breakpoints=(-0.2, 0.4), values=(0.3, -0.6, 0.9),
                        tail_rule="const", tail_values=(0.25, -0.5)),
                sample_feasible_profile(int(rng.integers(1 << 30)), params),
                sample_theta_member(int(rng.integers(1 << 30)), lam=LAM)]
    for prof in profiles:
        edges = [-math.inf, *prof.edges, math.inf]
        theta = [prof.tail_values[0], *prof.values, prof.tail_values[1]]
        direct = [math.fsum(m * t for m, t in zip(row, theta))
                  for row in gaussian_moments(edges)]
        memo = theta_moments(prof)
        assert [x.hex() for x in memo] == [x.hex() for x in direct]
        assert theta_moments(prof) is memo
        assert moment(prof) == direct[1]
        with pytest.raises(TypeError):
            memo[1] = 0.0


def test_moment_zero_inner(params, eta_star):
    prof = Profile.constant(0.0, z_cut=eta_star)
    assert moment(prof) == pytest.approx(2.0 * gaussian_pdf(eta_star), abs=1e-13)
    assert moment(prof) == pytest.approx(params.alpha, abs=1e-12)


def test_V_bathtub_equals_denominator(params):
    h = solve_h(params.alpha)
    tub = bathtub(h, z_cut=params.eta)
    oracle = (1.0 - LAM) / 1.676956674215576
    assert V_value(tub, params) == pytest.approx(oracle, abs=1e-10)


def test_V_zero_inner_member(params, eta_star):
    prof = Profile.constant(0.0, z_cut=eta_star)
    by_parts = gauss_integrate(lambda z: A_B_eval(z, params)[0],
                               kinks=[-eta_star, eta_star]) \
        + 2.0 * gauss_integrate(
            lambda z: np.where(z >= eta_star, A_B_eval(z, params)[1], 0.0),
            kinks=[eta_star])
    assert V_value(prof, params) == pytest.approx(by_parts, abs=1e-11)


def test_weak_duality(params, rng):
    for k in range(25):
        prof = sample_feasible_profile(int(rng.integers(1 << 30)), params)
        v = V_value(prof, params)
        for mu in rng.uniform(-1.5, 1.5, 5):
            assert v <= dual_value(float(mu), params) + 1e-10


def test_dual_reference_values(params):
    f = dual_value(-params.alpha, params)
    assert f == pytest.approx((1.0 - LAM) / 1.676956674215576, abs=1e-10)
    assert dual_value(-params.alpha + 0.1, params) >= f - 1e-12
    assert dual_value(0.0, params) >= f - 1e-12


def _dual_value_cell_sum(mu, params):
    """D(mu) as a sum over cells cut at 0, +-eta and, for -alpha < mu < 0,
    +-w: the reference for the closed form in dual_value."""
    eta = params.eta
    kinks = [-eta, 0.0, eta]
    if -params.alpha < mu < 0.0:
        w = params.lam / abs(mu)
        kinks.extend((-w, w))
    edges, mid = partition(kinks)
    # B - mu z is linear on each cell and keeps its sign there.
    sign = np.sign(mid)
    inner = np.abs(mid) < eta
    c0 = np.where(inner, 0.0, -params.lam * sign)
    c1 = np.where(inner, -params.alpha, 0.0) - mu
    flip = np.sign(c0 + c1 * mid)
    moments = gaussian_moments(edges)
    term = float((flip * c0) @ moments[0] + (flip * c1) @ moments[1])
    int_a = _int_A_full(params.lam, params.alpha, gaussian_cdf(-eta),
                        gaussian_pdf(eta))
    return int_a + mu * params.alpha + term


def test_dual_value_matches_cell_sum():
    for lam in np.linspace(0.05, 0.3, 26):
        params = ReedsParams.at_reeds_point(float(lam))
        alpha = params.alpha
        mus = [*np.linspace(-1.5, 1.5, 121).tolist(),
               -alpha, -alpha / 2.0, 0.0, -0.0, 1e8, 1e300]
        for mu in mus:
            ref = _dual_value_cell_sum(mu, params)
            assert abs(dual_value(mu, params) - ref) <= 2e-15 * abs(ref), (lam, mu)
        # Below -alpha, D(mu) = |mu| (2 pdf(0) - alpha) + O(1) is a difference
        # of terms of size |mu|, which both forms round (the cell sum itself
        # is off by up to 9e-14 D at mu = -1e8 against a 300-bit evaluation),
        # so they agree relative to |mu|.
        for mu in (-1e8, -1e300):
            ref = _dual_value_cell_sum(mu, params)
            assert abs(dual_value(mu, params) - ref) <= 2e-15 * abs(mu), (lam, mu)


def _dual_value_mp(mpmath, mu, params):
    """D(mu) from its definition, int A pdf + mu alpha + int |B - mu z| pdf,
    cell by cell in mpmath's working precision (even integrand: twice the
    half line, cut at eta and at the sign change w of lambda + mu z)."""
    lam, alpha = mpmath.mpf(params.lam), mpmath.mpf(params.alpha)
    eta, mu = mpmath.mpf(params.eta), mpmath.mpf(mu)

    def cell(a, b, c0, c1):  # int_a^b (c0 + c1 z) pdf
        return (c0 * (mpmath.ncdf(b) - mpmath.ncdf(a))
                + c1 * (mpmath.npdf(a) - mpmath.npdf(b)))

    int_a = 2 * (cell(0, eta, lam, 0) + cell(eta, mpmath.inf, 0, alpha))
    cuts = [eta, mpmath.inf]
    if -alpha < mu < 0:
        cuts.insert(1, lam / -mu)
    outer = sum(abs(cell(a, b, lam, mu)) for a, b in zip(cuts, cuts[1:]))
    return int_a + mu * alpha + 2 * (abs(cell(0, eta, 0, alpha + mu)) + outer)


def test_dual_value_matches_mpmath():
    # The linear branches are summed without terms of size |mu|, so they
    # stay relatively accurate at |mu| = 1e8 (at lambda = 0.05 the slope
    # alpha - 2 pdf(0) cancels to -2.6e-3); the middle branch and the
    # callers' range |mu| <= 1.5 are checked too.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(300):
        lo = 1 / mpmath.sqrt(2 * mpmath.pi) - mpmath.mpf(profiles.INV_SQRT_2PI)
        assert profiles._INV_SQRT_2PI_LO == float(lo)
        for lam in (0.05, LAM):
            params = ReedsParams.at_reeds_point(lam)
            alpha = params.alpha
            for mu in (-1e8, 1e8):
                ref = float(_dual_value_mp(mpmath, mu, params))
                assert abs(dual_value(mu, params) - ref) <= math.ulp(ref), (lam, mu)
            for mu in [-alpha, -alpha / 2.0, 0.0,
                       *np.linspace(-1.5, 1.5, 61).tolist()]:
                ref = float(_dual_value_mp(mpmath, mu, params))
                assert abs(dual_value(mu, params) - ref) <= 4 * math.ulp(ref), (lam, mu)


def test_dual_value_tiny_negative_mu(params):
    # w = lambda/|mu| overflows to inf: no mass beyond it, the mu -> 0- limit.
    at_zero = dual_value(0.0, params)
    for mu in (-5e-324, -1e-310):
        assert dual_value(mu, params) == at_zero
    assert dual_value(-5e-324, ReedsParams.at_reeds_point(LAMBDA_STAR)) \
        == 0.8136187165615226


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_dual_value_rejects_non_finite_mu(params, mu):
    with pytest.raises(DomainError, match="finite mu"):
        dual_value(mu, params)


def test_dual_value_matches_quadrature(params, spec):
    # the closed form against the adaptive oracle over a grid of mu
    eta = params.eta
    for mu in [*np.linspace(-1.5, 1.5, 61).tolist(), -params.alpha, 0.0]:
        kinks = [-eta, 0.0, eta]
        if -params.alpha < mu < 0.0:
            kinks += [-params.lam / mu, params.lam / mu]
        oracle = gauss_integrate(
            lambda z: A_B_eval(z, params)[0]
            + np.abs(A_B_eval(z, params)[1] - mu * z), spec, kinks=kinks)
        assert dual_value(mu, params) == pytest.approx(
            oracle + mu * params.alpha, abs=1e-13)


def test_F_value_dual_attainment_boundary(params):
    assert F_value_dual(params) == pytest.approx(
        (1.0 - LAM) / 1.676956674215576, abs=1e-10)
    # |anchor| <= 1 is the exact condition: the dual matches the LP optimum
    # up to the boundary (anchor 0.77 at +0.02, 0.97 at +0.025) ...
    for shift in (+0.005, -0.005, +0.02, +0.025):
        shifted = ReedsParams(lam=LAM, alpha=params.alpha + shift)
        assert abs(profiles._dual_anchor(shifted)) <= 1.0, shift
        _, lp_val = lp_maximize(shifted, 4096)
        assert F_value_dual(shifted) == pytest.approx(lp_val, abs=1e-10), shift
    # ... and beyond it (anchor -1.58) D(-alpha) is only an upper bound.
    beyond = ReedsParams(lam=LAM, alpha=params.alpha - 0.05)
    assert profiles._dual_anchor(beyond) < -1.0
    lp_prof, lp_val = lp_maximize(beyond, 4096)
    assert dual_value(-beyond.alpha, beyond) > lp_val + 1e-4
    with pytest.raises(DomainError):
        F_value_dual(beyond)
    with pytest.raises(DomainError):
        gap_certificate(lp_prof, beyond)


# -- certificates -------------------------------------------------------------

def test_gap_certificate_member_zero(params):
    member = sample_theta_member(11, lam=LAM)
    cert = gap_certificate(member, params)
    assert abs(cert.gap) <= 1e-12
    assert cert.mu == -params.alpha


def test_gap_certificate_dented_sign(params):
    # sign(z) with a dent theta = 0 on (1, 1.2), certified at its own alpha
    prof = Profile(z_cut=2.0, breakpoints=(0.0, 1.0, 1.2),
                   values=(-1.0, 1.0, 0.0, 1.0))
    alpha = moment(prof)
    own = ReedsParams(lam=LAM, alpha=alpha)
    cert = gap_certificate(prof, own)
    oracle = gauss_integrate(
        lambda z: np.where((z >= 1.0) & (z <= 1.2),
                           own.alpha * z - own.lam, 0.0),
        kinks=[1.0, 1.2])
    assert cert.gap == pytest.approx(oracle, abs=1e-10)
    assert cert.tail_integral == pytest.approx(oracle, abs=1e-10)


def test_gap_tail_integral_flipped(params, eta_star):
    flipped = Profile(z_cut=eta_star, breakpoints=(), values=(0.0,),
                      tail_rule="const", tail_values=(1.0, -1.0))
    val = gap_tail_integral(flipped, params)
    expected = 2.0 * 2.0 * (params.alpha * gaussian_pdf(eta_star)
                            - LAM * gaussian_cdf(-eta_star))
    assert val == pytest.approx(expected, abs=1e-12)


def test_gap_identity_random(params, rng):
    for k in range(60):
        prof = sample_feasible_profile(int(rng.integers(1 << 30)), params)
        cert = gap_certificate(prof, params)
        assert abs(cert.gap - cert.tail_integral) <= 1e-10
        assert cert.gap >= -1e-10


def test_gap_certificate_infeasible(params):
    prof = Profile.constant(0.0, z_cut=1.0)  # moment far from alpha
    with pytest.raises(FeasibilityError) as err:
        gap_certificate(prof, params)
    assert err.value.residual is not None


# -- discretized maximization --------------------------------------------------

def test_lp_matches_dual(params):
    # odd grids have a zero-moment middle cell, which must stay out of the walk
    for grid in (4096, 65, 1025, 16385):
        _, val = lp_maximize(params, grid)
        assert val == pytest.approx(F_value_dual(params), abs=1e-8), grid


def test_lp_convergence(params):
    f = F_value_dual(params)
    errs = [abs(lp_maximize(params, g)[1] - f) for g in (256, 512, 1024, 2048)]
    for e1, e2 in zip(errs, errs[1:]):
        assert e2 <= max(e1 / 2.0, 1e-11)


def test_lp_sign_structure(params):
    # checked on the grid cells, not on the profile's own (canonical) runs
    grid = 1024
    prof, _ = lp_maximize(params, grid)
    step = 2.0 * prof.z_cut / grid
    edges = np.linspace(-prof.z_cut, prof.z_cut, grid + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    theta = prof.evaluate(mid)
    outer = mid >= params.eta + step
    inner = mid <= -params.eta - step
    assert outer.sum() > grid // 4 and inner.sum() > grid // 4
    assert (theta[outer] == 1.0).all()
    assert (theta[inner] == -1.0).all()


def test_lp_small_alpha_bathtub():
    # alpha small enough that the fill threshold exceeds the kink
    small = ReedsParams(lam=LAM, alpha=0.3)
    h = solve_h(0.3)
    assert h > small.eta
    grid = 512
    prof, _ = lp_maximize(small, grid)
    step = 2.0 * prof.z_cut / grid
    edges = np.linspace(-prof.z_cut, prof.z_cut, grid + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    theta = prof.evaluate(mid)
    fill = (step < mid) & (mid < h - step)
    beyond = (h + step < mid) & (mid < prof.z_cut - step)
    assert fill.any() and beyond.any()
    assert (theta[fill] == -1.0).all()
    assert (theta[beyond] == 1.0).all()
    assert moment(prof) == pytest.approx(0.3, abs=1e-12)


def test_lp_against_generic_solver(params):
    # independent oracle: dense LP over the same discretization
    grid = 256
    eta = params.eta
    z_cut = max(eta, solve_h(params.alpha)) + 1.0
    edges = np.linspace(-z_cut, z_cut, grid + 1)
    a = np.array([interval_z_moment(lo, hi)
                  for lo, hi in zip(edges[:-1], edges[1:])])

    def cell_b(lo, hi):
        total = 0.0
        plo, phi = max(lo, -eta), min(hi, eta)
        if phi > plo:
            total -= params.alpha * interval_z_moment(plo, phi)
        plo, phi = max(lo, eta), hi
        if phi > plo:
            total -= params.lam * interval_mass(plo, phi)
        plo, phi = lo, min(hi, -eta)
        if phi > plo:
            total += params.lam * interval_mass(plo, phi)
        return total

    c = np.array([cell_b(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])
    target = params.alpha - 2.0 * gaussian_pdf(z_cut)
    res = linprog(-c, A_eq=a.reshape(1, -1), b_eq=[target],
                  bounds=[(-1.0, 1.0)] * grid, method="highs")
    assert res.status == 0
    int_a = LAM * (2.0 * gaussian_cdf(eta) - 1.0) \
        + 2.0 * params.alpha * gaussian_pdf(eta)
    oracle_value = int_a - res.fun - 2.0 * LAM * gaussian_cdf(-z_cut)
    _, val = lp_maximize(params, grid)
    assert val == pytest.approx(oracle_value, abs=1e-8)


def test_lp_domain_errors(params):
    with pytest.raises(DomainError):
        lp_maximize(params, 32)
    with pytest.raises(DomainError):
        lp_maximize(ReedsParams(lam=LAM, alpha=0.799), 256)


def _lp_cells_reference(edges, eta, alpha, lam):
    """_lp_cells by cutting the grid at +-eta, integrating every piece and
    summing the pieces back into their grid cells with bincount."""
    pieces = np.union1d(edges, (-eta, eta))
    mid = 0.5 * (pieces[:-1] + pieces[1:])
    cell = np.searchsorted(edges, mid) - 1
    moments = gaussian_moments_array(pieces)
    b_int = np.where(np.abs(mid) < eta, -alpha * moments[1],
                     -lam * np.sign(mid) * moments[0])
    grid_size = len(edges) - 1
    a = np.bincount(cell, weights=moments[1], minlength=grid_size)
    c = np.bincount(cell, weights=b_int, minlength=grid_size)
    return a, c


def _walk_reference(ratio, weight, total, target):
    """_lp_walk by a stable sort of every cell and a loop over the tie
    groups, one at a time: a cell joins its predecessor's group when their
    ratios differ by at most 1e-12 (1 + |predecessor|).  A group's drop is
    summed by np.add.reduceat, as in the array walk: from 8 cells on it
    rounds differently from np.sum."""
    order = np.argsort(ratio, kind="stable")
    sorted_ratio = ratio[order]
    drop = 2.0 * weight[order]
    n = len(order)
    running = total
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(sorted_ratio[j] - sorted_ratio[j - 1]) <= 1e-12 * (
                1.0 + abs(sorted_ratio[j - 1])):
            j += 1
        group_drop = float(np.add.reduceat(drop[i:j], [0])[0])
        if running - group_drop >= target - 1e-15:
            running -= group_drop
            i = j
            continue
        denom = float(np.sum(weight[order[i:j]]))
        t = (target - (running - denom)) / denom
        return order, i, j, min(1.0, max(-1.0, t))
    return order, n, n, -1.0


def _lp_maximize_reference(params, grid_size):
    """lp_maximize with the tie groups of every cell walked one at a time."""
    alpha = params.alpha
    eta = params.eta
    z_cut = max(eta, solve_h(alpha)) + 1.0
    edges = np.linspace(-z_cut, z_cut, grid_size + 1)
    a, c = _lp_cells_reference(edges, eta, alpha, params.lam)
    target = alpha - 2.0 * gaussian_pdf(z_cut)
    abs_a = np.abs(a)
    # A zero-moment cell (the middle cell of an odd grid) has no ratio and
    # stays out of the walk at sign(0) = 0.
    walk = np.flatnonzero(abs_a > 0.0)
    order, lo, hi, t = _walk_reference(c[walk] / a[walk], abs_a[walk],
                                       abs_a.sum(), target)
    theta = np.sign(a)
    theta[walk[order[:lo]]] *= -1.0
    theta[walk[order[lo:hi]]] *= t
    value = (_int_A_full(params.lam, params.alpha, gaussian_cdf(-eta),
                         gaussian_pdf(eta))
             + float(np.dot(c, theta))
             - 2.0 * params.lam * gaussian_cdf(-z_cut))
    prof = Profile(z_cut=z_cut, breakpoints=tuple(edges[1:-1]),
                   values=tuple(theta))
    return prof, value


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_lp_cells_match(edges, eta, alpha, lam):
    a, c = _lp_cells(edges, eta, alpha, lam)
    ref_a, ref_c = _lp_cells_reference(edges, eta, alpha, lam)
    assert np.array_equal(_bits(a), _bits(ref_a)), (len(edges), eta)
    assert np.array_equal(_bits(c), _bits(ref_c)), (len(edges), eta)
    return a, c


def test_lp_cells_match_reference():
    # The grid cells are integrated directly, with +-eta splitting one cell
    # each, bit for bit as the piece union summed by bincount.
    zero_moment_cells = 0
    for grid in (64, 65, 1024, 1025, 16384):
        for lam in np.linspace(0.02, 0.35, 8):
            params = ReedsParams.at_reeds_point(float(lam))
            z_cut = max(params.eta, solve_h(params.alpha)) + 1.0
            edges = np.linspace(-z_cut, z_cut, grid + 1)
            a, c = _assert_lp_cells_match(edges, params.eta, params.alpha,
                                          params.lam)
            if grid % 2 and a[grid // 2] == 0.0:
                # A zero-moment middle cell (its edges are exact negatives)
                # has c = 0.0 + (-alpha * 0.0) = +0.0.
                assert _bits(c[grid // 2]) == _bits(0.0), lam
                zero_moment_cells += 1
    assert zero_moment_cells >= 8


def test_lp_cells_kinks_on_edges_or_in_one_cell():
    params = ReedsParams.at_reeds_point(LAM)
    eta, alpha, lam = params.eta, params.alpha, params.lam
    outer = np.linspace(eta, eta + 1.0, 40)
    inner = np.linspace(-eta, eta, 31)
    # +-eta both grid edges: no cell is split.
    both = np.concatenate((-outer[::-1], inner[1:-1], outer))
    assert np.isin((-eta, eta), both).all()
    _assert_lp_cells_match(both, eta, alpha, lam)
    # Only one of them a grid edge: the other splits its cell.
    right_only = np.concatenate((np.linspace(-eta - 1.0, 0.0, 50)[:-1],
                                 np.linspace(0.0, eta, 20), outer[1:]))
    assert eta in right_only and -eta not in right_only
    _assert_lp_cells_match(right_only, eta, alpha, lam)
    _assert_lp_cells_match(-right_only[::-1], eta, alpha, lam)
    # A small eta inside one cell: three pieces, summed left to right.
    for grid in (64, 65):
        edges = np.linspace(-1.0, 1.0, grid + 1)
        _assert_lp_cells_match(edges, 1e-3, 0.5, 5e-4)


def _lp_walk_cases():
    cases = [ReedsParams.at_reeds_point(float(lam))
             for lam in np.linspace(0.18, 0.215, 8)]
    for lam in (0.18, 0.215):
        alpha_star = ReedsParams.at_reeds_point(lam).alpha
        cases += [ReedsParams(lam, alpha) for alpha in
                  (0.3, alpha_star - 0.005, alpha_star + 0.005)]
    return cases


def test_lp_walk_matches_reference():
    # The array walk reproduces the per-group loop over every cell bit for
    # bit on even and odd grids, at the Reeds point (crossing in the first
    # group) and off it (alpha = 0.3 crosses in a later group), and
    # lp_maximize returns that per-cell function in canonical form: the same
    # theta everywhere, one cell per run of equal values.
    for grid in (64, 65, 1024, 1025, 16384, 16385):
        for params in _lp_walk_cases():
            _assert_lp_matches_reference(params, grid,
                                         *lp_maximize(params, grid))


def _assert_lp_matches_reference(params, grid, prof, value):
    """prof, value = lp_maximize(params, grid) is _lp_maximize_reference's
    per-cell function in canonical form, bit for bit."""
    case = (grid, params.lam, params.alpha)
    ref_prof, ref_value = _lp_maximize_reference(params, grid)
    assert value == ref_value, case
    edges = np.array(ref_prof.edges)
    z = np.concatenate((
        edges, np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf), 0.5 * (edges[:-1] + edges[1:]),
        (-np.inf, np.inf)))
    assert np.array_equal(_bits(prof.evaluate(z)),
                          _bits(ref_prof.evaluate(z))), case
    bits = _bits(prof.values)
    assert (bits[1:] != bits[:-1]).all(), case


def _lp_result(params, grid):
    prof, value = lp_maximize(params, grid)
    return value.hex(), profile_to_text(prof)


def _in_new_threads(fn, count=1):
    """fn() run in count new threads at once; their results in a list."""
    results = [None] * count

    def run(k):
        results[k] = fn()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
        assert not t.is_alive()
    return results


def test_lp_edges_are_linspace():
    # lp_maximize builds its grid edges in its work block, bit for bit as
    # np.linspace builds them.
    rng = np.random.default_rng(25)
    for grid in (1, 2, 3, 64, 65, 100, 1024, 1025, 3000, 16384, 16385):
        for z_cut in (*rng.uniform(1.0, 4.0, 5), 2.2, math.pi):
            out = rng.uniform(-1.0, 1.0, grid + 1)
            profiles._linspace(out, -z_cut, z_cut)
            want = np.linspace(-z_cut, z_cut, grid + 1)
            assert np.array_equal(_bits(out), _bits(want)), (grid, z_cut)


def test_lp_work_block_reuse_is_invisible():
    # lp_maximize runs in one work block per thread, kept for the last grid
    # size.  Calls interleaved across grid sizes, lambdas and the alpha = 0.3
    # path (every cell sorted) each return what the same call returns first,
    # in a thread of its own with no block yet, and match the reference.
    # They leave earlier results, and _lp_cells' own arrays, alone.
    cases = [(params, grid) for grid in (16384, 1025, 64, 16384)
             for params in (ReedsParams.at_reeds_point(0.18),
                            ReedsParams.at_reeds_point(LAM),
                            ReedsParams(0.2, 0.3))]
    first = {case: _in_new_threads(lambda: _lp_result(*case))[0]
             for case in dict.fromkeys(cases)}
    params = ReedsParams.at_reeds_point(LAM)
    z_cut = max(params.eta, solve_h(params.alpha)) + 1.0
    edges = np.linspace(-z_cut, z_cut, 16385)
    a, c = _lp_cells(edges, params.eta, params.alpha, params.lam)
    a_bits, c_bits = _bits(a).copy(), _bits(c).copy()
    earlier = []
    for params, grid in cases:
        prof, value = lp_maximize(params, grid)
        assert (value.hex(), profile_to_text(prof)) == first[params, grid]
        _assert_lp_matches_reference(params, grid, prof, value)
        earlier.append((prof, profile_to_text(prof)))
        _lp_cells(edges, 0.2, 0.5, 0.1)
    assert all(profile_to_text(p) == text for p, text in earlier)
    assert np.array_equal(_bits(a), a_bits)
    assert np.array_equal(_bits(c), c_bits)
    # One block per thread, for the last grid size only.
    assert profiles._lp_local.work.shape == (7, 16385)
    # More threads than cores at once, switching often, each in its own
    # block and interleaving the sizes.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = _in_new_threads(
            lambda: [_lp_result(*case) for case in cases], count=4)
    finally:
        sys.setswitchinterval(interval)
    assert results == [[first[case] for case in cases]] * 4


def _record_walk_passes(monkeypatch):
    """List that gets True for each windowed pass of the walk and False for
    each pass over every cell."""
    passes = []
    walk_groups = profiles._walk_groups

    def recorded(ratio, weight, total, target, sentinel):
        passes.append(sentinel is not None)
        return walk_groups(ratio, weight, total, target, sentinel)

    monkeypatch.setattr(profiles, "_walk_groups", recorded)
    return passes


def test_lp_walk_sorts_all_cells_only_when_needed(monkeypatch):
    # At the Reeds point the window of the smallest ratio settles the walk;
    # at alpha = 0.3 the crossing lies beyond it and every cell is sorted
    # (test_lp_walk_matches_reference checks both results bit for bit).
    passes = _record_walk_passes(monkeypatch)
    for lam in (0.18, 0.215):
        lp_maximize(ReedsParams.at_reeds_point(lam), 16384)
        assert passes == [True], lam
        passes.clear()
        lp_maximize(ReedsParams(lam, 0.3), 16384)
        assert passes == [True, False], lam
        passes.clear()


def _assert_walk_matches(ratio, weight, target):
    total = float(weight.sum())
    order, lo, hi, t = profiles._lp_walk(ratio, weight, total, target)
    ref_order, ref_lo, ref_hi, ref_t = _walk_reference(ratio, weight, total,
                                                       target)
    assert (lo, hi) == (ref_lo, ref_hi)
    assert np.array_equal(order[:hi], ref_order[:hi])
    assert _bits(t) == _bits(ref_t)
    return lo, hi


def test_lp_walk_synthetic_ratios(monkeypatch, rng):
    passes = _record_walk_passes(monkeypatch)
    weight = rng.uniform(0.1, 1.0, 12)
    total = weight.sum()
    # A tie chain: each ratio within the tolerance (1.2e-12 here) of the one
    # before, six of them spanning more than one tolerance, so the first
    # window (three cells) cuts the chain.  The target is crossed by those
    # three alone, but the sentinel does not close their group, so every
    # cell is sorted and the whole chain takes the fraction.
    chain = -0.2 + 0.45e-12 * np.arange(6)
    ratio = np.concatenate((chain, [0.1, 0.3, 0.3, 0.5, 0.7, 0.9]))
    perm = rng.permutation(12)
    ratio, w = ratio[perm], weight[perm]
    in_chain = perm < 6
    target = total - w[perm < 3].sum()
    assert _assert_walk_matches(ratio, w, target) == (0, 6)
    assert passes == [True, False]
    # The same chain crossed after it, in the tie group of 0.3.
    passes.clear()
    before = total - 2.0 * w[in_chain].sum() - 2.0 * w[perm == 6].sum()
    assert _assert_walk_matches(ratio, w, before - 0.1) == (7, 9)
    assert passes == [True, False]
    # All ratios equal: one group, and the window is every cell.
    passes.clear()
    assert _assert_walk_matches(np.full(12, 0.3), weight, 0.0) == (0, 12)
    assert passes == [False]
    # No crossing: the target takes every flip.
    passes.clear()
    assert _assert_walk_matches(ratio, w, -total) == (12, 12)
    assert passes == [True, False]
    # A closed first group: the window settles it.
    passes.clear()
    ratio = np.array([-0.5, 0.2, -0.5, 0.4, 0.2, -0.5])
    w = weight[:6]
    target = w.sum() - w[ratio < 0].sum()
    assert _assert_walk_matches(ratio, w, target) == (0, 3)
    assert passes == [True]
    # Random ratios with ties and near-ties, random targets.
    for _ in range(300):
        n = int(rng.integers(1, 40))
        ratio = rng.integers(-3, 4, n) * 0.25 + rng.choice(
            [0.0, 0.4e-12, 5e-12], n)
        w = rng.uniform(0.0, 1.0, n) + 1e-3
        _assert_walk_matches(ratio, w, rng.uniform(-1.0, 1.0) * w.sum())


def test_lp_fine_grid_masses_match_erfc(monkeypatch):
    # Grid-16384 cells are 1.5e-4 wide, so the outer masses come from
    # cell_masses' midpoint series.  Taken as erfc differences instead, they
    # move by up to 2.4e-12 relative, yet the canonical profile keeps its
    # text and the value moves by at most 2 ulp.  Grid-1024 cells (2.5e-3
    # wide) stay on erfc, bit for bit.
    def grid_c(params):
        z_cut = max(params.eta, solve_h(params.alpha)) + 1.0
        return [_lp_cells(np.linspace(-z_cut, z_cut, grid + 1), params.eta,
                          params.alpha, params.lam)[1] for grid in (16384, 1024)]

    def erfc_cell_masses_into(edges, out, work=None):
        out[:] = erfc_cell_masses(edges)
        return out

    cases = [ReedsParams.at_reeds_point(float(lam))
             for lam in np.linspace(0.18, 0.215, 8)]
    series = [(grid_c(params), lp_maximize(params, 16384))
              for params in cases]
    # The grid's outer cells take cell_masses_into, the cells cut at +-eta
    # cell_masses.
    monkeypatch.setattr(profiles, "cell_masses", erfc_cell_masses)
    monkeypatch.setattr(profiles, "cell_masses_into", erfc_cell_masses_into)
    for params, ((fine, coarse), (prof, value)) in zip(cases, series):
        erfc_fine, erfc_coarse = grid_c(params)
        # Most outer cells move, not only the two cut ones.
        assert np.count_nonzero(erfc_fine != fine) > 1000
        assert np.allclose(erfc_fine, fine, rtol=5e-12, atol=0.0)
        assert np.array_equal(_bits(erfc_coarse), _bits(coarse))
        ref_prof, ref_value = lp_maximize(params, 16384)
        assert profile_to_text(prof) == profile_to_text(ref_prof)
        assert abs(value - ref_value) <= 2 * math.ulp(ref_value)


def test_lp_canonical_odd_grid():
    # On an odd grid the zero-moment middle cell stays at +0.0 between the
    # fractional +-t runs.  The canonical profile must be constant on every
    # grid cell, cut only at grid edges, and equal bit for bit to the
    # per-cell profile rebuilt from its value on each cell.
    grid = 1025
    for lam in np.linspace(0.18, 0.215, 8):
        params = ReedsParams.at_reeds_point(float(lam))
        prof, _ = lp_maximize(params, grid)
        edges = np.linspace(-prof.z_cut, prof.z_cut, grid + 1)
        assert np.isin(prof.breakpoints, edges[1:-1]).all(), lam
        mid = 0.5 * (edges[:-1] + edges[1:])
        per_cell = Profile(z_cut=prof.z_cut, breakpoints=tuple(edges[1:-1]),
                           values=tuple(prof.evaluate(mid)))
        z = np.concatenate((
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            mid, (-np.inf, np.inf)))
        assert np.array_equal(_bits(prof.evaluate(z)),
                              _bits(per_cell.evaluate(z))), lam
        bits = _bits(prof.values)
        assert (bits[1:] != bits[:-1]).all(), lam
        assert _bits(prof.evaluate(0.0)) == _bits(0.0), lam
        assert _bits(per_cell.values[grid // 2]) == _bits(0.0), lam
        assert abs(moment(prof) - moment(per_cell)) <= 1e-15, lam
        assert moment(prof) == pytest.approx(params.alpha, abs=1e-12), lam


def test_per_cell_lp_text_still_loads():
    # A file with one value per grid cell, as lp_maximize once wrote, holds
    # the same function as the canonical profile and must still load.
    for lam in (0.18, LAM, 0.215):
        params = ReedsParams.at_reeds_point(lam)
        prof, _ = lp_maximize(params, 1024)
        ref_prof, _ = _lp_maximize_reference(params, 1024)
        loaded = profile_from_text(_profile_to_text_reference(ref_prof))
        assert loaded == ref_prof and len(loaded.values) == 1024
        gap_certificate(loaded, params)
        assert abs(moment(loaded) - moment(prof)) <= 1e-15, lam


# -- structural helpers ---------------------------------------------------------

def test_odd_part_basics():
    prof = Profile.constant(1.0, z_cut=1.0, tail_rule="const",
                            tail_values=(1.0, 1.0))
    oddp = odd_part(prof)
    assert np.allclose(oddp.evaluate(np.linspace(-3, 3, 50)), 0.0)
    already_odd = Profile(z_cut=1.0, breakpoints=(0.0,), values=(-0.4, 0.4))
    same = odd_part(already_odd)
    z = np.linspace(-2, 2, 50)
    assert np.allclose(same.evaluate(z), already_odd.evaluate(z))


def test_odd_part_preserves_V_and_moment(params, rng):
    for k in range(10):
        prof = sample_feasible_profile(int(rng.integers(1 << 30)), params)
        oddp = odd_part(prof)
        assert V_value(oddp, params) == pytest.approx(
            V_value(prof, params), abs=1e-12)
        assert moment(oddp) == pytest.approx(moment(prof), abs=1e-12)


def _tail_sign_defect(prof, eta, spec):
    hi = max(prof.z_cut, eta)
    inner = gauss_integrate(
        lambda z: np.where(np.abs(z) > eta,
                           np.abs(np.sign(z) - prof.evaluate(z)), 0.0),
        spec, kinks=list(prof.breakpoints) + [-eta, eta],
        interval=(-hi, hi))
    left, right = prof.tail_values
    start = max(eta, prof.z_cut)
    return inner + ((1.0 - right) + (1.0 + left)) * gaussian_cdf(-start)


def test_tail_equality_via_odd_part(params, rng, spec):
    for k in range(40):
        prof = sample_feasible_profile(int(rng.integers(1 << 30)), params)
        direct = _tail_sign_defect(prof, params.eta, spec)
        via_odd = _tail_sign_defect(odd_part(prof), params.eta, spec)
        assert direct == pytest.approx(via_odd, abs=1e-12)


def test_inner_moment_defect(params, eta_star):
    member = sample_theta_member(5, lam=LAM)
    assert abs(theta_moments(member, eta_star)[1]) <= 1e-13
    # theta = sign(z) on (-eta*, eta*): the inner first moment is s1
    inner_sign = Profile(z_cut=eta_star, breakpoints=(0.0,), values=(-1.0, 1.0))
    s1 = 2.0 * (gaussian_pdf(0.0) - gaussian_pdf(eta_star))
    assert theta_moments(inner_sign, eta_star)[1] == pytest.approx(
        s1, abs=1e-12)
    assert s1 == pytest.approx(0.0256680575, abs=1e-9)
    zeros = Profile.constant(0.0, z_cut=eta_star)
    assert theta_moments(zeros, eta_star)[1] == 0.0


# -- repair --------------------------------------------------------------------

def test_repair_already_member(eta_star):
    member = sample_theta_member(21, lam=LAM)
    repaired, cost = repair_to_theta(member, lam=LAM)
    assert cost <= 1e-12
    z = np.linspace(-eta_star * 0.99, eta_star * 0.99, 100)
    assert np.allclose(repaired.evaluate(z), member.evaluate(z), atol=1e-12)


def test_repair_bathtub_is_member(params, eta_star):
    tub = bathtub(solve_h(params.alpha), z_cut=eta_star)
    repaired, cost = repair_to_theta(tub, lam=LAM)
    assert cost <= 1e-12
    assert abs(theta_moments(repaired, eta_star)[1]) <= 1e-13


def test_repair_inner_sign(eta_star):
    # theta = sign(z) everywhere: maximal inner defect s1, tails already fine
    prof = Profile(z_cut=eta_star, breakpoints=(0.0,), values=(-1.0, 1.0))
    delta = abs(theta_moments(prof, eta_star)[1])
    repaired, cost = repair_to_theta(prof, lam=LAM)
    assert delta == pytest.approx(0.0256680575, abs=1e-9)
    assert cost <= 2.0 * delta / eta_star + 1e-12
    assert cost == pytest.approx(2.0 * delta / eta_star, rel=0.35)
    assert abs(theta_moments(repaired, eta_star)[1]) <= 1e-13
    assert repaired.tail_rule == "sign"
    assert repaired.z_cut == pytest.approx(eta_star, abs=0)


def test_repair_random_profiles(rng, eta_star, spec):
    for k in range(30):
        vals = rng.uniform(-1.0, 1.0, 10)
        z_cut = float(rng.uniform(0.15, 1.2))
        rough = Profile.from_grid(vals, z_cut=z_cut)
        repaired, cost = repair_to_theta(rough, lam=LAM)
        assert repaired.tail_rule == "sign"
        assert repaired.z_cut == pytest.approx(eta_star, abs=0)
        assert abs(theta_moments(repaired, eta_star)[1]) <= 1e-12
        delta = abs(theta_moments(rough, eta_star)[1])
        upper = _tail_sign_defect(rough, eta_star, spec) + 2.0 * delta / eta_star
        assert cost <= upper + 1e-10


def _repair_stress_profiles(rng, eta_star):
    """300 profiles for the repair: z_cut in {0.8, 1, 1.7} eta* and 1.0,
    values of +-(1 + 1e-15) among random ones, and breakpoints at or within
    1e-15 of +-eta* and +-eta*/2 where the window leaves room.

    Those with two edges (+-z_cut included) at most 1e-15 apart are not
    profiles: the constructor must reject them, and only the others are
    returned."""
    out = []
    for k in range(300):
        z_cut = (0.8 * eta_star, eta_star, 1.7 * eta_star, 1.0)[k % 4]
        points = set(rng.uniform(-z_cut, z_cut, int(rng.integers(0, 14))))
        for anchor in (-eta_star, eta_star, -eta_star / 2.0, eta_star / 2.0):
            if rng.uniform() < 0.6:
                points.add(anchor + float(rng.choice(
                    [0.0, -1e-15, 1e-15, float(rng.uniform(-1e-15, 1e-15))])))
        bp = sorted(p for p in points if -z_cut < p < z_cut)
        values = rng.uniform(-1.0, 1.0, len(bp) + 1)
        edge = rng.uniform(size=values.size) < 0.3
        values[edge] = np.where(values[edge] < 0.0, -1.0, 1.0) * (1.0 + 1e-15)
        edges = [-z_cut, *bp, z_cut]
        if min(b - a for a, b in zip(edges, edges[1:])) <= 1e-15:
            with pytest.raises(DomainError, match="more than 1e-15 apart"):
                Profile(z_cut=z_cut, breakpoints=bp, values=values)
        else:
            out.append(Profile(z_cut=z_cut, breakpoints=bp, values=values))
    return out


def _repair_bits(result):
    profile, cost = result
    return ([x.hex() for x in profile.breakpoints],
            [x.hex() for x in profile.values], profile.z_cut.hex(), cost.hex())


def test_repair_matches_five_partition_repair(rng, eta_star):
    # The last step's one shared partition against the parent's two
    # (tests/oracles.py): the repaired profile and the cost bit for bit.
    cases = [(prof, LAM) for prof in _repair_stress_profiles(rng, eta_star)]
    # sample_theta_member's rough profiles, seeds 0-99
    cases += [(Profile.from_grid(
        np.random.Generator(np.random.Philox(key=seed)).uniform(
            -1.0, 1.0, 16).tolist(), z_cut=solve_eta_star(LAMBDA_STAR)),
        LAMBDA_STAR) for seed in range(100)]
    for prof, lam in cases:
        assert (_repair_bits(repair_to_theta(prof, lam=lam))
                == _repair_bits(repair_to_theta_five_partitions(prof, lam=lam))
                ), profile_to_text(prof)


def _capacity_reference(profile, s, eta_star, t):
    """G(t) = int_{eta*/2 < |z| < t} z (sign(z) + s theta(z)) pdf, piece by
    piece (the folded form, one pdf difference per piece)."""
    half = eta_star / 2.0
    if t <= half:
        return 0.0
    cuts = sorted({half, t, *(abs(b) for b in profile.breakpoints
                              if half < abs(b) < t)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        th_pos = float(profile.evaluate(mid))
        th_neg = float(profile.evaluate(-mid))
        total += ((1.0 + s * th_pos) + (1.0 - s * th_neg)) \
            * interval_z_moment(a, b)
    return total


def test_repair_threshold_inverts_capacity(rng, eta_star):
    # the exact inversion against bisection on the piecewise capacity
    from grolab.profiles import _repair_threshold

    for k in range(20):
        fixed = Profile.from_grid(rng.uniform(-1.0, 1.0, 10), z_cut=eta_star)
        edges = fixed.edges
        inner = sum(v * interval_z_moment(a, b)
                    for a, b, v in zip(edges[:-1], edges[1:], fixed.values))
        s = 1.0 if inner >= 0.0 else -1.0
        delta = abs(inner)
        t0 = _repair_threshold(fixed, s, eta_star, delta)
        lo, hi = eta_star / 2.0, eta_star
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _capacity_reference(fixed, s, eta_star, mid) < delta:
                lo = mid
            else:
                hi = mid
        assert t0 == pytest.approx(0.5 * (lo + hi), abs=1e-12)
        assert _capacity_reference(fixed, s, eta_star, t0) == pytest.approx(
            delta, abs=1e-15)


# -- large-defect gap bound (lives in chain) ------------------------------------

def test_gap_lower_large_delta():
    lam_star = 0.19747909099498196
    v = gap_lower_large_delta(1e-10, 1e-12, lam_star)
    assert v == pytest.approx(4.558e-24, rel=1e-3)
    v2 = gap_lower_large_delta(1e-10, 0.0, lam_star)
    assert v2 == pytest.approx(0.98 / 8.0 * (1.25e-11) ** 2, rel=1e-12)
    assert v2 == pytest.approx(1.914e-23, rel=1e-3)
    v3 = gap_lower_large_delta(1.0, 0.0, lam_star)
    assert v3 == pytest.approx(0.98 / 8.0 * (1.0 / 8.0) ** 2, rel=1e-12)
    assert v3 == pytest.approx(0.0019141, rel=1e-4)
    with pytest.raises(DomainError):
        gap_lower_large_delta(1e-12, 1e-3, lam_star)  # inner expression <= 0


# -- serialization ----------------------------------------------------------------

def test_profile_text_roundtrip(rng):
    prof = Profile(z_cut=1.25, breakpoints=(-0.3, 0.1, 0.7),
                   values=(0.125, -1.0, 0.33333333333333331, 1.0))
    back = profile_from_text(profile_to_text(prof))
    assert back == prof
    const = Profile(z_cut=0.5, breakpoints=(), values=(0.1,),
                    tail_rule="const", tail_values=(-0.25, 0.75))
    assert profile_from_text(profile_to_text(const)) == const
    vals = rng.uniform(-1, 1, 7)
    rand = Profile.from_grid(vals, z_cut=float(rng.uniform(0.2, 3.0)))
    assert profile_from_text(profile_to_text(rand)) == rand


def test_profile_text_malformed():
    for text in ("1.0,0.5",                      # too few tokens
                 "1.0,0.0,1.0,-1.0,bogus",       # unknown tail token
                 "1.0,0.0,1.0,-1.0,const:0.5",   # tail token without both sides
                 "1.0,abc,0.5,0.5,sign",         # unparsable breakpoint
                 "1.0,0.0,0.5,0.5,const:x:0.2",  # unparsable tail constant
                 "1.0,0.0,nan,0.5,sign",         # NaN value
                 "1.0,0.0,0.5,0.5,const:nan:0.2",  # NaN tail constant
                 "1.0,0.0,1.5,0.5,sign",          # value outside [-1, 1]
                 # breakpoints 5e-16 apart, and one 5e-16 inside -z_cut
                 "1.0,0.25,0.2500000000000005,0.1,0.2,0.3,sign",
                 "1.0,-0.9999999999999995,0.1,0.2,sign"):
        with pytest.raises(DomainError):
            profile_from_text(text)


def _profile_to_text_reference(profile):
    tokens = [repr(profile.z_cut)]
    tokens.extend(repr(b) for b in profile.breakpoints)
    tokens.extend(repr(v) for v in profile.values)
    if profile.tail_rule == "sign":
        tokens.append("sign")
    else:
        left, right = profile.tail_values
        tokens.append(f"const:{left!r}:{right!r}")
    return ",".join(tokens)


def test_profile_text_matches_reference(params):
    lp_prof, _ = lp_maximize(params, 1024)
    cases = [
        lp_prof,
        Profile(z_cut=0.5, breakpoints=(-0.0,), values=(-0.0, 0.0),
                tail_rule="const", tail_values=(-0.0, 0.75)),
        Profile(z_cut=1.25, breakpoints=(-0.3, 1e-300, 0.7),
                values=(0.125, -1.0, 0.33333333333333331, 1.0)),
    ]
    for prof in cases:
        text = profile_to_text(prof)
        assert text == _profile_to_text_reference(prof)
        back = profile_from_text(text)
        assert back == prof and profile_to_text(back) == text


def test_profile_text_parser_tolerance():
    prof = profile_from_text(" 1.0 , 0.0,,0.5, 0.5 , sign")
    assert prof == Profile(z_cut=1.0, breakpoints=(0.0,), values=(0.5, 0.5))
    const = profile_from_text("\n0.5 ,\t0.1 ,const:-0.25:0.75\n")
    assert const.tail_values == (-0.25, 0.75) and const.values == (0.1,)
