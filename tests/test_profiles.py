import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from grolab.baseline import ReedsParams, solve_h
from grolab.errors import DomainError, FeasibilityError
from grolab.explorer import sample_feasible_profile, sample_theta_member
from grolab.gauss import (
    gauss_integrate,
    gaussian_cdf,
    gaussian_moments,
    gaussian_pdf,
    interval_mass,
    interval_z_moment,
)
from grolab.profiles import (
    A_B_eval,
    F_value_dual,
    Profile,
    V_value,
    _int_A_full,
    dual_value,
    gap_certificate,
    gap_lower_large_delta,
    gap_tail_integral,
    lp_maximize,
    moment,
    odd_part,
    profile_from_text,
    profile_to_text,
    repair_to_theta,
    theta_moments,
)

from conftest import LAM


# -- Profile type -------------------------------------------------------------

_INVALID_PROFILES = [
    # (z_cut, breakpoints, values, tail_rule, tail_values, message)
    (1.0, (0.5, 0.2), (0.0, 0.0, 0.0), "sign", (-1.0, 1.0), "strictly increasing"),
    (1.0, (0.2, 0.2), (0.0, 0.0, 0.0), "sign", (-1.0, 1.0), "strictly increasing"),
    (1.0, (1.5,), (0.0, 0.0), "sign", (-1.0, 1.0), "strictly inside"),
    (1.0, (-1.0,), (0.0, 0.0), "sign", (-1.0, 1.0), "strictly inside"),
    (1.0, (math.nan,), (0.0, 0.0), "sign", (-1.0, 1.0), "strictly inside"),
    (1.0, (0.5, 0.2, 1.5), (0.0,) * 4, "sign", (-1.0, 1.0), "strictly inside"),
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


def test_profile_fields_are_python_floats():
    from_tuple = Profile(z_cut=1.0, breakpoints=(0.0,), values=(-0.5, 0.5))
    from_array = Profile(z_cut=1.0, breakpoints=np.array([0.0]),
                         values=np.array([-0.5, 0.5], dtype=np.float32))
    assert from_array == from_tuple
    assert hash(from_array) == hash(from_tuple)
    assert repr(from_array) == repr(from_tuple)
    assert all(type(v) is float for v in from_array.breakpoints + from_array.values)
    with pytest.raises(ValueError):
        from_array.edges[0] = 0.0  # the cached edges are read-only


def test_profile_evaluate():
    prof = Profile(z_cut=1.0, breakpoints=(0.0,), values=(-0.5, 0.5))
    z = np.array([-2.0, -0.5, 0.5, 2.0])
    assert np.allclose(prof.evaluate(z), [-1.0, -0.5, 0.5, 1.0])
    const = Profile(z_cut=1.0, breakpoints=(), values=(0.25,),
                    tail_rule="const", tail_values=(0.1, -0.2))
    assert np.allclose(const.evaluate(np.array([-3.0, 0.0, 3.0])),
                       [0.1, 0.25, -0.2])


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
    tub = Profile.bathtub(h, z_cut=params.eta)
    assert moment(tub) == pytest.approx(params.alpha, abs=1e-13)


def test_moment_full_sign_profile():
    # theta = 1 on z > 0 (odd): the moment is the full first absolute moment
    prof = Profile(z_cut=2.0, breakpoints=(0.0,), values=(-1.0, 1.0))
    assert moment(prof) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-13)


def test_moment_zero_inner(params, eta_star):
    prof = Profile.constant(0.0, z_cut=eta_star)
    assert moment(prof) == pytest.approx(2.0 * gaussian_pdf(eta_star), abs=1e-13)
    assert moment(prof) == pytest.approx(params.alpha, abs=1e-12)


def test_V_bathtub_equals_denominator(params):
    h = solve_h(params.alpha)
    tub = Profile.bathtub(h, z_cut=params.eta)
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


def test_dual_value_matches_quadrature(params, spec):
    # the closed form against the adaptive oracle over a grid of mu
    eta = params.eta
    for mu in np.linspace(-1.5, 1.5, 61):
        mu = float(mu)
        kinks = [-eta, 0.0, eta]
        if -params.alpha < mu < 0.0:
            kinks += [-params.lam / mu, params.lam / mu]
        oracle = gauss_integrate(
            lambda z: A_B_eval(z, params)[0]
            + np.abs(A_B_eval(z, params)[1] - mu * z), spec, kinks=kinks)
        assert dual_value(mu, params) == pytest.approx(
            oracle + mu * params.alpha, abs=1e-13)


def test_F_value_dual_window(params):
    assert F_value_dual(params) == pytest.approx(
        (1.0 - LAM) / 1.676956674215576, abs=1e-10)
    with pytest.raises(DomainError):
        F_value_dual(ReedsParams(lam=LAM, alpha=params.alpha + 0.02))
    # inside the window the dual matches the exact discrete maximization
    for shift in (+0.005, -0.005):
        shifted = ReedsParams(lam=LAM, alpha=params.alpha + shift)
        _, lp_val = lp_maximize(shifted, 4096)
        assert F_value_dual(shifted) == pytest.approx(lp_val, abs=1e-10)


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
    prof, _ = lp_maximize(params, 1024)
    step = 2.0 * prof.z_cut / 1024
    edges = prof.edges
    for lo, hi, v in zip(edges[:-1], edges[1:], prof.values):
        if lo >= params.eta + step:
            assert v == 1.0
        if hi <= -params.eta - step:
            assert v == -1.0


def test_lp_small_alpha_bathtub():
    # alpha small enough that the fill threshold exceeds the kink
    small = ReedsParams(lam=LAM, alpha=0.3)
    h = solve_h(0.3)
    assert h > small.eta
    prof, _ = lp_maximize(small, 512)
    step = 2.0 * prof.z_cut / 512
    edges = prof.edges
    for lo, hi, v in zip(edges[:-1], edges[1:], prof.values):
        mid = 0.5 * (lo + hi)
        if step < mid < h - step:
            assert v == -1.0
        if h + step < mid < prof.z_cut - step:
            assert v == 1.0
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


def _lp_maximize_reference(params, grid_size):
    """lp_maximize with the tie groups walked one at a time."""
    alpha = params.alpha
    eta = params.eta
    z_cut = max(eta, solve_h(alpha)) + 1.0
    edges = np.linspace(-z_cut, z_cut, grid_size + 1)
    pieces = np.union1d(edges, (-eta, eta))
    mid = 0.5 * (pieces[:-1] + pieces[1:])
    cell = np.searchsorted(edges, mid) - 1
    moments = gaussian_moments(pieces)
    b_int = np.where(np.abs(mid) < eta, -alpha * moments[1],
                     -params.lam * np.sign(mid) * moments[0])
    a = np.bincount(cell, weights=moments[1], minlength=grid_size)
    c = np.bincount(cell, weights=b_int, minlength=grid_size)
    target = alpha - 2.0 * gaussian_pdf(z_cut)
    abs_a = np.abs(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(abs_a > 0.0, c / a, -np.inf)
    order = np.argsort(ratio, kind="stable")
    sorted_ratio = ratio[order]
    drop = 2.0 * abs_a[order]
    theta = np.where(a >= 0.0, 1.0, -1.0)
    i = 0
    n = len(order)
    running = abs_a.sum()
    while i < n:
        j = i
        while j + 1 < n and abs(sorted_ratio[j + 1] - sorted_ratio[i]) <= 1e-12 * (
                1.0 + abs(sorted_ratio[i])):
            j += 1
        group = order[i:j + 1]
        group_drop = float(np.sum(drop[i:j + 1]))
        if running - group_drop >= target - 1e-15:
            theta[group] = -np.sign(a[group])
            running -= group_drop
            i = j + 1
            continue
        rest = running - float(np.sum(abs_a[group]))
        denom = float(np.sum(abs_a[group]))
        t = (target - rest) / denom if denom > 0.0 else 0.0
        theta[group] = min(1.0, max(-1.0, t)) * np.sign(a[group])
        break
    value = _int_A_full(params) + float(np.dot(c, theta)) \
        - 2.0 * params.lam * gaussian_cdf(-z_cut)
    prof = Profile(z_cut=z_cut, breakpoints=tuple(edges[1:-1]),
                   values=tuple(np.clip(theta, -1.0, 1.0)))
    return prof, value


def test_lp_walk_matches_reference():
    # the array walk reproduces the per-group loop bit for bit on even grids
    for grid in (64, 1024, 16384):
        for lam in np.linspace(0.18, 0.215, 8):
            params = ReedsParams.at_reeds_point(float(lam))
            prof, value = lp_maximize(params, grid)
            ref_prof, ref_value = _lp_maximize_reference(params, grid)
            assert prof == ref_prof and value == ref_value, (grid, lam)
            assert profile_to_text(prof) == profile_to_text(ref_prof)


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
    tub = Profile.bathtub(solve_h(params.alpha), z_cut=eta_star)
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


# -- gap lower bounds ------------------------------------------------------------

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
                 "1.0,0.0,1.5,0.5,sign"):         # value outside [-1, 1]
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
