import math

import numpy as np
import pytest

from grolab.baseline import solve_h
from grolab import intervals
from grolab.errors import DomainError, FeasibilityError
from grolab.explorer import sample_theta_member
from grolab.gauss import gaussian_pdf
from grolab.pairing import (
    A_bound_check,
    K0_upper,
    PairingConstants,
    inner_constants,
    kappa_Q,
    signflip_check,
    transverse_bound,
)
from grolab.profiles import Profile

from conftest import LAM
from oracles import bathtub, gauss_integrate, hermite_eval


def test_inner_constants_reference(eta_star):
    p, s1, t2 = inner_constants(eta_star)
    assert p == pytest.approx(0.201840836034193, abs=1e-12)
    assert s1 == pytest.approx(0.0256680575214142, abs=1e-12)
    assert t2 == pytest.approx(0.00436174503419317, abs=1e-12)
    with pytest.raises(DomainError):
        inner_constants(0.0)


def test_inner_constants_match_integrals(rng):
    for eta in rng.uniform(0.05, 0.9, 50):
        eta = float(eta)
        p, s1, t2 = inner_constants(eta)
        box = [-eta, eta]
        p_q = gauss_integrate(lambda z: np.where(np.abs(z) < eta, 1.0, 0.0),
                              kinks=box)
        s_q = gauss_integrate(lambda z: np.where(np.abs(z) < eta, np.abs(z), 0.0),
                              kinks=box)
        t_q = gauss_integrate(lambda z: np.where(np.abs(z) < eta, z * z, 0.0),
                              kinks=box)
        assert p == pytest.approx(p_q, abs=1e-12)
        assert s1 == pytest.approx(s_q, abs=1e-12)
        assert t2 == pytest.approx(t_q, abs=1e-12)


def test_kappa_Q_reference(eta_star):
    b, a_max, kq = kappa_Q(eta_star)
    assert b == pytest.approx(-0.721715133242779, abs=1e-12)
    assert a_max == pytest.approx(0.000839319067615, abs=1e-12)
    assert kq == pytest.approx(0.086812004849191, abs=1e-12)
    with pytest.raises(DomainError):
        kappa_Q(-0.5)


def test_B_matches_quadrature(rng):
    for eta in rng.uniform(0.05, 0.9, 50):
        eta = float(eta)
        b, _, _ = kappa_Q(eta)
        b_q = 2.0 * gauss_integrate(
            lambda z: np.where(z >= eta, hermite_eval(3, z), 0.0), kinks=[eta])
        assert b == pytest.approx(b_q, abs=1e-12)


def test_transverse_bound(eta_star):
    p, s1, t2 = inner_constants(eta_star)
    assert transverse_bound(p, s1, t2) == pytest.approx(
        0.0414080846777763, abs=1e-12)
    assert transverse_bound(0.0, 0.0, 0.0) == 0.0
    assert transverse_bound(1.0, 0.0, 0.0) == 1.0
    with pytest.raises(DomainError):
        transverse_bound(-0.1, 0.0, 0.0)


def test_pairing_lower_bound(eta_star):
    val = PairingConstants.at_eta(eta_star).pairing_lower
    assert val == pytest.approx(0.0454039202, abs=1e-9)
    assert val > 0.0454
    # small-eta limit: kappa_Q tends to (2 pdf(0))^2 / 6
    _, _, kq = kappa_Q(1e-9)
    assert kq == pytest.approx((2.0 * gaussian_pdf(0.0)) ** 2 / 6.0, abs=1e-9)
    assert kq == pytest.approx(0.1061, abs=1e-4)


def test_K0_upper(eta_star):
    val = PairingConstants.at_eta(eta_star).K0_upper
    assert val <= 0.359
    b, a_max, _ = kappa_Q(eta_star)
    assert (abs(b) + a_max) ** 2 <= 0.7226 ** 2
    # at eta = 1 the tail term B vanishes and only A_max + transverse remain
    b1, a1, _ = kappa_Q(1.0)
    assert b1 == 0.0
    p, s1, t2 = inner_constants(1.0)
    assert K0_upper(b1, a1, transverse_bound(p, s1, t2)) == pytest.approx(
        math.sqrt(a1 ** 2 / 6.0 + transverse_bound(p, s1, t2)), abs=1e-14)


def test_pairing_constants_dataclass(eta_star):
    cons = PairingConstants.at_eta(eta_star)
    assert cons.kappa_Q == pytest.approx(
        (cons.B ** 2 - cons.A_max ** 2) / 6.0, abs=1e-18)
    assert cons.transverse == pytest.approx(
        cons.p ** 2 + cons.s1 ** 2 + cons.t2 ** 2 / 2.0, abs=1e-18)
    assert cons.pairing_lower == pytest.approx(
        cons.kappa_Q - cons.transverse, abs=1e-18)
    assert cons.pairing_lower > 0.0454


def test_interval_at_eta_takes_pdf_once(monkeypatch, eta_star):
    # pdf(0) is the constant INV_SQRT_2PI, so the interval constants need one
    # density value, pdf(eta): once in kappa_Q and once in inner_constants.
    calls = []
    original = intervals.gaussian_pdf_iv

    def counted(z):
        calls.append(z)
        return original(z)

    monkeypatch.setattr(intervals, "gaussian_pdf_iv", counted)
    eta = intervals.Interval.exact(eta_star)
    PairingConstants.at_eta(eta)
    assert calls == [eta, eta]


def test_A_bound_trivial_and_bathtub(params, eta_star):
    zeros = Profile.constant(0.0, z_cut=eta_star)
    a_val, bound = A_bound_check(zeros, eta_star)
    assert a_val == 0.0
    assert bound == pytest.approx(0.000839319067615, abs=1e-12)
    tub = bathtub(solve_h(params.alpha), z_cut=eta_star)
    a_val, bound = A_bound_check(tub, eta_star)
    assert a_val <= bound + 1e-12


def test_A_bound_random_members(eta_star):
    for seed in range(60):
        member = sample_theta_member(5000 + seed, lam=LAM)
        a_val, bound = A_bound_check(member, eta_star)
        assert a_val <= bound + 1e-10


def test_A_bound_hypothesis_enforced(eta_star):
    lopsided = Profile.constant(0.9, z_cut=eta_star)
    lopsided = Profile(z_cut=eta_star, breakpoints=(0.0,), values=(-0.2, 0.9))
    with pytest.raises(FeasibilityError):
        A_bound_check(lopsided, eta_star)


def test_mombd_perturbed_profile(eta_star):
    # an L2-small perturbation of a sign-tailed profile keeps the moment > .6
    from grolab.profiles import moment
    base = sample_theta_member(77, lam=LAM)
    nudged_values = tuple(
        min(1.0, max(-1.0, v + 0.008)) for v in base.values)
    nudged = Profile(z_cut=base.z_cut, breakpoints=base.breakpoints,
                     values=nudged_values)
    assert abs(moment(nudged)) > 0.6


def test_signflip_examples():
    assert signflip_check(1.0, 0.5, 0.1) == pytest.approx((0.95, 0.95), abs=0)
    lhs, rhs = signflip_check(0.01, 1.0, 0.1)
    assert lhs == pytest.approx(0.09, abs=1e-15)
    assert rhs == pytest.approx(0.11, abs=1e-15)
    lhs, rhs = signflip_check(-3.0, 2.0, 0.0)
    assert lhs == rhs == 3.0
    with pytest.raises(DomainError):
        signflip_check(1.0, 1.0, -0.1)


def test_signflip_random_bulk(rng):
    n = 1_000_000
    a = rng.uniform(-10, 10, n)
    b = rng.uniform(-10, 10, n)
    beta = rng.uniform(0, 1, n)
    lhs, rhs = signflip_check(a, b, beta)
    assert np.all(lhs <= rhs + 1e-12)


def test_t2_identity(eta_star):
    # 2 eta* pdf(eta*) = lambda at the solved point, so t2 = p - lambda
    p, _, t2 = inner_constants(eta_star)
    assert t2 == pytest.approx(p - LAM, abs=1e-12)
