import math
from fractions import Fraction

import numpy as np
import pytest

from grolab.baseline import (DAVIE_REEDS_C, LAMBDA_STAR, _bound_derivative,
                             _denominator, solve_eta_star)
from grolab.chain import (
    ALPHA_MIN,
    BETA_STAR,
    C_z0,
    EPSILON_STAR,
    K_strip,
    KAPPA0,
    L0_bound,
    P3_COEFF,
    STRIP_Z0,
    final_branches,
    final_chain,
    kappa_eff,
    kg_lower_bound,
    log_tail_envelope_margin,
    neighborhood_drop,
    sign_stability,
    strip_case_checks,
    strip_z0,
)
from grolab.claims import LAM_LIT, PAIRING
from grolab.errors import DomainError
from grolab.intervals import Interval
from grolab.pairing import K0_upper, PairingConstants


def _poly(z):
    """q(z) = H3^2/6 + H2^2/2 + z^2 + 1, in the same operation order as C_z0."""
    z2 = z * z
    return (z2 * z - 3.0 * z) ** 2 / 6.0 + (z2 - 1.0) ** 2 / 2.0 + z2 + 1.0


# 0, the strip point, the z0 of both neighborhood-drop betas, and past z = 1.
_Z0S = (0.0, 0.2, 0.36, strip_z0(1e-10), strip_z0(BETA_STAR), 1.7)


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_C_z0_derivative_is_nonnegative():
    # q = H3^2/6 + H2^2/2 + z^2 + 1 in exact rationals, coefficients low first
    h3 = [0, -3, 0, 1]
    h2 = [-1, 0, 1]
    q = [Fraction(0)] * 7
    for k, c in enumerate(_polymul(h3, h3)):
        q[k] += c / 6
    for k, c in enumerate(_polymul(h2, h2)):
        q[k] += c / 2
    q[2] += 1
    q[0] += 1
    dq = [k * c for k, c in enumerate(q)][1:]
    assert dq == [0, 3, 0, -2, 0, 1]
    # q' = z ((z^2 - 1)^2 + 2), nonnegative for z >= 0: q increases there
    shifted = _polymul(h2, h2)
    shifted[0] += 2
    assert _polymul([0, 1], shifted) == dq


def test_C_z0_values():
    val = C_z0(0.36)
    assert val == pytest.approx(1.6864, abs=1e-4)
    assert val <= 1.7
    assert C_z0(0.0) == 1.5
    assert C_z0(0.2) <= C_z0(0.36)
    with pytest.raises(DomainError):
        C_z0(-0.1)
    for z0 in _Z0S:
        # the sup sits at the endpoint: exactly q(z0)
        assert C_z0(z0) == _poly(z0)


def test_C_z0_resolution_convergence():
    # independent grid-sup oracles agree with C_z0 and are stable under
    # doubling the scan resolution
    for z0 in _Z0S:
        coarse, fine = (float(np.max(_poly(np.linspace(0.0, z0, n))))
                        for n in (100001, 200001))
        for oracle in (coarse, fine):
            assert oracle <= C_z0(z0) + 1e-15
            assert oracle == pytest.approx(C_z0(z0), abs=1e-9)
        assert abs(fine - coarse) < 1e-6


def _own_interval_cases():
    """id -> (f, rel): f(num) evaluates one shared formula with its inputs
    made by num, float or Interval.exact; rel bounds the relative width."""
    eta = solve_eta_star(LAM_LIT)
    cases = {f"C_z0({z0!r})": (lambda num, z0=z0: C_z0(num(z0)), 1e-14)
             for z0 in _Z0S}
    cases["K_strip"] = (lambda num: K_strip(num(STRIP_Z0), ALPHA_MIN), 1e-14)
    cases["L0_bound"] = (lambda num: L0_bound(num(ALPHA_MIN)), 1e-14)
    cases["kappa_eff"] = (lambda num: kappa_eff(num(EPSILON_STAR)), 1e-12)
    for beta in (1e-10, BETA_STAR):
        cases[f"neighborhood_drop({beta:g})"] = (
            lambda num, beta=beta: neighborhood_drop(num(beta)), 1e-12)
    for name in PAIRING:
        cases[f"pairing_{name}"] = (
            lambda num, name=name: getattr(PairingConstants.at_eta(num(eta)),
                                           name), 1e-11)
    cases["K0_upper"] = (lambda num: K0_upper(num(eta)), 1e-14)
    cases["denominator"] = (
        lambda num: _denominator(num(LAM_LIT), num(eta)), 1e-14)
    for side, lam in (("-", LAMBDA_STAR - 1e-8), ("+", LAMBDA_STAR + 1e-8)):
        # the slope is ~7.5e-8 here, a difference of O(1) terms
        cases[f"derivative(lambda*{side}1e-8)"] = (
            lambda num, lam=lam: _bound_derivative(num(lam),
                                                   num(solve_eta_star(lam))),
            1e-5)
    cases["final_drop"] = (lambda num: final_branches(num(BETA_STAR))[1], 1e-14)
    cases["kg_increment"] = (
        lambda num: kg_lower_bound(final_branches(num(BETA_STAR))[1],
                                   num(LAMBDA_STAR), num(DAVIE_REEDS_C)), 1e-14)
    return cases


_OWN_INTERVAL_CASES = _own_interval_cases()


@pytest.mark.parametrize("case", _OWN_INTERVAL_CASES)
def test_float_inside_own_interval(case):
    # the float report's value lies in the interval evaluation of the same
    # formula at the same inputs, and that enclosure is tight
    f, rel = _OWN_INTERVAL_CASES[case]
    value, iv = f(float), f(Interval.exact)
    assert iv.lo <= value <= iv.hi
    assert iv.width <= rel * abs(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(DomainError):
        C_z0(bad)
    with pytest.raises(DomainError):
        K_strip(bad, 0.6)
    with pytest.raises(DomainError):
        K_strip(0.36, bad)
    with pytest.raises(DomainError):
        L0_bound(bad)
    with pytest.raises(DomainError):
        neighborhood_drop(bad)
    with pytest.raises(DomainError):
        kappa_eff(bad)


def test_K_strip():
    val = K_strip(0.36, 0.6)
    assert val <= 7.0
    assert val == pytest.approx(
        8.0 * math.sqrt(C_z0(0.36)) / (0.6 * math.sqrt(2 * math.pi)), abs=1e-12)
    assert K_strip(0.36, 0.3) == pytest.approx(2.0 * val, rel=1e-12)
    with pytest.raises(DomainError):
        K_strip(0.36, 0.0)


def test_L0_bound():
    assert L0_bound(0.6) == pytest.approx(2.6596, abs=1e-4)
    assert L0_bound(0.6) <= 2.66
    assert L0_bound(1.0) == pytest.approx(1.5958, abs=1e-4)
    assert L0_bound(0.3) == pytest.approx(2.0 * L0_bound(0.6), rel=1e-12)
    with pytest.raises(DomainError):
        L0_bound(-1.0)


def test_P3_COEFF():
    coeff = (math.e / math.sqrt(3.0)) ** 3
    assert coeff == pytest.approx(3.86546, abs=1e-4)
    assert coeff <= P3_COEFF
    # the projection leak kappa_eff subtracts at epsilon = 1e-7
    leak = P3_COEFF * 1e-7 * math.log(2e7) ** 1.5
    assert leak == pytest.approx(2.667e-5, abs=1e-8)


def test_sign_stability():
    val = sign_stability(1e-7)
    # together with the projection leak this reproduces the 0.0396 loss
    leak = 3.87 * 1e-7 * math.log(2e7) ** 1.5
    total = val * 0.359 + leak
    assert 0.0395 <= total <= 0.0396
    assert sign_stability(1e-9) < val
    eps = np.geomspace(1e-9, 9e-3, 30)
    vals = [sign_stability(float(e)) for e in eps]
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        sign_stability(0.02)


def test_kappa_eff():
    val = kappa_eff(1e-7)
    assert val >= 0.0058
    assert val == pytest.approx(0.005880, abs=1e-5)
    # the loss terms vanish as epsilon -> 0 (slowly: epsilon^{1/4} dominates)
    assert kappa_eff(1e-20) == pytest.approx(KAPPA0, abs=1e-3)
    assert kappa_eff(1e-4) < 0.0
    eps = np.geomspace(1e-9, 9e-3, 30)
    vals = [kappa_eff(float(e)) for e in eps]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_neighborhood_drop():
    for beta in (1e-10, 1e-12, 1e-20, 8e-25):
        drop = neighborhood_drop(beta)
        assert drop >= 0.0057 * beta
    assert K_strip(strip_z0(1e-10), ALPHA_MIN) * (1e-10) ** 0.7 <= 1e-6
    keff = kappa_eff(EPSILON_STAR)
    assert neighborhood_drop(1e-30) / 1e-30 == pytest.approx(keff, abs=1e-9)


def test_chain_input_validation():
    for bad in (0.0, -1e-10, 1.0, 2.0):
        with pytest.raises(DomainError):
            neighborhood_drop(bad)
    for bad in (0.0, -1e-7, 0.01, 0.5):
        with pytest.raises(DomainError):
            kappa_eff(bad)
        with pytest.raises(DomainError):
            sign_stability(bad)


def test_strip_z0_clears_the_strip_floor():
    # The strip argument needs z0 >= lambda/alpha_min + beta^rho/alpha_min;
    # strip_z0 adds the same beta^rho/alpha_min to 1/3, so the floor holds
    # for every beta exactly when 1/3 >= lambda/alpha_min = 0.32913.
    assert LAMBDA_STAR / ALPHA_MIN == pytest.approx(0.32913, abs=1e-5)
    assert 1.0 / 3.0 >= LAMBDA_STAR / ALPHA_MIN
    for beta in (1e-30, 1e-10, BETA_STAR, 0.5):
        assert strip_z0(beta) >= (LAMBDA_STAR + beta ** 0.7) / ALPHA_MIN


def test_final_chain_reference():
    report = final_chain(BETA_STAR)
    assert report.final_drop == pytest.approx(4.56e-27, abs=1e-30)
    b1, b2, b3 = report.branches
    assert b1 == pytest.approx(-4.56e-27, abs=1e-33)
    assert b2 == pytest.approx(-1e-25, abs=1e-31)
    assert b3 == pytest.approx(-3.758e-24, abs=1e-27)
    assert report.kg_increment >= 1.596e-26
    assert report.kg_increment > 1e-26
    assert report.beta_star == BETA_STAR
    assert kappa_eff(EPSILON_STAR) >= 0.0058


def test_final_chain_large_beta_no_drop():
    report = final_chain(4e-24)
    assert report.branches[1] > 0.0
    assert report.final_drop <= 0.0
    assert report.kg_increment == 0.0
    with pytest.raises(DomainError):
        final_chain(1e-9)
    with pytest.raises(DomainError):
        final_chain(0.0)


def test_final_drop_monotone_in_beta():
    betas = np.geomspace(1e-27, 8.8e-25, 25)
    drops = [final_chain(float(b)).final_drop for b in betas]
    assert all(d1 < d2 for d1, d2 in zip(drops, drops[1:]))


def test_kg_lower_bound():
    inc = kg_lower_bound(4.56e-27, LAMBDA_STAR, DAVIE_REEDS_C)
    assert inc >= 1.596e-26
    norm = (1.0 - LAMBDA_STAR) / DAVIE_REEDS_C
    assert inc == pytest.approx(DAVIE_REEDS_C * 4.56e-27 / norm, rel=1e-15)
    with pytest.raises(DomainError):
        kg_lower_bound(0.0, LAMBDA_STAR, DAVIE_REEDS_C)


def test_gaussian_tail_envelope():
    for a in np.linspace(2.3, 40.0, 2000):
        assert log_tail_envelope_margin(float(a)) >= 0.0
    with pytest.raises(DomainError):
        log_tail_envelope_margin(2.0)


def test_gaussian_tail_envelope_matches_mpmath():
    # 200-bit references; scipy.stats' own logsf/logpdf form is off by up to
    # 2.5e-13 near a = 37, too coarse to referee 1e-14
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        c = mpmath.log(mpmath.mpf(0.583))
        for a in np.linspace(2.3, 40.0, 400):
            a = float(a)
            log_sf = mpmath.log(mpmath.ncdf(-a))
            ref = c + log_sf + mpmath.log(-log_sf) - mpmath.log(mpmath.npdf(a))
            assert log_tail_envelope_margin(a) == pytest.approx(
                float(ref), rel=1e-14, abs=1e-14)
        q = mpmath.mpf(1.25e-10)
        a_q = mpmath.findroot(lambda x: mpmath.ncdf(-x) - q, 6.3)
        halfspace_ref = float(2 * mpmath.npdf(a_q))
    halfspace = dict((name, value) for name, value, _, _ in
                     strip_case_checks())["halfspace_moment <= envelope"]
    assert halfspace == pytest.approx(halfspace_ref, rel=1e-14)


def test_strip_case_checks():
    checks = strip_case_checks()
    assert len(checks) == 8
    for name, value, bound, ok in checks:
        assert ok, f"{name}: {value} vs {bound}"

