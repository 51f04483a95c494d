import math
from fractions import Fraction

import numpy as np
import pytest

from grolab.baseline import (DAVIE_REEDS_C, LAMBDA_STAR, _argmax_equation,
                             _denominator, solve_eta_argmax, solve_eta_star)
from grolab.chain import (
    ALPHA_MIN,
    BETA_STAR,
    C_z0,
    EPSILON_STAR,
    K_strip,
    KAPPA0,
    L0_bound,
    P3_COEFF,
    final_chain,
    kappa_eff,
    kg_lower_bound,
    log_tail_envelope_margin,
    neighborhood_drop,
    sign_stability,
    strip_facts,
    strip_z0,
)
from grolab import claims
from grolab.claims import CLAIMS, LAM_LIT, PAIRING, Inputs
from grolab.errors import DomainError
from grolab.intervals import Interval


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


# Case ids named after the value's producer (the PairingConstants field, the
# drop at a beta) rather than the claim label, as the cases were first named.
_CASE_IDS = {**{name: f"pairing_{name}" for name in PAIRING},
             **{f"neighborhood_drop_per_beta_{beta:g}":
                f"neighborhood_drop({beta:g})" for beta in (1e-10, BETA_STAR)}}
# Relative width budgets of the claims' enclosures, 1e-14 where not listed:
# the pairing constants (pairing_lower_vs_KAPPA0 is one) and kappa_eff go
# through log, pow and differences;
# kg_increment_exceeds subtracts the argmax gap, whose enclosure is [0, g]
# with g the bound on the gap (about 1.5e-29 at point inputs).
_CLAIM_REL = {**{name: 1e-11 for name in PAIRING},
              "pairing_lower_vs_KAPPA0": 1e-11, "kappa_eff": 1e-12,
              **{f"neighborhood_drop_per_beta_{beta:g}": 1e-12
                 for beta in (1e-10, BETA_STAR)},
              "kg_increment_exceeds": 1e-3,
              # 2 Phi(eta) - 1 and 1 - exp(-eta^2/2) lose digits to
              # cancellation: 1.0e-14 and 1.9e-14 here, 1.5e-14 and 2.2e-14
              # at the certified eta enclosure
              "strip_half_strip_moment": 3e-14, "strip_b_moment": 3e-14}
# Absolute width budgets, for claims whose value is near 0: F' at alpha* is
# 4.4e-16, its enclosure 2.9e-15 wide.
_CLAIM_ABS = {"F_prime_at_alpha_star": 5e-15}


def _claim_inputs(num):
    """claims.Inputs with eta at the float roots, as num's number."""
    return Inputs(num, lambda lam: num(solve_eta_star(lam)),
                  lambda: num(solve_eta_argmax()))


def _own_interval_cases():
    """id -> (f, rel, abs): f(num) evaluates one shared formula with its
    inputs made by num, float or Interval.exact; the width is at most rel
    times the value, or at most abs.
    Every claims.CLAIMS entry, plus C_z0 at more points, the denominator and
    the argmax equation."""
    cases = {_CASE_IDS.get(c.label, c.label):
             (lambda num, c=c: c.formula(_claim_inputs(num)),
              _CLAIM_REL.get(c.label, 1e-14), _CLAIM_ABS.get(c.label, 0.0))
             for c in CLAIMS}
    eta = solve_eta_star(LAM_LIT)
    cases.update({f"C_z0({z0!r})":
                  (lambda num, z0=z0: C_z0(num(z0)), 1e-14, 0.0)
                  for z0 in _Z0S})
    cases["denominator"] = (
        lambda num: _denominator(num(LAM_LIT), num(eta)), 1e-14, 0.0)
    for eta_s in (0.1, 0.7):
        # S ~ 0.2-0.4 here, a sum of O(1) terms with erf's 8-ulp margin
        cases[f"argmax_equation({eta_s})"] = (
            lambda num, eta_s=eta_s: _argmax_equation(num(eta_s)), 1e-13, 0.0)
    return cases


_OWN_INTERVAL_CASES = _own_interval_cases()


@pytest.mark.parametrize("num", [float, Interval.exact])
def test_inputs_take_kg_increment_once(monkeypatch, num):
    # kg_increment and kg_increment_exceeds read one cached increment
    calls = []
    original = claims.kg_increment

    def counted(drop, eta):
        calls.append((drop, eta))
        return original(drop, eta)

    monkeypatch.setattr(claims, "kg_increment", counted)
    x = _claim_inputs(num)
    values = [c.formula(x) for c in CLAIMS if c.name.startswith("kg_increment")]
    assert len(values) == 2
    assert calls == [(x.drop, x.eta_lambda_star)]


@pytest.mark.parametrize("case", _OWN_INTERVAL_CASES)
def test_float_inside_own_interval(case):
    # the float report's value lies in the interval evaluation of the same
    # formula at the same inputs, and that enclosure is tight
    f, rel, abs_width = _OWN_INTERVAL_CASES[case]
    value, iv = f(float), f(Interval.exact)
    assert iv.lo <= value <= iv.hi
    assert iv.width <= max(rel * abs(value), abs_width)


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


def test_final_chain_increment_is_the_claims_increment():
    # one increment formula: final_chain and both kg_increment claims agree
    # bit for bit
    x = _claim_inputs(float)
    values = {c.formula(x) for c in CLAIMS if c.name.startswith("kg_increment")}
    assert values == {final_chain(BETA_STAR).kg_increment}


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


def test_strip_halfspace_proof_at_200_bits():
    # the Mills-ratio argument behind strip_halfspace_margin, at 200 bits:
    # the root a of Phi(-a) = q lies in (1, a0), and 2 pdf(a) sits under the
    # closed form 2 q (a0^2 + 1)/a0, which sits under the envelope
    mpmath = pytest.importorskip("mpmath")
    facts = strip_facts(solve_eta_star(LAMBDA_STAR))
    with mpmath.workprec(200):
        q = mpmath.mpf(1.25) * mpmath.mpf(1e-10)
        a0 = mpmath.sqrt(2 * mpmath.log(1 / q))
        a = mpmath.findroot(lambda x: mpmath.ncdf(-x) - q, 6.3)
        assert 1 < a < a0
        closed = 2 * q * (a0 * a0 + 1) / a0
        envelope = mpmath.mpf(0.583) * mpmath.mpf(2.5) * mpmath.mpf(1e-10) \
            * mpmath.log(1 / q)
        assert 2 * mpmath.npdf(a) <= closed <= envelope
        margin = float(envelope - closed)
    assert facts["strip_halfspace_margin"] == pytest.approx(margin, rel=1e-14)


def test_strip_facts_keep_their_bits():
    # the seven strip values besides the half-space margin (checked at 200
    # bits above), bit for bit, and every fact on its side of its bound
    facts = strip_facts(solve_eta_star(LAMBDA_STAR))
    assert {name: value.hex() for name, value in facts.items()
            if name != "strip_halfspace_margin"} == {
        "strip_envelope": "0x1.c8c71216926dcp-29",
        "strip_half_strip_moment": "0x1.49d2522ffb3b7p-4",
        "strip_b_moment": "0x1.a48ba2e66d580p-7",
        "strip_delta": "0x1.6355ce85398f7p-25",
        "strip_omega": "0x1.176fefbf3d6efp-22",
        "strip_quarter_strip_mass": "0x1.9d5eba6dedc48p-5",
        "strip_contradiction_total": "0x1.8ea678636992cp-24",
    }
    for name, relation, bound in claims.STRIP:
        assert (facts[name] >= bound if relation == ">="
                else facts[name] <= bound), name
