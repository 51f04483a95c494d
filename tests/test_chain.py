import math

import numpy as np
import pytest

from grolab.baseline import DAVIE_REEDS_C, LAMBDA_STAR
from grolab.chain import (
    BETA_STAR,
    C_z0,
    ChainParams,
    K_strip,
    KAPPA0,
    K0,
    L0,
    L0_bound,
    final_chain,
    flip_correction,
    h3_tail_bound,
    kappa_eff,
    kg_lower_bound,
    l1_projection_bounds,
    log_tail_envelope_margin,
    neighborhood_drop,
    sign_stability,
    strip_case_checks,
)
from grolab.errors import DomainError


def _poly(z):
    return (z ** 3 - 3 * z) ** 2 / 6.0 + (z * z - 1) ** 2 / 2.0 + z * z + 1.0


def test_C_z0_values():
    val = C_z0(0.36)
    # independent coarse grid-sup oracle
    oracle = max(_poly(z) for z in np.linspace(0, 0.36, 200001))
    assert val == pytest.approx(oracle, abs=1e-9)
    assert val == pytest.approx(1.6864, abs=1e-4)
    assert val <= 1.7
    assert C_z0(0.0) == 1.5
    assert C_z0(0.2) <= C_z0(0.36)
    with pytest.raises(DomainError):
        C_z0(-0.1)


def test_C_z0_resolution_convergence():
    # the sup is stable under doubling the scan resolution
    coarse = max(_poly(z) for z in np.linspace(0, 0.36, 50001))
    fine = max(_poly(z) for z in np.linspace(0, 0.36, 100001))
    assert abs(C_z0(0.36) - fine) < 1e-6
    assert abs(fine - coarse) < 1e-6


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


def test_l1_projection_bounds():
    p1, p3 = l1_projection_bounds(1e-2)
    assert p1 == pytest.approx(0.5e-2 * math.log(100.0), abs=1e-12)
    assert p1 == pytest.approx(0.02303, abs=1e-5)
    coeff = (math.e / math.sqrt(3.0)) ** 3
    assert coeff == pytest.approx(3.86546, abs=1e-4)
    assert coeff <= 3.87
    assert p3 == pytest.approx(coeff * 1e-2 * math.log(100.0) ** 1.5, abs=1e-12)
    # the log(2/eps) variant used downstream
    leak = 3.87 * 1e-7 * math.log(2e7) ** 1.5
    assert leak == pytest.approx(2.667e-5, abs=1e-8)
    with pytest.raises(DomainError):
        l1_projection_bounds(0.02)
    with pytest.raises(DomainError):
        l1_projection_bounds(0.0)


def test_h3_tail_bound():
    assert h3_tail_bound(math.e) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert h3_tail_bound(8.0 * math.e) == pytest.approx(math.exp(-2.5), abs=1e-15)
    assert 2.0 * h3_tail_bound(1e3) < 1e-10
    with pytest.raises(DomainError):
        h3_tail_bound(2.0)


def test_sign_stability():
    val = sign_stability(1e-7, 2.66, LAMBDA_STAR)
    # together with the projection leak this reproduces the 0.0396 loss
    leak = 3.87 * 1e-7 * math.log(2e7) ** 1.5
    total = val * 0.359 + leak
    assert 0.0395 <= total <= 0.0396
    assert sign_stability(1e-9, 2.66, LAMBDA_STAR) < val
    eps = np.geomspace(1e-9, 9e-3, 30)
    vals = [sign_stability(float(e), 2.66, LAMBDA_STAR) for e in eps]
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        sign_stability(0.02, 2.66, LAMBDA_STAR)


def test_kappa_eff():
    val = kappa_eff(1e-7, KAPPA0, K0, L0, LAMBDA_STAR)
    assert val >= 0.0058
    assert val == pytest.approx(0.005880, abs=1e-5)
    # the loss terms vanish as epsilon -> 0 (slowly: epsilon^{1/4} dominates)
    assert kappa_eff(1e-20, KAPPA0, K0, L0, LAMBDA_STAR) == pytest.approx(
        KAPPA0, abs=1e-3)
    assert kappa_eff(1e-4, KAPPA0, K0, L0, LAMBDA_STAR) < 0.0
    eps = np.geomspace(1e-9, 9e-3, 30)
    vals = [kappa_eff(float(e), KAPPA0, K0, L0, LAMBDA_STAR) for e in eps]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_neighborhood_drop():
    for beta in (1e-10, 1e-12, 1e-20, 8e-25):
        params = ChainParams.reference_defaults(beta)
        drop = neighborhood_drop(params)
        assert drop >= 0.0057 * beta
    params = ChainParams.reference_defaults(1e-10)
    assert K_strip(params.z0, params.alpha_min) * (1e-10) ** 0.7 <= 1e-6
    tiny = ChainParams.reference_defaults(1e-30)
    keff = kappa_eff(tiny.epsilon, tiny.kappa0, tiny.K0, tiny.L0, tiny.lam)
    assert neighborhood_drop(tiny) / 1e-30 == pytest.approx(keff, abs=1e-9)
    # z0 clears the construction floor but not the beta^rho allowance
    with pytest.raises(DomainError):
        neighborhood_drop(ChainParams(beta=1e-2, z0=0.33))


def test_chain_params_validation():
    with pytest.raises(DomainError):
        ChainParams(epsilon=0.5)
    with pytest.raises(DomainError):
        ChainParams(beta=0.0)
    with pytest.raises(DomainError):
        ChainParams(rho=1.5)
    with pytest.raises(DomainError):
        ChainParams(z0=0.1)


def test_flip_correction():
    val = flip_correction(1e-10, 1e-7, 0.36, 0.6)
    strip = K_strip(0.36, 0.6) * 1e-17
    tail = 2e-10 * math.exp(-0.5 * (1e3 / math.e) ** (2.0 / 3.0) - 0.5)
    assert val == pytest.approx(strip + tail, rel=1e-12)
    assert val == pytest.approx(strip, rel=1e-4)
    assert val <= 7e-17
    assert flip_correction(0.0, 1e-7, 0.36, 0.6) == 0.0
    with pytest.raises(DomainError):
        flip_correction(1e-7, math.e * 1e-7, 0.36, 0.6)  # t / beta = e
    with pytest.raises(DomainError):
        flip_correction(1e-10, 0.3, 0.36, 0.6)  # t >= lambda*


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
    assert report.kappa_eff >= 0.0058
    assert not report.certified


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


def test_chain_report_json_schema():
    import json

    report = final_chain(BETA_STAR)
    d = report.to_json_dict()
    assert list(d.keys()) == ["kappa_eff", "drop_near_coeff", "branches",
                              "beta_star", "final_drop", "kg_increment",
                              "certified"]
    assert len(d["branches"]) == 3
    parsed = json.loads(report.to_json())
    assert parsed == d
    assert parsed["final_drop"] == report.final_drop  # exact float round-trip


def test_gaussian_tail_envelope():
    for a in np.linspace(2.3, 40.0, 2000):
        assert log_tail_envelope_margin(float(a)) >= 0.0
    with pytest.raises(DomainError):
        log_tail_envelope_margin(2.0)


def test_gaussian_tail_envelope_matches_scipy_stats():
    # the special-function forms agree with the scipy.stats reference
    from scipy.stats import norm

    for a in np.linspace(2.3, 40.0, 400):
        a = float(a)
        log_sf = float(norm.logsf(a))
        log_pdf = float(norm.logpdf(a))
        ref = math.log(0.583) + log_sf + math.log(-log_sf) - log_pdf
        assert log_tail_envelope_margin(a) == pytest.approx(ref, rel=1e-14,
                                                            abs=1e-14)
    halfspace = dict((name, value) for name, value, _, _ in
                     strip_case_checks())["halfspace_moment <= envelope"]
    assert halfspace == pytest.approx(2.0 * norm.pdf(norm.isf(1.25e-10)),
                                      rel=1e-14)


def test_strip_case_checks():
    checks = strip_case_checks()
    assert len(checks) == 8
    for name, value, bound, ok in checks:
        assert ok, f"{name}: {value} vs {bound}"

