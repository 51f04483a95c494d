import math

import numpy as np
import pytest

from grolab.baseline import (
    _LAMBDA_FEASIBLE_MAX,
    DAVIE_REEDS_C,
    LAMBDA_STAR,
    F_derivatives,
    ReedsParams,
    davie_reeds_bound,
    optimize_lambda,
    reeds_denominator,
    solve_eta_star,
    solve_h,
)
from grolab import baseline
from grolab.baseline import _argmax_equation, _eta_equation
from grolab.errors import DomainError
from grolab.gauss import SQRT_2_OVER_PI, gaussian_pdf
from grolab.profiles import F_value

from conftest import LAM
from oracles import argmax_mp, golden_then_bisect, reeds_bound_mp, reeds_mp


def test_eta_star_reference():
    assert solve_eta_star(LAM) == pytest.approx(0.255730213173163, abs=1e-11)
    alpha = LAM / solve_eta_star(LAM)
    assert alpha == pytest.approx(0.772216503281451, abs=1e-11)


def test_eta_star_roundtrip():
    for lam in np.linspace(0.02, 0.45, 25):
        eta = solve_eta_star(float(lam))
        assert 0.0 < eta < 1.0
        assert SQRT_2_OVER_PI * eta * math.exp(-0.5 * eta * eta) == pytest.approx(
            lam, abs=1e-14)


def test_eta_star_small_lambda_expansion():
    lam = 1e-6
    eta = solve_eta_star(lam)
    assert eta == pytest.approx(lam * math.sqrt(math.pi / 2.0), rel=1e-5)


def _solve_eta_star_64_steps(lam):
    """solve_eta_star with all 64 bisection steps, no early exit."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if _eta_equation(mid, lam) < 0.0:
            lo = mid
        else:
            hi = mid
    eta = 0.5 * (lo + hi)
    for _ in range(2):
        deriv = 2.0 * gaussian_pdf(eta) * (1.0 - eta * eta)
        eta -= _eta_equation(eta, lam) / deriv
    return eta


def test_eta_star_early_exit_is_bit_identical():
    # The bisection stops at its first no-op step; the root is the same
    # double as after all 64 steps.
    lams = [*np.linspace(0.18, 0.215, 1000).tolist(),
            *np.linspace(1e-6, 0.48, 1000).tolist(),
            1e-300, math.nextafter(_LAMBDA_FEASIBLE_MAX, 0.0)]
    for lam in lams:
        assert solve_eta_star(lam).hex() == _solve_eta_star_64_steps(lam).hex(), lam


def test_eta_star_domain():
    with pytest.raises(DomainError):
        solve_eta_star(0.0)
    with pytest.raises(DomainError):
        solve_eta_star(0.49)  # beyond the sqrt(2/pi) e^{-1/2} ceiling
    with pytest.raises(DomainError):
        solve_eta_star(-0.1)


def test_denominator_vs_bound_ratio():
    # oracle: denominator must equal (1 - lambda) / c
    oracle = (1.0 - LAM) / 1.676956674215576
    assert reeds_denominator(LAM) == pytest.approx(oracle, abs=1e-12)


def test_denominator_small_lambda_limit():
    # extrapolate toward lambda = 0: the limit is 2/pi
    d6 = reeds_denominator(1e-6)
    d8 = reeds_denominator(1e-8)
    assert d8 == pytest.approx(2.0 / math.pi, abs=1e-6)
    assert abs(d8 - 2.0 / math.pi) < abs(d6 - 2.0 / math.pi)
    for lam in np.linspace(0.01, 0.45, 20):
        assert reeds_denominator(float(lam)) > 0.0


def test_bound_reference_value():
    assert davie_reeds_bound(LAM) == pytest.approx(1.676956674215576, abs=1e-12)
    assert davie_reeds_bound(1e-8) == pytest.approx(math.pi / 2.0, abs=1e-7)
    assert davie_reeds_bound(0.25) < 1.676956675


def test_optimize_lambda():
    lam = optimize_lambda()
    assert lam == pytest.approx(0.19747909099498196, abs=1e-8)
    assert davie_reeds_bound(lam) >= 1.676956674215576 - 1e-12
    h = 1e-6
    fd = (davie_reeds_bound(lam + h) - davie_reeds_bound(lam - h)) / (2 * h)
    assert abs(fd) < 1e-8


def test_optimize_lambda_matches_golden_section_reference():
    # The lambda-parametrized search differs by 8 ulp: its derivative is a
    # difference of O(1) terms that cancels near the root.
    reference = golden_then_bisect()
    assert reference == 0.19747909099498168
    assert abs(optimize_lambda() - reference) <= 16 * math.ulp(reference)


def test_optimize_lambda_solves_no_eta(monkeypatch):
    calls = []
    monkeypatch.setattr(baseline, "solve_eta_star",
                        lambda lam: calls.append(lam))
    baseline.solve_eta_argmax.cache_clear()
    assert 0.0 < optimize_lambda() < 1.0
    assert calls == []


def test_optimize_lambda_within_4_ulp_of_200_bit_argmax():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        _, lam = argmax_mp(mpmath)
        assert abs(optimize_lambda() - lam) <= 4 * math.ulp(LAMBDA_STAR)


@pytest.mark.parametrize("eta", [0.1, 0.3, 0.7])
def test_argmax_closed_forms_match_200_bit_derivatives(eta):
    # B' = -lambda' S / den^2 and S' = 2 alpha (1 - lambda), with
    # lambda' = alpha (1 - eta^2), against numerical derivatives
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        e = mpmath.mpf(eta)
        lam, alpha, den, s = reeds_mp(mpmath, e)
        b_prime = -alpha * (1 - e * e) * s / den ** 2
        s_prime = 2 * alpha * (1 - lam)
        assert abs(mpmath.diff(lambda t: reeds_bound_mp(mpmath, t), e)
                   - b_prime) < 1e-50
        assert abs(mpmath.diff(lambda t: reeds_mp(mpmath, t)[3], e)
                   - s_prime) < 1e-50
        assert abs(_argmax_equation(eta) - s) < 4e-16


def test_optimum_beats_scan():
    best = davie_reeds_bound(optimize_lambda())
    for lam in np.linspace(0.05, 0.35, 61):
        assert davie_reeds_bound(float(lam)) <= best + 1e-14


def test_F_at_alpha_star_equals_denominator():
    alpha = LAM / solve_eta_star(LAM)
    assert F_value(alpha, LAM) == pytest.approx(reeds_denominator(LAM), abs=1e-12)


def test_F_taylor_drop():
    alpha_star = LAM / solve_eta_star(LAM)
    f_star = F_value(alpha_star, LAM)
    for sign in (+1.0, -1.0):
        a = alpha_star + sign * 0.05
        assert F_value(a, LAM) <= f_star - 0.9 * 0.05 ** 2


def test_F_global_scan():
    lam = optimize_lambda()
    alpha_star = lam / solve_eta_star(lam)
    f_star = F_value(alpha_star, lam)
    for a in np.arange(0.05, 0.99, 1e-3):
        bound = f_star - 0.9 * min((a - alpha_star) ** 2, 1e-2) + 1e-9
        assert F_value(float(a), lam) <= bound


def test_F_domain():
    with pytest.raises(DomainError):
        F_value(0.0, LAM)
    with pytest.raises(DomainError):
        F_value(0.5, -0.1)


def test_F_derivatives_reference():
    fp, _ = F_derivatives(0.772216503281451, LAM)
    assert abs(fp) < 1e-9


def test_F_derivatives_match_finite_differences(rng):
    for _ in range(20):
        alpha = float(rng.uniform(0.3, 0.95))
        lam = float(rng.uniform(0.05, 0.35))
        fp, fpp = F_derivatives(alpha, lam)
        h = 1e-5
        fd1 = (F_value(alpha + h, lam) - F_value(alpha - h, lam)) / (2 * h)
        assert fp == pytest.approx(fd1, abs=1e-6)
        h = 1e-4
        fd2 = (F_value(alpha + h, lam) - 2 * F_value(alpha, lam)
               + F_value(alpha - h, lam)) / h ** 2
        assert fpp == pytest.approx(fd2, abs=1e-4)


def test_solve_h():
    alpha = 0.772216503281451
    h = solve_h(alpha)
    # bisection oracle on the defining closed form
    lo, hi = 0.0, 1.2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if SQRT_2_OVER_PI * (2.0 * math.exp(-0.5 * mid * mid) - 1.0) > alpha:
            lo = mid
        else:
            hi = mid
    assert h == pytest.approx(0.5 * (lo + hi), abs=1e-12)
    assert h < solve_eta_star(LAM)
    assert solve_h(SQRT_2_OVER_PI - 1e-12) == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(DomainError):
        solve_h(SQRT_2_OVER_PI + 0.01)
    with pytest.raises(DomainError):
        solve_h(0.0)


def test_bathtub_moment_identity():
    # 2 pdf(h) = pdf(0) + pdf(eta*) makes the inner bathtub moment vanish
    alpha = LAM / solve_eta_star(LAM)
    h = solve_h(alpha)
    lhs = 2.0 * gaussian_pdf(h)
    rhs = gaussian_pdf(0.0) + gaussian_pdf(solve_eta_star(LAM))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_consistency_triangle():
    for lam in np.linspace(0.05, 0.35, 31):
        lam = float(lam)
        alpha = lam / solve_eta_star(lam)
        assert F_value(alpha, lam) == pytest.approx(
            reeds_denominator(lam), abs=1e-12)


def test_reeds_params_validation():
    p = ReedsParams(lam=LAM, alpha=0.7722165)
    assert p.eta == LAM / 0.7722165
    with pytest.raises(DomainError):
        ReedsParams(lam=1.5, alpha=0.5)
    with pytest.raises(DomainError):
        ReedsParams(lam=0.2, alpha=0.0)


def test_baseline_report():
    # the baseline numbers at the optimal lambda, from the functions the
    # baseline suite calls
    lam = optimize_lambda()
    eta = solve_eta_star(lam)
    bound = davie_reeds_bound(lam)
    assert bound == pytest.approx(DAVIE_REEDS_C, abs=1e-12)
    assert bound == pytest.approx((1.0 - lam) / reeds_denominator(lam),
                                  abs=1e-15)
    assert (lam / eta) * eta == pytest.approx(lam, abs=1e-15)
    assert lam == pytest.approx(LAMBDA_STAR, abs=1e-12)
