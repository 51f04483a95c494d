import numpy as np
import pytest

from grolab.baseline import solve_h
from grolab.errors import DomainError, FeasibilityError
from grolab.explorer import (
    ConditionalNormInput,
    McConfig,
    beta_derivative_scan,
    mc_norm_estimate,
    r_lambda_beta_norm_1d,
    r_lambda_norm_1d,
    richardson_limit,
    sample_feasible_profile,
    sample_theta_member,
    sign_ascent,
)
from grolab.gauss import gauss_integrate, hermite_eval
from grolab.pairing import kappa_Q
from grolab.profiles import F_value_dual, Profile, V_value, moment
from grolab.baseline import F_value

from conftest import LAM

BETAS = [1e-3 / 2 ** k for k in range(4)]


def _zonal_inner(profile, params):
    return gauss_integrate(
        lambda z: profile.evaluate(z) * hermite_eval(3, z),
        kinks=list(profile.breakpoints) + [-profile.z_cut, profile.z_cut],
        interval=(-profile.z_cut, profile.z_cut))


def test_norm_equals_F_for_member(params):
    member = sample_theta_member(1, lam=LAM)
    val = r_lambda_norm_1d(ConditionalNormInput(member, params, 0.0))
    assert val == pytest.approx(F_value_dual(params), abs=1e-10)


def test_norm_matches_V(params, rng):
    for _ in range(100):
        prof = sample_feasible_profile(int(rng.integers(1 << 30)), params)
        inp = ConditionalNormInput(prof, params, 0.0)
        assert r_lambda_norm_1d(inp) == pytest.approx(
            V_value(prof, params), abs=1e-10)


def test_norm_bathtub_closed_form(params):
    h = solve_h(params.alpha)
    tub = Profile.bathtub(h, z_cut=params.eta)
    val = r_lambda_norm_1d(ConditionalNormInput(tub, params, 0.0))
    assert val == pytest.approx(F_value(params.alpha, LAM), abs=1e-10)


def test_norm_feasibility_and_beta_guards(params):
    zeros = Profile.constant(0.0, z_cut=1.0)
    with pytest.raises(FeasibilityError):
        r_lambda_norm_1d(ConditionalNormInput(zeros, params, 0.0))
    member = sample_theta_member(2, lam=LAM)
    with pytest.raises(DomainError):
        r_lambda_norm_1d(ConditionalNormInput(member, params, 1e-3))


def test_perturbed_norm_consistency(params):
    member = sample_theta_member(4, lam=LAM)
    base = r_lambda_norm_1d(ConditionalNormInput(member, params, 0.0))
    again = r_lambda_beta_norm_1d(ConditionalNormInput(member, params, 0.0))
    assert again == pytest.approx(base, abs=1e-12)


def test_perturbed_norm_first_order_drop(params):
    member = sample_theta_member(6, lam=LAM)
    base = r_lambda_norm_1d(ConditionalNormInput(member, params, 0.0))
    a_inner = _zonal_inner(member, params)
    b_tail, _, _ = kappa_Q(params.eta)
    coeff = (b_tail ** 2 - a_inner ** 2) / 6.0
    val = r_lambda_beta_norm_1d(ConditionalNormInput(member, params, 1e-4))
    assert val <= base - 1e-4 * coeff + 1e-6
    tiny = r_lambda_beta_norm_1d(ConditionalNormInput(member, params, 1e-10))
    drop = base - tiny
    assert 0.0057e-10 <= drop <= 0.12e-10


def test_perturbed_norm_matches_quadrature(params, spec):
    # the closed form (kinks at the Newton-polished cubic roots) against the
    # adaptive oracle, with the oracle's kinks taken from np.roots alone
    # beta = 4 makes alpha + 3 beta c3 < 0: three real kinks on each side
    for seed, beta in ((41, 1e-3), (42, 0.05), (43, 0.4), (44, 4.0)):
        member = sample_theta_member(seed, lam=LAM)
        c3 = gauss_integrate(lambda z: member.evaluate(z) * hermite_eval(3, z),
                             spec, kinks=[*member.breakpoints, -member.z_cut,
                                          member.z_cut]) / 6.0
        coeff = beta * c3
        roots = np.roots([-coeff, 0.0, params.alpha + 3.0 * coeff, -LAM])
        real = [float(r.real) for r in roots if abs(r.imag) < 1e-9]
        assert len(real) == (3 if beta == 4.0 else 1)

        def integrand(z):
            theta = member.evaluate(z)
            core = params.alpha * z - coeff * hermite_eval(3, z)
            return 0.5 * (1.0 + theta) * np.abs(core - LAM) \
                + 0.5 * (1.0 - theta) * np.abs(core + LAM)

        oracle = gauss_integrate(
            integrand, spec, kinks=[*member.breakpoints, -member.z_cut,
                                    member.z_cut, *real, *(-r for r in real)])
        val = r_lambda_beta_norm_1d(ConditionalNormInput(member, params, beta))
        assert val == pytest.approx(oracle, abs=1e-13)


def test_cubic_kinks_all_real_roots(params):
    # tiny positive coefficients put two roots far outside any quadrature
    # window (near +-sqrt(alpha / coeff)); all of them are kept and polished
    from grolab.explorer import _cubic_roots

    alpha = params.alpha
    for coeff, count in ((0.0, 1), (1e-11, 3), (1e-4, 3), (-0.05, 1)):
        assert len(_cubic_roots(alpha, LAM, coeff)) == count
    assert np.max(np.abs(_cubic_roots(alpha, LAM, 1e-11))) > 1e5
    # polished to about one rounding of the largest term (np.roots alone
    # leaves residuals up to ~5e-16 of it, e.g. at coeff = 1e-8)
    for coeff in [*np.geomspace(1e-17, 0.1, 60), *-np.geomspace(1e-17, 0.25, 60)]:
        for r in _cubic_roots(alpha, LAM, coeff):
            g = (alpha + 3.0 * coeff - coeff * r * r) * r - LAM
            scale = LAM + abs(alpha * r) + abs(coeff * hermite_eval(3, r))
            assert abs(g) <= 2e-16 * scale, (coeff, r)


def test_scan_limits_random_members(params):
    _, _, kq = kappa_Q(params.eta)
    for seed in range(20):
        member = sample_theta_member(100 + seed, lam=LAM)
        rows = beta_derivative_scan(member, params, BETAS)
        limit = richardson_limit(rows)
        a_inner = _zonal_inner(member, params)
        b_tail, _, _ = kappa_Q(params.eta)
        expected = (b_tail ** 2 - a_inner ** 2) / 6.0
        assert limit == pytest.approx(expected, abs=1e-6)
        assert limit >= kq - 1e-9


def test_scan_zero_inner_profile(params, eta_star):
    zeros = Profile.constant(0.0, z_cut=eta_star)
    rows = beta_derivative_scan(zeros, params, BETAS)
    limit = richardson_limit(rows)
    b_tail, a_max, kq = kappa_Q(params.eta)
    assert limit == pytest.approx(b_tail ** 2 / 6.0, abs=1e-6)
    assert limit == pytest.approx(kq + a_max ** 2 / 6.0, abs=1e-6)


def test_scan_validation(params):
    member = sample_theta_member(8, lam=LAM)
    with pytest.raises(DomainError):
        beta_derivative_scan(member, params, [1e-4, 1e-3])
    with pytest.raises(DomainError):
        beta_derivative_scan(member, params, [])
    with pytest.raises(DomainError):
        richardson_limit([(1e-3, 0.0)])


def test_sign_ascent_bathtub_fixed_value(params):
    tub = Profile.bathtub(solve_h(params.alpha), z_cut=params.eta)
    _, values = sign_ascent(tub, params, 4)
    target = F_value_dual(params)
    for v in values:
        assert v == pytest.approx(target, abs=1e-10)


def test_sign_ascent_canonical_member_fixed_point(params, eta_star):
    zeros = Profile.constant(0.0, z_cut=eta_star)
    final, values = sign_ascent(zeros, params, 3)
    target = F_value_dual(params)
    for v in values:
        assert v == pytest.approx(target, abs=1e-10)
    z = np.linspace(-eta_star * 0.99, eta_star * 0.99, 64)
    assert np.allclose(final.evaluate(z), 0.0, atol=1e-12)


def test_sign_ascent_from_sign_profile(params):
    sgn = Profile(z_cut=0.5, breakpoints=(0.0,), values=(-1.0, 1.0))
    _, values = sign_ascent(sgn, params, 6)
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
    # the sequence settles within the first few iterations
    assert values[3] == pytest.approx(values[-1], abs=1e-12)


def test_sign_ascent_monotone_random_starts(params, rng):
    for _ in range(50):
        start = sample_feasible_profile(int(rng.integers(1 << 30)), params)
        _, values = sign_ascent(start, params, 5)
        assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(values, values[1:]))


def test_sign_ascent_validation(params):
    tub = Profile.bathtub(solve_h(params.alpha))
    with pytest.raises(DomainError):
        sign_ascent(tub, params, 0)


def test_mc_norm_estimate(params):
    member = sample_theta_member(10, lam=LAM)
    truth = r_lambda_norm_1d(ConditionalNormInput(member, params, 0.0))
    for dim, seed in ((1, 11), (2, 12)):
        est, se = mc_norm_estimate(
            member, McConfig(dimension=dim, samples=200_000, seed=seed),
            params, 0.0)
        assert abs(est - truth) <= 4.0 * se
    est1, se1 = mc_norm_estimate(
        member, McConfig(dimension=1, samples=50_000, seed=99), params, 0.0)
    est2, se2 = mc_norm_estimate(
        member, McConfig(dimension=1, samples=50_000, seed=99), params, 0.0)
    assert est1 == est2 and se1 == se2
    with pytest.raises(DomainError):
        mc_norm_estimate(member, McConfig(dimension=3, samples=50_000, seed=1),
                         params, 0.0)
    with pytest.raises(DomainError):
        McConfig(dimension=1, samples=100, seed=1)


def test_sample_helpers(params, eta_star):
    member = sample_theta_member(14, lam=LAM)
    assert member.tail_rule == "sign"
    assert member.z_cut == pytest.approx(eta_star, abs=0)
    assert moment(member) == pytest.approx(params.alpha, abs=1e-12)
    prof = sample_feasible_profile(15, params)
    assert moment(prof) == pytest.approx(params.alpha, abs=1e-10)
    assert np.all(np.abs(np.asarray(prof.values)) <= 1.0)
