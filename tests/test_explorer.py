import math

import numpy as np
import pytest

from grolab.baseline import solve_h
from grolab.errors import DomainError, FeasibilityError
from grolab.explorer import (
    beta_derivative_scan,
    r_lambda_beta_norm_1d,
    r_lambda_norm_1d,
    richardson_limit,
    sample_feasible_profile,
    sample_theta_member,
)
from grolab.pairing import kappa_Q
from grolab.profiles import F_value, F_value_dual, Profile, V_value, moment

from conftest import LAM
from oracles import bathtub, gauss_integrate, hermite_eval

BETAS = [1e-3 / 2 ** k for k in range(4)]


def _zonal_inner(profile, params):
    return gauss_integrate(
        lambda z: profile.evaluate(z) * hermite_eval(3, z),
        kinks=list(profile.breakpoints) + [-profile.z_cut, profile.z_cut],
        interval=(-profile.z_cut, profile.z_cut))


def test_norm_equals_F_for_member(params):
    member = sample_theta_member(1, lam=LAM)
    val = r_lambda_norm_1d(member, params)
    assert val == pytest.approx(F_value_dual(params), abs=1e-10)


def test_norm_matches_V(params, rng):
    for _ in range(100):
        prof = sample_feasible_profile(int(rng.integers(1 << 30)), params)
        assert r_lambda_norm_1d(prof, params) == pytest.approx(
            V_value(prof, params), abs=1e-10)


def test_norm_bathtub_closed_form(params):
    h = solve_h(params.alpha)
    tub = bathtub(h, z_cut=params.eta)
    val = r_lambda_norm_1d(tub, params)
    assert val == pytest.approx(F_value(params.alpha, LAM), abs=1e-10)


def test_norm_feasibility_and_beta_guards(params):
    zeros = Profile.constant(0.0, z_cut=1.0)
    with pytest.raises(FeasibilityError):
        r_lambda_norm_1d(zeros, params)
    with pytest.raises(FeasibilityError):
        r_lambda_beta_norm_1d(zeros, params, 1e-3)
    member = sample_theta_member(2, lam=LAM)
    for beta in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            r_lambda_beta_norm_1d(member, params, beta)


def test_perturbed_norm_consistency(params):
    member = sample_theta_member(4, lam=LAM)
    base = r_lambda_norm_1d(member, params)
    again = r_lambda_beta_norm_1d(member, params, 0.0)
    assert again == pytest.approx(base, abs=1e-12)


def test_perturbed_norm_first_order_drop(params):
    member = sample_theta_member(6, lam=LAM)
    base = r_lambda_norm_1d(member, params)
    a_inner = _zonal_inner(member, params)
    b_tail, _, _ = kappa_Q(params.eta)
    coeff = (b_tail ** 2 - a_inner ** 2) / 6.0
    val = r_lambda_beta_norm_1d(member, params, 1e-4)
    assert val <= base - 1e-4 * coeff + 1e-6
    tiny = r_lambda_beta_norm_1d(member, params, 1e-10)
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
        val = r_lambda_beta_norm_1d(member, params, beta)
        assert val == pytest.approx(oracle, abs=1e-13)


def _cubic_roots_reference(alpha, lam, coeff):
    """np.roots seeds, imaginary parts up to 1e-8 (1 + |root|) taken as
    real, then _cubic_roots' Newton polish vectorized over the roots."""
    roots = np.roots([-coeff, 0.0, alpha + 3.0 * coeff, -lam])
    real = roots.real[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots))]

    def g(z):
        return (alpha + 3.0 * coeff - coeff * z * z) * z - lam

    for _ in range(4):
        slope = alpha + 3.0 * coeff - 3.0 * coeff * real * real
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(slope != 0.0, g(real) / slope, 0.0)
        better = np.abs(g(real - step)) < np.abs(g(real))
        real = np.where(better, real - step, real)
    return real


# Both signs, 0 and |coeff| from 1e-300 to 1e3: tiny positive coefficients
# put two roots near +-sqrt(alpha / coeff), up to ~1e150.
_COEFFS = [0.0, *np.geomspace(1e-300, 1e3, 150).tolist(),
           *(-np.geomspace(1e-300, 1e3, 150)).tolist()]


def test_cubic_kinks_all_real_roots(params):
    # tiny positive coefficients put two roots far outside any quadrature
    # window (near +-sqrt(alpha / coeff)); all of them are kept and polished
    from grolab.explorer import _cubic_roots

    alpha = params.alpha
    for coeff, count in ((0.0, 1), (1e-11, 3), (1e-4, 3), (-0.05, 1)):
        assert len(_cubic_roots(alpha, LAM, coeff)) == count
    assert max(map(abs, _cubic_roots(alpha, LAM, 1e-11))) > 1e5
    # the closed-form seeds against np.roots seeds, both polished: the same
    # roots to 2 ulp (no coefficient here is near a double root)
    swept = [0.0, *np.geomspace(1e-17, 0.1, 60).tolist(),
             *(-np.geomspace(1e-17, 0.25, 60)).tolist()]
    for coeff in _COEFFS + swept:
        roots = _cubic_roots(alpha, LAM, coeff)
        assert all(type(r) is float for r in roots)
        ref = sorted(_cubic_roots_reference(alpha, LAM, coeff).tolist())
        assert len(roots) == len(ref), coeff
        for r, want in zip(sorted(roots), ref):
            assert abs(r - want) <= 2 * math.ulp(want), (coeff, r, want)
    # polished to about one rounding of the largest term (np.roots alone
    # leaves residuals up to ~5e-16 of it, e.g. at coeff = 1e-8)
    for coeff in swept:
        for r in _cubic_roots(alpha, LAM, coeff):
            g = (alpha + 3.0 * coeff - coeff * r * r) * r - LAM
            scale = LAM + abs(alpha * r) + abs(coeff * hermite_eval(3, r))
            assert abs(g) <= 2e-16 * scale, (coeff, r)


def test_unit_cubic_roots_match_mpmath():
    # The seeds before any Newton step: every real root of
    # y^3 - sigma y + sigma eps = 0 within 8 ulp of mpmath (a few ulp per
    # cosine, and Vieta's quotient of two of them; 6 measured), the root of
    # smallest size included (the cosine form alone leaves it an absolute
    # error of ~1e-16, every digit once eps is below that).
    mpmath = pytest.importorskip("mpmath")
    from grolab.explorer import _unit_cubic_roots

    eps_values = [0.0, *np.geomspace(1e-200, 10.0, 40).tolist(), 0.38, 0.39]
    with mpmath.workprec(200):
        for sigma in (1.0, -1.0):
            for eps in [*eps_values, *(-e for e in eps_values)]:
                got = sorted(_unit_cubic_roots(sigma, eps))
                # polyroots, each real root refined by Newton (polyroots'
                # tolerance is absolute, far above a root of size 1e-200)
                want = sorted(float(mpmath.findroot(
                    lambda y: y ** 3 - sigma * y + sigma * eps, r.real))
                    for r in mpmath.polyroots([1, 0, -sigma, sigma * eps],
                                              maxsteps=200, extraprec=400)
                    if abs(r.imag) <= 1e-30)
                assert len(got) == len(want), (sigma, eps, got, want)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 8 * math.ulp(w), (sigma, eps, g, w)


def test_cubic_roots_bracket_every_sign_change(params):
    # g sampled from -1e152 to 1e152 (geometric on each side, plus 0): each
    # sign change between neighbouring samples has a returned root between
    # them, so no kink of the perturbed integrand is missed.
    from grolab.explorer import _cubic_roots

    alpha = params.alpha
    side = np.geomspace(1e-6, 1e152, 4000).tolist()
    zs = [-z for z in reversed(side)] + [0.0] + side
    for coeff in _COEFFS:
        roots = _cubic_roots(alpha, LAM, coeff)
        signs = [(g > 0.0) - (g < 0.0) for g in
                 ((alpha + 3.0 * coeff - coeff * z * z) * z - LAM for z in zs)]
        changes = [(a, b) for a, b, sa, sb in zip(zs, zs[1:], signs, signs[1:])
                   if sa != sb]
        assert len(changes) == len(roots), coeff
        for a, b in changes:
            assert any(a <= r <= b for r in roots), (coeff, a, b, roots)


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
    # a non-finite beta fails loudly (it once raised numpy's LinAlgError)
    for betas in ([math.inf, 1.0], [1e-3, math.nan]):
        with pytest.raises(DomainError, match="finite"):
            beta_derivative_scan(member, params, betas)
    with pytest.raises(DomainError):
        richardson_limit([(1e-3, 0.0)])


def test_sample_helpers(params, eta_star):
    member = sample_theta_member(14, lam=LAM)
    assert member.tail_rule == "sign"
    assert member.z_cut == pytest.approx(eta_star, abs=0)
    assert moment(member) == pytest.approx(params.alpha, abs=1e-12)
    prof = sample_feasible_profile(15, params)
    assert moment(prof) == pytest.approx(params.alpha, abs=1e-10)
    assert np.all(np.abs(np.asarray(prof.values)) <= 1.0)
