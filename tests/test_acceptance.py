"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (run pytest -s to see them all).
"""

import contextlib

import numpy as np
import pytest

from grolab import claims
from grolab.baseline import (
    DAVIE_REEDS_C,
    ReedsParams,
    davie_reeds_bound,
    optimize_lambda,
    solve_eta_star,
)
from grolab.certify import all_certified_checks
from grolab.chain import (
    BETA_STAR,
    final_chain,
    kappa_eff,
    log_tail_envelope_margin,
    neighborhood_drop,
)
from grolab.explorer import (
    beta_derivative_scan,
    richardson_limit,
    sample_feasible_profile,
    sample_theta_member,
)
from grolab.pairing import PairingConstants, kappa_Q, signflip_check
from grolab.profiles import (
    F_value,
    F_value_dual,
    V_value,
    dual_value,
    gap_certificate,
    lp_maximize,
)

from oracles import gauss_integrate, hermite_eval, odd_part

LAM_LIT = 0.197479091

# The paper's numbers, written out here rather than read from grolab.claims so
# that a wrong edit to that table fails test_claims_table_matches_paper.
# name -> (target, tolerance) for equality claims, (bound, None) for one-sided.
PAPER = {
    "davie_reeds_bound": (1.676956674215576, 1e-12),
    "lambda_star": (0.19747909099498196, 1e-8),
    "eta_star": (0.255730213173163, 1e-11),
    "alpha_star": (0.772216503281451, 1e-11),
    "B": (-0.721715133242779, 1e-9),
    "A_max": (0.000839319067615, 1e-9),
    "kappa_Q": (0.086812004849191, 1e-9),
    "p": (0.201840836034193, 1e-9),
    "s1": (0.0256680575214142, 1e-9),
    "t2": (0.00436174503419317, 1e-9),
    "transverse": (0.0414080846777763, 1e-9),
    "pairing_lower": (0.0454039202, 1e-9),
    "final_drop": (4.56e-27, 1e-30),
    "K0_upper": (0.359, None),
    "kappa_eff": (0.0058, None),
    "neighborhood_drop_per_beta": (0.0057, None),
    "kg_increment": (1.596e-26, None),
    "kg_increment_exceeds": (1e-26, None),
    "K_strip": (7.0, None),
    "L0_bound": (2.66, None),
    "C_z0": (1.7, None),
}
PAIRING = ("B", "A_max", "kappa_Q", "p", "s1", "t2", "transverse",
           "pairing_lower")


def paper_approx(name: str):
    target, tol = PAPER[name]
    return pytest.approx(target, abs=tol)


def bound(name: str) -> float:
    value, tol = PAPER[name]
    assert tol is None, name
    return value


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def test_criterion_1_baseline_constant():
    with criterion(1, "Davie-Reeds bound and optimal lambda"):
        assert davie_reeds_bound(LAM_LIT) == paper_approx("davie_reeds_bound")
        assert optimize_lambda() == paper_approx("lambda_star")


def test_criterion_2_reeds_point():
    with criterion(2, "Reeds point eta* and alpha*"):
        eta = solve_eta_star(LAM_LIT)
        assert eta == paper_approx("eta_star")
        assert LAM_LIT / eta == paper_approx("alpha_star")


def test_criterion_3_pairing_constants():
    with criterion(3, "third-chaos pairing constants"):
        cons = PairingConstants.at_eta(solve_eta_star(LAM_LIT))
        for name in PAIRING:
            assert getattr(cons, name) == paper_approx(name), name


def test_criterion_4_dual_certificate():
    with criterion(4, "dual certificate, LP agreement, gap identity"):
        params = ReedsParams.at_reeds_point(LAM_LIT)
        f_dual = F_value_dual(params)
        _, lp_val = lp_maximize(params, 4096)
        assert abs(f_dual - lp_val) <= 1e-8
        assert abs(f_dual - (1.0 - LAM_LIT) / DAVIE_REEDS_C) <= 1e-10
        rng = np.random.Generator(np.random.Philox(key=41))
        for _ in range(200):
            prof = sample_feasible_profile(int(rng.integers(1 << 30)), params)
            cert = gap_certificate(prof, params)
            assert abs(cert.gap - cert.tail_integral) <= 1e-10


def test_criterion_5_taylor_gap_scan():
    with criterion(5, "F(alpha) quadratic-drop scan"):
        lam = optimize_lambda()
        alpha_star = lam / solve_eta_star(lam)
        f_star = F_value(alpha_star, lam)
        for a in np.arange(0.05, 0.99, 1e-3):
            bound = f_star - 0.9 * min((a - alpha_star) ** 2, 1e-2) + 1e-9
            assert F_value(float(a), lam) <= bound


def test_criterion_6_kappa_eff_and_drop():
    with criterion(6, "kappa_eff and the neighborhood norm drop"):
        assert kappa_eff(1e-7) >= bound("kappa_eff")
        for beta in (1e-10, 8e-25):
            drop = neighborhood_drop(beta)
            assert drop >= bound("neighborhood_drop_per_beta") * beta


def test_criterion_7_final_chain():
    with criterion(7, "final inequality chain and the K_G increment"):
        report = final_chain(BETA_STAR)
        assert report.final_drop == paper_approx("final_drop")
        assert report.kg_increment >= bound("kg_increment")
        assert report.kg_increment > bound("kg_increment_exceeds")


def test_criterion_8_property_suites():
    with criterion(8, "bulk property suites (zero violations)"):
        rng = np.random.Generator(np.random.Philox(key=8))
        # sign-flip inequality on 1e6 triples
        a = rng.uniform(-10, 10, 1_000_000)
        b = rng.uniform(-10, 10, 1_000_000)
        beta = rng.uniform(0, 1, 1_000_000)
        lhs, rhs = signflip_check(a, b, beta)
        assert np.all(lhs <= rhs + 1e-12)

        params = ReedsParams.at_reeds_point(LAM_LIT)
        # weak duality on 500 feasible profiles, 20 random dual points each
        profiles_500 = [sample_feasible_profile(2_000_000 + k, params)
                        for k in range(500)]
        for prof in profiles_500:
            v = V_value(prof, params)
            for mu in rng.uniform(-1.5, 1.5, 20):
                assert v <= dual_value(float(mu), params) + 1e-10

        # tail equality under odd-part on the same 500 profiles
        from test_profiles import _tail_sign_defect
        from grolab.gauss import QuadratureSpec
        spec = QuadratureSpec()
        for prof in profiles_500:
            direct = _tail_sign_defect(prof, params.eta, spec)
            via_odd = _tail_sign_defect(odd_part(prof), params.eta, spec)
            assert abs(direct - via_odd) <= 1e-12

        # inner H3 bound on 200 zero-moment profiles
        from grolab.pairing import A_bound_check
        eta = params.eta
        for k in range(200):
            member = sample_theta_member(3_000_000 + k, lam=LAM_LIT)
            a_val, bound = A_bound_check(member, eta)
            assert a_val <= bound + 1e-10

        # Hermite orthogonality
        norms = {0: 1.0, 1: 1.0, 2: 2.0, 3: 6.0}
        for j in range(4):
            for k in range(4):
                val = gauss_integrate(
                    lambda z: hermite_eval(j, z) * hermite_eval(k, z))
                expected = norms[j] if j == k else 0.0
                assert abs(val - expected) <= 1e-11

        # density envelope 0.583 Phi(-a) log(1/Phi(-a)) on [2.3, 40]
        for a_val in np.linspace(2.3, 40.0, 1000):
            assert log_tail_envelope_margin(float(a_val)) >= 0.0


def test_criterion_9_explorer():
    with criterion(9, "perturbation scans"):
        params = ReedsParams.at_reeds_point(LAM_LIT)
        betas = [1e-3 / 2 ** k for k in range(4)]
        b_tail, _, kq = kappa_Q(params.eta)
        for seed in range(20):
            member = sample_theta_member(4_000_000 + seed, lam=LAM_LIT)
            rows = beta_derivative_scan(member, params, betas)
            limit = richardson_limit(rows)
            a_inner = gauss_integrate(
                lambda z: member.evaluate(z) * hermite_eval(3, z),
                kinks=list(member.breakpoints) + [-member.z_cut, member.z_cut],
                interval=(-member.z_cut, member.z_cut))
            assert limit == pytest.approx(
                (b_tail ** 2 - a_inner ** 2) / 6.0, abs=1e-6)
            assert limit >= kq - 1e-9


def test_criterion_10_certified_intervals():
    with criterion(10, "interval certification of criteria 1-3, 6, 7"):
        for check in all_certified_checks():
            assert check.passed, check.name


def test_claims_table_matches_paper():
    assert claims.LAM_LIT == LAM_LIT
    assert claims.PAIRING == PAIRING
    table = {**claims.TARGETS,
             **{name: (value, None) for name, value in claims.BOUNDS.items()}}
    assert len(table) == len(claims.TARGETS) + len(claims.BOUNDS)
    assert table == PAPER
