import math

import numpy as np
import pytest

from grolab.errors import AccuracyError, DomainError
from grolab.gauss import (
    QuadratureSpec,
    gauss_integrate,
    gaussian_cdf,
    gaussian_isf,
    gaussian_moments,
    gaussian_pdf,
    h3_tail_integral,
    hermite_eval,
    interval_mass,
    interval_z_moment,
    mills_ratio,
    tail_first_moment,
)


def test_pdf_values():
    assert gaussian_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)
    # at the solved threshold the density equals half the moment parameter
    assert gaussian_pdf(0.255730213173163) == pytest.approx(
        0.772216503281451 / 2.0, abs=1e-12)


def test_pdf_even_and_domain():
    zs = np.linspace(-6, 6, 101)
    assert np.allclose(gaussian_pdf(zs), gaussian_pdf(-zs), atol=0)
    assert gaussian_pdf(1.7) == gaussian_pdf(-1.7)
    with pytest.raises(DomainError):
        gaussian_pdf(float("nan"))
    with pytest.raises(DomainError):
        gaussian_pdf(float("inf"))


def test_cdf_values():
    assert gaussian_cdf(0.0) == 0.5
    # Phi(eta*) = (1 + p)/2 with p the quoted inner mass
    assert gaussian_cdf(0.255730213173163) == pytest.approx(
        (1.0 + 0.201840836034193) / 2.0, abs=1e-12)
    assert gaussian_cdf(12.0) == pytest.approx(1.0, abs=1e-14)


def test_cdf_symmetry():
    ts = np.linspace(-8, 8, 201)
    total = gaussian_cdf(ts) + gaussian_cdf(-ts)
    assert np.max(np.abs(total - 1.0)) < 1e-14
    with pytest.raises(DomainError):
        gaussian_cdf(float("nan"))


def test_hermite_values():
    assert hermite_eval(3, 2.0) == pytest.approx(2.0, abs=0)
    assert hermite_eval(3, 0.36) == pytest.approx(-1.033344, abs=1e-12)
    assert hermite_eval(2, 1.0) == 0.0
    assert hermite_eval(0, 5.0) == 1.0
    assert hermite_eval(1, -2.5) == -2.5
    with pytest.raises(DomainError):
        hermite_eval(4, 1.0)
    with pytest.raises(DomainError):
        hermite_eval(-1, 1.0)


def test_integrate_moments():
    assert gauss_integrate(lambda z: z * z) == pytest.approx(1.0, abs=1e-13)
    assert gauss_integrate(lambda z: hermite_eval(3, z) ** 2) == pytest.approx(
        6.0, abs=1e-12)
    assert gauss_integrate(
        lambda z: hermite_eval(2, z) * hermite_eval(3, z)) == pytest.approx(
        0.0, abs=1e-13)


def test_hermite_orthogonality():
    norms = {0: 1.0, 1: 1.0, 2: 2.0, 3: 6.0}
    for j in range(4):
        for k in range(4):
            val = gauss_integrate(
                lambda z: hermite_eval(j, z) * hermite_eval(k, z))
            expected = norms[j] if j == k else 0.0
            assert val == pytest.approx(expected, abs=1e-11)


def test_integrate_kink_alignment():
    # |z - 0.3| has a registered kink; aligned panels integrate it exactly
    val = gauss_integrate(lambda z: np.abs(z - 0.3), kinks=[0.3])
    # int |z-c| pdf = 2 pdf(c) + c (2 Phi(c) - 1)
    expected = 2.0 * gaussian_pdf(0.3) + 0.3 * (2.0 * gaussian_cdf(0.3) - 1.0)
    assert val == pytest.approx(expected, abs=1e-13)


def test_integrate_interval():
    val = gauss_integrate(lambda z: np.ones_like(z), interval=(-1.0, 1.0))
    assert val == pytest.approx(gaussian_cdf(1.0) - gaussian_cdf(-1.0), abs=1e-13)


def test_integrate_failure_carries_estimate():
    spec = QuadratureSpec(max_subdivisions=1, rel_tol=1e-12, abs_tol=1e-14)
    with pytest.raises(AccuracyError) as err:
        gauss_integrate(lambda z: np.abs(np.sin(60.0 * z)), spec)
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0


def test_integrate_deterministic():
    f = lambda z: np.abs(z - 0.123) * np.sin(z)
    a = gauss_integrate(f, kinks=[0.123])
    b = gauss_integrate(f, kinks=[0.123])
    assert a == b


def test_tail_first_moment():
    assert tail_first_moment(0.0) == pytest.approx(0.3989422804, abs=1e-10)
    assert tail_first_moment(0.255730213) == pytest.approx(0.3861082516, abs=1e-9)
    assert tail_first_moment(0.180081) == pytest.approx(0.3925251, abs=1e-6)
    with pytest.raises(DomainError):
        tail_first_moment(-0.1)


def test_h3_tail_integral():
    assert h3_tail_integral(0.255730213173163) == pytest.approx(
        -0.721715133242779, abs=1e-12)
    assert h3_tail_integral(0.0) == pytest.approx(-0.7978845608, abs=1e-10)
    assert h3_tail_integral(1.0) == 0.0
    with pytest.raises(DomainError):
        h3_tail_integral(-1e-9)


def test_closed_forms_match_quadrature(rng, spec):
    for eta in rng.uniform(0.0, 3.0, 100):
        eta = float(eta)
        tol = max(spec.abs_tol, spec.rel_tol * abs(tail_first_moment(eta)))
        by_quad = gauss_integrate(
            lambda z: np.where(z >= eta, z, 0.0), spec, kinks=[eta])
        assert abs(by_quad - tail_first_moment(eta)) < 10 * max(tol, 1e-13)
        h3_quad = 2.0 * gauss_integrate(
            lambda z: np.where(z >= eta, hermite_eval(3, z), 0.0), spec,
            kinks=[eta])
        assert abs(h3_quad - h3_tail_integral(eta)) < 1e-12


def test_closed_forms_match_kernel(rng):
    for a, b in np.sort(rng.uniform(-4.0, 4.0, (50, 2)), axis=1):
        m = gaussian_moments([a, b])[:, 0]
        assert m[0] == pytest.approx(interval_mass(a, b), abs=1e-15)
        assert m[1] == pytest.approx(interval_z_moment(a, b), abs=1e-15)
    for eta in rng.uniform(0.0, 3.0, 50):
        m = gaussian_moments([eta, math.inf])[:, 0]
        assert m[1] == pytest.approx(tail_first_moment(eta), abs=1e-15)
        assert 2.0 * (m[3] - 3.0 * m[1]) == pytest.approx(
            h3_tail_integral(eta), abs=1e-15)


# Tight enough that the oracle's own error is far below the 1e-14 budget.
_ORACLE = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-17, max_subdivisions=20000)
# pdf underflows to 0 beyond 38.6, so this window is the whole line.
_WINDOW = 40.0


def _oracle_moments(a, b):
    lo, hi = max(a, -_WINDOW), min(b, _WINDOW)
    if not lo < hi:
        return np.zeros(4)
    return np.array([gauss_integrate(lambda z, k=k: z ** k, _ORACLE,
                                     interval=(lo, hi)) for k in range(4)])


def _assert_kernel_matches_oracle(cells):
    for a, b in cells:
        kernel = gaussian_moments([a, b])[:, 0]
        oracle = _oracle_moments(a, b)
        assert np.max(np.abs(kernel - oracle)) <= 1e-14, (a, b, kernel, oracle)


def test_moments_random_cells(rng):
    _assert_kernel_matches_oracle(np.sort(rng.uniform(-7.0, 7.0, (60, 2)),
                                          axis=1))


def test_moments_cells_straddling_zero(rng):
    cells = [(-w * u, w * (1.0 - u)) for w, u in
             zip(rng.uniform(1e-6, 6.0, 30), rng.uniform(0.0, 1.0, 30))]
    _assert_kernel_matches_oracle(cells + [(-1e-9, 1e-9), (0.0, 0.0)])


def test_moments_far_tail_cells(rng):
    right = np.sort(rng.uniform(8.0, 14.0, (20, 2)), axis=1)
    cells = [*right, *(-right[:, ::-1])]
    _assert_kernel_matches_oracle(cells)
    # relative accuracy survives far out: Phi(-12) - Phi(-13) on either side
    exact = 0.5 * (math.erfc(12.0 / math.sqrt(2.0))
                   - math.erfc(13.0 / math.sqrt(2.0)))
    m = gaussian_moments([-13.0, -12.0, 12.0, 13.0])
    assert m[0, 0] == pytest.approx(exact, rel=1e-14)
    assert m[0, 2] == pytest.approx(exact, rel=1e-14)


def test_moments_infinite_edges(rng):
    inf = math.inf
    cells = [(-inf, inf), (-inf, 0.0), (0.0, inf), (-inf, -9.0), (9.0, inf)]
    cells += [(-inf, float(x)) for x in rng.uniform(-5.0, 5.0, 10)]
    cells += [(float(x), inf) for x in rng.uniform(-5.0, 5.0, 10)]
    _assert_kernel_matches_oracle(cells)
    whole = gaussian_moments([-inf, inf])[:, 0]
    assert np.array_equal(whole, [1.0, 0.0, 1.0, 0.0])


def test_moments_lp_grid():
    # the 16384-cell grid lp_maximize uses at the Reeds point: every 16th
    # cell plus the cells at 0 against the oracle, the totals against the
    # full-window moments
    edges = np.linspace(-2.2, 2.2, 16385)
    m = gaussian_moments(edges)
    assert m.shape == (4, 16384)
    picks = sorted({*range(0, 16384, 16), 8191, 8192, 16383})
    for i in picks:
        oracle = _oracle_moments(edges[i], edges[i + 1])
        assert np.max(np.abs(m[:, i] - oracle)) <= 1e-14, i
    total = _oracle_moments(-2.2, 2.2)
    assert np.max(np.abs(m.sum(axis=1) - total)) <= 1e-14
    # cells have width 2.7e-4, so each I_1 equals its midpoint rule to O(h^3)
    mid = 0.5 * (edges[:-1] + edges[1:])
    h = edges[1] - edges[0]
    assert np.max(np.abs(m[1] - mid * gaussian_pdf(mid) * h)) <= h ** 3


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(truncation=4.0)
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=1e-3)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)


def test_cdf_array_is_scalar_bit_for_bit():
    t = np.random.default_rng(5).uniform(-40.0, 40.0, (3, 200))
    ref = np.array([[gaussian_cdf(float(x)) for x in row] for row in t])
    got = gaussian_cdf(t)
    assert got.shape == t.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_far_tail_mass_matches_mpmath():
    # Cells of width 0.5 on [5, 26.5] plus [26.5, inf): row 0 is then one
    # erfc or a difference of two with ratio <= e^-2.6, so a few ulp of the
    # kernel stay a few ulp.  The reference takes the kernel's own rounded
    # arguments |e|/sqrt 2; that rounding is the argument's conditioning
    # (2 x^2 ulp), not the kernel's error.
    mpmath = pytest.importorskip("mpmath")
    edges = np.append(np.linspace(5.0, 26.5, 44), np.inf)
    mass = gaussian_moments(edges)[0]
    x = np.minimum(edges, 40.0) / math.sqrt(2.0)
    with mpmath.workprec(200):
        erfc_x = [mpmath.erfc(float(v)) for v in x]
        ref = [float((lo - hi) / 2) for lo, hi in zip(erfc_x, erfc_x[1:])]
    for got, want in zip(mass, ref):
        assert abs(got - want) <= 4 * math.ulp(want), (got, want)


def test_mills_ratio_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        for a in np.linspace(0.0, 40.0, 801):
            a = float(a)
            ref = mpmath.ncdf(-a) / mpmath.npdf(a)
            assert mills_ratio(a) == pytest.approx(float(ref), rel=5e-15,
                                                   abs=0)
    with pytest.raises(DomainError):
        mills_ratio(-1.0)
    with pytest.raises(DomainError):
        mills_ratio(math.inf)


@pytest.mark.parametrize("q", [1.25e-10, 0.25, 1e-3, 1e-30, 1e-300])
def test_gaussian_isf_matches_mpmath(q):
    mpmath = pytest.importorskip("mpmath")
    a = gaussian_isf(q)
    with mpmath.workprec(200):
        ref = float(mpmath.findroot(lambda x: mpmath.ncdf(-x) - q, a))
    assert abs(a - ref) <= 2 * math.ulp(ref)


@pytest.mark.parametrize("q", [0.0, 0.5, -1e-3, math.nan])
def test_gaussian_isf_domain(q):
    with pytest.raises(DomainError):
        gaussian_isf(q)
