import math
import warnings

import numpy as np
import pytest

from grolab.baseline import ReedsParams, solve_h
from grolab import gauss
from grolab.errors import AccuracyError, DomainError
from grolab.gauss import (
    INV_SQRT_2PI,
    QuadratureSpec,
    cell_masses,
    cell_masses_into,
    gaussian_cdf,
    gaussian_moments,
    gaussian_pdf,
    mills_ratio,
)

from oracles import (erfc_cell_masses, gauss_integrate, gaussian_moments_array,
                     gaussian_moments_lists, h3_tail_integral, hermite_eval,
                     interval_mass, interval_z_moment, tail_first_moment)

from conftest import LAM

# cell_masses takes the midpoint series on partitions of [-40, 40] whose
# cells are at most this wide.
_SERIES_MAX_WIDTH = 2.0 ** -10


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
    for t in np.linspace(-8, 8, 201).tolist():
        assert abs(gaussian_cdf(t) + gaussian_cdf(-t) - 1.0) < 1e-14
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


def _one_cell(a, b) -> np.ndarray:
    """gaussian_moments of the single cell [a, b], as an array of 4."""
    return np.array(gaussian_moments([a, b]))[:, 0]


def test_closed_forms_match_kernel(rng):
    for a, b in np.sort(rng.uniform(-4.0, 4.0, (50, 2)), axis=1):
        m = _one_cell(a, b)
        assert m[0] == pytest.approx(interval_mass(a, b), abs=1e-15)
        assert m[1] == pytest.approx(interval_z_moment(a, b), abs=1e-15)
    for eta in rng.uniform(0.0, 3.0, 50):
        m = _one_cell(eta, math.inf)
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
        kernel = _one_cell(a, b)
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
    assert m[0][0] == pytest.approx(exact, rel=1e-14)
    assert m[0][2] == pytest.approx(exact, rel=1e-14)


def test_moments_infinite_edges(rng):
    inf = math.inf
    cells = [(-inf, inf), (-inf, 0.0), (0.0, inf), (-inf, -9.0), (9.0, inf)]
    cells += [(-inf, float(x)) for x in rng.uniform(-5.0, 5.0, 10)]
    cells += [(float(x), inf) for x in rng.uniform(-5.0, 5.0, 10)]
    _assert_kernel_matches_oracle(cells)
    whole = _one_cell(-inf, inf)
    assert np.array_equal(whole, [1.0, 0.0, 1.0, 0.0])


def test_moments_lp_grid():
    # the 16384-cell grid lp_maximize uses at the Reeds point: every 16th
    # cell plus the cells at 0 against the oracle, the totals against the
    # full-window moments
    edges = np.linspace(-2.2, 2.2, 16385)
    m = np.array(gaussian_moments(edges))
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


def _random_partitions(rng):
    """Partitions for the float kernel: +-inf ends, cells straddling 0,
    edges beyond +-8 and +-40, single cells and one narrow partition."""
    inf = math.inf
    cases = [[-inf, inf], [-inf, 0.0], [0.0, inf], [-45.0, 45.0],
             [39.0, 41.0, inf], [-inf, -41.0, -39.5], [-1e-9, 1e-9],
             np.linspace(-0.5, 0.5, 1025).tolist()]  # 2**-10 wide: the series
    for _ in range(60):
        span = float(rng.choice([1.0, 6.0, 12.0, 50.0]))
        n = int(rng.integers(1, 25))
        edges = np.sort(rng.uniform(-span, span, n + 1)).tolist()
        if rng.uniform() < 0.3:
            edges[0] = -inf
        if rng.uniform() < 0.3:
            edges[-1] = inf
        cases.append(edges)
    return cases


def test_moments_match_array_reference(rng):
    # The float kernel against the numpy one it replaced (tests/oracles.py):
    # the masses are the same erfc difference or midpoint series, bit for
    # bit; rows 1-3 differ only by math.exp against np.exp (an ulp or so
    # per pdf), so each is within 4 ulp of the size of its terms.
    for edges in _random_partitions(rng):
        got = gaussian_moments(edges)
        ref = gaussian_moments_array(edges)
        assert all(type(x) is float for row in got for x in row)
        assert got[0] == ref[0].tolist(), edges
        e = np.clip(edges, -40.0, 40.0)
        pdf = np.exp(-0.5 * e * e) / math.sqrt(2.0 * math.pi)
        zz_pdf = e * e * pdf
        scales = (pdf[:-1] + pdf[1:],
                  np.abs(ref[0]) + np.abs(e * pdf)[:-1] + np.abs(e * pdf)[1:],
                  2.0 * (pdf[:-1] + pdf[1:]) + zz_pdf[:-1] + zz_pdf[1:])
        for k, scale in zip((1, 2, 3), scales):
            for x, y, s in zip(got[k], ref[k].tolist(), scale.tolist()):
                assert abs(x - y) <= 4 * math.ulp(s), (k, edges, x, y)


def _series_partitions(rng):
    """Partitions that may take the midpoint series: uniform grids with
    cells of at most 2**-10, and random ones spanning at most n 2**-10,
    whose wider cells send cell_masses back to erfc differences."""
    w = _SERIES_MAX_WIDTH
    cases = [np.linspace(-0.5, 0.5, 1025).tolist(),
             np.linspace(3.0, 3.5, 600).tolist(),
             np.linspace(-40.0, -40.0 + 64 * w, 65).tolist(),
             np.linspace(39.0, 40.0, 2000).tolist()]
    for k in range(20):
        n = int(rng.integers(1, 300))
        start = float(rng.uniform(-39.0, 38.0))
        if k % 2:
            edges = rng.uniform(start, start + 0.9 * n * w, n + 1)
        else:  # a jittered grid: every cell narrow, so the series applies
            edges = start + 0.9 * w * (np.arange(n + 1.0)
                                       + rng.uniform(-0.05, 0.05, n + 1))
        cases.append(np.sort(edges).tolist())
    return cases


def _hex_rows(rows):
    """Each float as its hex string: exact, and -0.0 differs from 0.0."""
    return [[x.hex() for x in row] for row in rows]


def test_one_pass_moments_equal_list_kernel(rng):
    # The one-loop kernel against the nine-pass list kernel it replaced
    # (tests/oracles.py): every row bit for bit, zero signs included.
    inf = math.inf
    edge_cases = [
        [-inf, inf], [-inf, -50.0, 50.0, inf], [-inf, -45.0, -41.0, -40.0],
        [40.0, 41.0, 1e300, inf], [-1e300, -38.7, 38.7, 1e300],
        [-0.0, 1.0], [-1.0, -0.0], [-0.0, 0.0], [0.0, -0.0, 0.0],
        [-1.0, -0.0, 0.0, 1.0], [-0.0, inf], [-inf, -0.0],
        [0.5, 0.5], [0.3, 0.7], [-2.0, 2.0], [7.0, 7.0 + 2 ** -12],
        [0.0], [],
    ]
    for edges in (_random_partitions(rng) + _series_partitions(rng)
                  + edge_cases):
        got = gaussian_moments(edges)
        assert all(type(x) is float for row in got for x in row)
        assert _hex_rows(got) == _hex_rows(gaussian_moments_lists(edges)), \
            edges


def test_first_moments_are_row_one(rng):
    # first_moments against gaussian_moments' row 1, bit for bit: seeded
    # sorted partitions (+-inf ends, edges beyond +-40), partitions on which
    # gaussian_moments takes the midpoint series for the masses, edges
    # beyond the +-40 clip, zero signs, one edge and none.
    inf = math.inf
    grid = np.linspace(-0.5, 0.5, 1025).tolist()  # 2**-10 wide cells
    assert gauss._may_take_series(grid)
    edge_cases = [
        [-inf, inf], [-inf, -1e300, -41.0, -40.0, -38.7, 0.0],
        [38.7, 40.0, 40.5, 1e155, 1e300, inf], [-50.0, -45.0, 45.0, 50.0],
        [-0.0, 0.0], [-1.0, -0.0, 0.0, 1.0], grid, [0.25], [],
    ]
    for edges in (_random_partitions(rng) + _series_partitions(rng)
                  + edge_cases):
        got = gauss.first_moments(edges)
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == \
            [x.hex() for x in gaussian_moments(edges)[1]], edges
    got = gauss.first_moments(np.array(grid))  # an array of edges too
    assert [x.hex() for x in got] == \
        [x.hex() for x in gaussian_moments(grid)[1]]


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(truncation=4.0)
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=1e-3)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)


def _legendre_rule_mp(mpmath, n):
    """n-point Gauss-Legendre (nodes, weights), ascending, at mpmath's
    working precision: Newton on P_n from x = cos(pi (i - 1/4) / (n + 1/2))
    for the positive roots, 0 for odd n, mirrored."""
    def legendre(x):  # (P_n(x), P_n'(x)) by the three-term recurrence
        p0, p1 = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (p0 - x * p1) / (1 - x * x)

    roots = []
    for i in range(1, n // 2 + 1):
        x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(0.25)) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            x -= p / dp
            if abs(p / dp) < mpmath.mpf(2) ** (-mpmath.mp.prec + 4):
                break
        roots.append(x)
    half = [(x, 2 / ((1 - x * x) * legendre(x)[1] ** 2)) for x in roots]
    middle = [(mpmath.mpf(0), 2 / legendre(mpmath.mpf(0))[1] ** 2)] \
        if n % 2 else []
    rule = [(-x, w) for x, w in half] + middle + half[::-1]
    return [x for x, _ in rule], [w for _, w in rule]


@pytest.mark.parametrize("n", [7, 15])
def test_panel_rule_matches_200_bit_gauss_legendre(n):
    # The panel rule's literals (numpy's leggauss output, whose weights
    # are up to 38 ulp off) against Newton's method at 200 bits.
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = getattr(gauss, f"_X{n}"), getattr(gauss, f"_W{n}")
    assert nodes.dtype == weights.dtype == np.float64
    assert len(nodes) == len(weights) == n
    assert (nodes == -nodes[::-1]).all() and (weights == weights[::-1]).all()
    with mpmath.workprec(200):
        ref_x, ref_w = _legendre_rule_mp(mpmath, n)
        for got, want in zip([*nodes.tolist(), *weights.tolist()],
                             [*ref_x, *ref_w]):
            assert abs(got - want) <= 64 * math.ulp(float(want)), (got, want)


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


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("width", [0.0, 1e-12, _SERIES_MAX_WIDTH])
def test_midpoint_series_matches_mpmath(width):
    # One narrow cell inside [-40, 40] per call, so every mass is the
    # midpoint series.  The reference takes the kernel's own midpoint m and
    # width h, and its rounded square fl(m * m) in pdf(m): that rounding is
    # pdf's conditioning (up to m^2/2 times 2^-53 relative, hundreds of ulp
    # at |m| near 40), not the series' error.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(19)
    mids = np.concatenate((np.linspace(-39.99, 39.99, 161),
                           rng.uniform(-39.99, 39.99, 80)))
    with mpmath.workprec(200):
        for mid in mids.tolist():
            edges = np.array([mid - 0.5 * width, mid + 0.5 * width])
            got = float(cell_masses(edges)[0])
            m = float(0.5 * (edges[0] + edges[1]))
            h = float(edges[1] - edges[0])
            if h == 0.0:
                assert _bits(got) == _bits(0.0), mid
                continue
            mp_m, mp_h = abs(mpmath.mpf(m)), mpmath.mpf(h)
            mass = (mpmath.ncdf(mp_h / 2 - mp_m)
                    - mpmath.ncdf(-mp_h / 2 - mp_m))
            want = float(mass * mpmath.exp(mp_m ** 2 / 2 - mpmath.mpf(m * m) / 2))
            assert abs(got - want) <= 4 * math.ulp(want), (mid, got, want)


def test_midpoint_series_beats_erfc_on_lp_grid():
    # The grid-16384 cells just beyond +-eta, where lp_maximize's fractional
    # group sits, against their exact masses: the series is within 4 ulp,
    # the erfc difference off by ~1e-12 relative (erfc / (h pdf) ulp).
    mpmath = pytest.importorskip("mpmath")
    params = ReedsParams.at_reeds_point(LAM)
    z_cut = max(params.eta, solve_h(params.alpha)) + 1.0
    edges = np.linspace(-z_cut, z_cut, 16385)
    lo = int(np.searchsorted(edges, -params.eta, side="right"))
    hi = int(np.searchsorted(edges, params.eta))
    worst_erfc = 0.0
    for near in (edges[lo - 61:lo], edges[hi:hi + 61]):
        got = cell_masses(near)
        erfc_diff = erfc_cell_masses(near)
        with mpmath.workprec(200):
            cdf = [mpmath.ncdf(mpmath.mpf(e)) for e in near.tolist()]
            want = [float(b - a) for a, b in zip(cdf, cdf[1:])]
        for g, e, w in zip(got.tolist(), erfc_diff.tolist(), want):
            assert abs(g - w) <= 4 * math.ulp(w), (g, w)
            worst_erfc = max(worst_erfc, abs(e - w) / w)
    assert worst_erfc > 5e-13


def test_cell_masses_regime_boundary():
    # Cells exactly 2**-10 wide take the series; one cell twice as wide
    # sends the whole call to the erfc difference, bit for bit.
    fine = np.linspace(-1.0, 1.0, 2049)
    assert (np.diff(fine) == _SERIES_MAX_WIDTH).all()
    series = cell_masses(fine)
    assert not np.array_equal(series, erfc_cell_masses(fine))
    assert np.max(np.abs(series / erfc_cell_masses(fine) - 1.0)) <= 1e-12
    one_wide = np.delete(fine, 1000)
    assert np.array_equal(_bits(cell_masses(one_wide)),
                          _bits(erfc_cell_masses(one_wide)))
    # Narrow cells reaching beyond +-40, infinite edges and a coarse grid
    # all stay on erfc.
    for edges in ([39.9995, 40.0005], [-np.inf, 0.0, np.inf],
                  np.linspace(-40.0001, -39.9999, 3),
                  np.linspace(-2.0, 2.0, 1025)):
        assert np.array_equal(_bits(cell_masses(edges)),
                              _bits(erfc_cell_masses(edges))), edges


def _series_reference(edges):
    """cell_masses' midpoint series as one numpy expression per step, with
    new arrays for every intermediate."""
    h = edges[1:] - edges[:-1]
    mm = 0.5 * (edges[:-1] + edges[1:])
    mm = mm * mm
    t = 0.25 * h * h
    s = t * ((((mm - 15.0) * mm + 45.0) * mm - 15.0) * (1.0 / 5040.0))
    s = (s + ((mm - 6.0) * mm + 3.0) * (1.0 / 120.0)) * t
    s = (s + (mm - 1.0) * (1.0 / 6.0)) * t + 1.0
    return h * (np.exp(-0.5 * mm) * INV_SQRT_2PI) * s


def test_cell_masses_into_caller_buffers():
    # cell_masses_into fills a slice of a larger array, with a dirty work
    # block, bit for bit as cell_masses returns a new array, in both
    # regimes; the series is the same operations as the reference above.
    # gaussian_pdf into a given array is gaussian_pdf.
    rng = np.random.default_rng(25)
    fine = np.linspace(-4.6, 4.6, 16385)
    for edges in (fine, fine[:3000], fine[9000:], np.linspace(-2.0, 2.0, 1025),
                  [-np.inf, -1.0, 0.5, np.inf], [0.0]):
        edges = np.asarray(edges, dtype=float)
        n = len(edges) - 1
        want = cell_masses(edges)
        if n > 2000:
            assert np.array_equal(_bits(want), _bits(_series_reference(edges)))
        big = rng.uniform(-1.0, 1.0, n + 7)
        work = rng.uniform(-1.0, 1.0, (4, n + 3))
        got = cell_masses_into(edges, big[5:5 + n], work)
        assert got.base is big
        assert np.array_equal(_bits(got), _bits(want)), n
        pdf = gaussian_pdf(edges[np.isfinite(edges)])
        out = big[:len(pdf)]
        assert gaussian_pdf(edges[np.isfinite(edges)], out=out) is out
        assert np.array_equal(_bits(out), _bits(pdf))


def test_cell_masses_infinite_and_degenerate_cells():
    # The regime test never computes inf - inf, so no RuntimeWarning even
    # outside the suite's -W error::RuntimeWarning.
    inf = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        masses = cell_masses([-inf, -inf, 0.0, inf, inf])
        assert np.array_equal(_bits(masses), _bits([0.0, 0.5, 0.5, 0.0]))
        for edges in ([inf, inf], [-inf, -inf], [1.7e308, 1.7e308]):
            assert np.array_equal(_bits(cell_masses(edges)), _bits([0.0]))
        assert cell_masses([0.0]).size == 0


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


def test_mills_ratio_nonconvergence_carries_estimate(monkeypatch):
    # Near 0 the continued fraction converges far too slowly for 200 terms.
    monkeypatch.setattr(gauss, "_MILLS_CF_FROM", 0.0)
    with pytest.raises(AccuracyError) as info:
        mills_ratio(0.05)
    assert math.isfinite(info.value.estimate)
    assert info.value.error_bound > 0.0
