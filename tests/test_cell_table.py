"""The per-profile cell table and the few-cell integrals read from it.

Every table, splice and window slice is checked bit for bit (float.hex)
against the reference path: the profile's cells cut by _cells, one
gaussian_moments call on them (profiles._reference_cells).
"""

import dataclasses
import math

import numpy as np
import pytest

from grolab import explorer, pairing, profiles
from grolab.baseline import LAMBDA_STAR, ReedsParams, solve_eta_star
from grolab.claims import LAM_LIT
from grolab.errors import DomainError
from grolab.explorer import sample_feasible_profile, sample_theta_member
from grolab.gauss import dedupe_edges, merge_sorted_edges
from grolab.profiles import (Profile, _cut_cells, _reference_cells, _splice,
                             _tails_fixed, _window_cells, _window_moments,
                             lp_maximize, repair_to_theta, theta_moments)

from conftest import LAM
from oracles import repair_to_theta_five_partitions

W = 2.0 ** -10  # widest cell of cell_masses' midpoint series


def _bits(cells):
    return ([float(x).hex() for x in cells.edges],
            [[float(x).hex() for x in row] for row in cells.rows])


def _assert_cut_matches(profile, kinks, spliced=None):
    """_cut_cells against the reference; spliced=True/False also asserts
    whether the splice took the cut or handed it to the reference."""
    ref = _bits(_reference_cells(profile, kinks))
    assert _bits(_cut_cells(profile, kinks)) == ref, kinks
    if spliced is not None:
        assert (_splice(profile, kinks) is not None) == spliced, kinks


@pytest.fixture(scope="module")
def prof():
    # edges -1, -0.5, 0.25, 0.75, 1, const tails
    return Profile(z_cut=1.0, breakpoints=(-0.5, 0.25, 0.75),
                   values=(0.3, -0.6, 0.9, -1.0), tail_rule="const",
                   tail_values=(0.25, -0.5))


def test_table_is_the_reference_partition(params, rng):
    profs = [Profile(z_cut=1.0, breakpoints=(-0.5, 0.25, 0.75),
                     values=(0.3, -0.6, 0.9, -1.0)),
             Profile(z_cut=0.5, breakpoints=(-0.2, -0.2 + 1e-15, 0.1),
                     values=(0.1, 0.2, 0.3, 0.4), tail_rule="const",
                     tail_values=(0.5, -0.5)),
             Profile(z_cut=45.0, breakpoints=(-41.0, 0.0, 39.5),
                     values=(1.0, -1.0, 0.5, -0.5)),
             sample_feasible_profile(int(rng.integers(1 << 30)), params),
             sample_theta_member(int(rng.integers(1 << 30)))]
    for p in profs:
        assert _bits(p._cell_table) == _bits(_reference_cells(p))


def test_merge_sorted_edges_is_dedupe_without_sort(rng):
    for _ in range(200):
        pts = np.sort(rng.uniform(-2.0, 2.0, int(rng.integers(0, 20))))
        pts = [float(x) for x in pts]
        pts += [p + d for p in pts[:3] for d in (0.0, 5e-16, 1e-15, 2e-15)]
        pts.sort()
        for lo, hi in ((-math.inf, math.inf), (-1.0, 1.0)):
            assert merge_sorted_edges(pts, lo, hi) == dedupe_edges(pts, lo, hi)


def test_table_built_once_and_read_only(monkeypatch, params):
    member = sample_theta_member(5, lam=LAM)  # carries the repair's table
    p = Profile(z_cut=member.z_cut, breakpoints=member.breakpoints,
                values=member.values)
    edges_seen = []
    real = profiles.gaussian_moments

    def counted(edges):
        edges_seen.append(len(edges))
        return real(edges)

    monkeypatch.setattr(profiles, "gaussian_moments", counted)
    table = p._cell_table
    assert edges_seen == [len(table.edges)]
    # Everything that reads the table leaves it alone: the moments, the
    # window slice at z_cut and the cut at +-eta (profile edges here).
    theta_moments(p)
    theta_moments(p, p.z_cut)
    profiles.V_value(p, params)
    profiles.gap_tail_integral(p, params)
    assert p._cell_table is table
    assert edges_seen == [len(table.edges)]
    with pytest.raises(AttributeError):
        table.rows = ()
    with pytest.raises(TypeError):
        table.edges[0] = 0.0
    with pytest.raises(TypeError):
        table.rows[0] = table.rows[1]
    with pytest.raises(TypeError):
        table.rows[0][2] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p._cell_table = table


def test_splice_kinks_inside_cells(prof):
    _assert_cut_matches(prof, (0.1,), spliced=True)
    _assert_cut_matches(prof, (-0.75, 0.5), spliced=True)
    # two kinks in one cell, in either order and repeated
    _assert_cut_matches(prof, (0.5, 0.3, 0.3), spliced=True)
    # neighbouring cells split: the pieces' call has an empty gap cell
    _assert_cut_matches(prof, (0.7, 0.8), spliced=True)
    # a kink equal to an edge cuts nothing
    assert _splice(prof, (0.25, -1.0)) is prof._cell_table
    _assert_cut_matches(prof, (0.25, -1.0, 0.5), spliced=True)


def test_splice_kinks_in_infinite_cells(prof):
    # mids edges[1] - 1 and edges[-2] + 1 move with the kink
    for kinks in ((-1.5,), (1.5,), (-3.0, -1.2, 2.0), (-50.0, 60.0),
                  (-39.0, 39.0), (-1.5, -0.2, 0.9, 7.0)):
        _assert_cut_matches(prof, kinks, spliced=True)
    # non-finite kinks are dropped, as the reference drops them
    _assert_cut_matches(prof, (math.inf, -math.inf, math.nan, 0.1),
                        spliced=True)


def test_splice_kinks_near_edges(prof):
    # within 1e-15 of an edge: the reference's merge keeps the kink and
    # drops the edge (kink below) or drops the kink (above); the splice
    # hands both to the reference
    for edge in (-1.0, -0.5, 0.25, 1.0):
        near = [edge + d for d in (-8e-16, -6e-16, 6e-16, 8e-16)]
        near += [math.nextafter(edge, -2.0), math.nextafter(edge, 2.0)]
        for k in near:
            _assert_cut_matches(prof, (k,), spliced=False)
        # 1e-15 from the edge as written, which rounds to either side
        for d in (-1e-15, 1e-15):
            _assert_cut_matches(prof, (edge + d,))
        _assert_cut_matches(prof, (edge - 2e-15, 0.5), spliced=True)
        _assert_cut_matches(prof, (edge + 2e-15,), spliced=True)


def test_splice_kinks_near_each_other(prof):
    # dedupe_edges merges a run of kinks less than 1e-15 apart, from its
    # first: the kept ones are > 1e-15 apart
    k = 0.5
    cases = [(k, k + 5e-16), (k + 5e-16, k), (k, k + 1e-15),
             (k, k + 6e-16, k + 1.2e-15), (k, k + 6e-16, k + 1.2e-15,
                                           k + 1.8e-15),
             (k - 1e-15, k, k + 1e-15)]
    for kinks in cases:
        _assert_cut_matches(prof, kinks, spliced=True)
    # a merged-away kink near an edge while the kept one is not
    _assert_cut_matches(prof, (0.75 - 1.6e-15, 0.75 - 8e-16), spliced=None)


def test_splice_near_merged_breakpoints():
    # breakpoints 5e-16 apart: the table merges the second one away; a kink
    # just below the first would make the reference keep the kink and
    # then the second breakpoint
    p = Profile(z_cut=1.0, breakpoints=(0.25, 0.25 + 5e-16, 0.6),
                values=(0.1, 0.2, 0.3, 0.4))
    assert len(p._cell_table.edges) == len(p.edges) + 1
    for kinks in ((0.25 - 8e-16,), (0.25 + 2e-16,), (0.25 + 1.5e-15,),
                  (0.25 - 1.5e-15,), (0.4,)):
        _assert_cut_matches(p, kinks)


def test_splice_series_guard():
    # A split cell of width w cut in the middle: at w <= 2 * 2**-10 a call on
    # its three edges may take the midpoint series, which the reference
    # (the whole line, erfc) does not; the splice hands it over.
    for a in (0.1, -0.3, 0.7, 2.0):
        for f, spliced in ((0.999, False), (0.5, False), (1.001, True)):
            b = a + 2.0 * W * f
            p = Profile(z_cut=3.0, breakpoints=(a, b),
                        values=(0.2, -0.7, 0.4))
            for k in (0.5 * (a + b), a + 0.3 * (b - a)):
                _assert_cut_matches(p, (k,), spliced=spliced)
            # three pieces of a cell just under 3 * 2**-10
            c = a + 3.0 * W * f
            q = Profile(z_cut=3.0, breakpoints=(a, c), values=(0.2, -0.7, 0.4))
            thirds = (a + (c - a) / 3.0, a + 2.0 * (c - a) / 3.0)
            _assert_cut_matches(q, thirds, spliced=spliced)


def _grid_profile(n):
    """A non-canonical copy of the LP maximizer with n uniform cells."""
    q, _ = lp_maximize(ReedsParams.at_reeds_point(LAM_LIT), 16384)
    e = np.linspace(-q.z_cut, q.z_cut, n + 1)
    return Profile(z_cut=q.z_cut, breakpoints=e[1:-1],
                   values=q.evaluate(0.5 * (e[:-1] + e[1:])))


def test_window_slice_matches_window_partition(prof, params, rng):
    profs = [prof, sample_theta_member(3), sample_feasible_profile(7, params),
             Profile(z_cut=1.0, breakpoints=(-1.0 + 1e-15, 0.0, 1.0 - 1e-15),
                     values=(0.5, -0.5, 0.25, -0.25)),
             Profile(z_cut=1.0, breakpoints=(-1.0 + 5e-16, 1.0 - 5e-16),
                     values=(0.5, -0.5, 0.25)),
             Profile(z_cut=1.0, breakpoints=(-1.0 + 2e-15, 1.0 - 2e-15),
                     values=(0.5, -0.5, 0.25))]
    for p in profs:
        z = p.z_cut
        windows = [z, z + 1e-15, z - 1e-15, z + 5e-16, z - 2e-15, 0.5 * z,
                   0.3, 2.0 * z, 41.0, 1e-16, 0.0, -1.0, math.nan]
        windows += [float(w) for w in rng.uniform(0.01, 3.0, 5)]
        for w in windows:
            got = theta_moments(p, w)
            assert [x.hex() for x in got] == \
                [x.hex() for x in _window_moments(p, w)], (p, w)
            cells = _window_cells(p, w)
            if cells is not None:
                assert _bits(cells) == \
                    _bits(_reference_cells(p, window=w)), (p, w)
    # the first point inside within 1e-15 of -z_cut: the window keeps it
    edge = Profile(z_cut=1.0, breakpoints=(-1.0 + 5e-16, 0.5),
                   values=(0.5, -0.5, 0.25))
    assert _window_cells(edge, 1.0) is None
    assert _window_cells(profs[1], profs[1].z_cut) is not None


def test_window_slice_on_series_grid_profile():
    # 16384 cells of 1.6e-4 on (-z_cut, z_cut): the window's own partition
    # takes the midpoint series, the line's table erfc differences, so the
    # window moments come from the window partition; cuts at +-eta split
    # two cells and are spliced (their call spans 2 eta).
    p = _grid_profile(16384)
    eta = ReedsParams.at_reeds_point(LAM_LIT).eta
    assert _window_cells(p, p.z_cut) is None
    assert [x.hex() for x in theta_moments(p, p.z_cut)] == \
        [x.hex() for x in _window_moments(p, p.z_cut)]
    assert _bits(_cut_cells(p, (-eta, eta))) == \
        _bits(_reference_cells(p, (-eta, eta)))
    assert _splice(p, (-eta, eta)) is not None
    # a cut inside one narrow cell alone is handed to the reference
    a, b = p.breakpoints[9000], p.breakpoints[9001]
    _assert_cut_matches(p, (0.5 * (a + b),), spliced=False)


def test_repair_skips_step_one_only_where_it_is_a_no_op():
    eta_star = solve_eta_star(LAMBDA_STAR)
    inputs = [Profile.from_grid(
        np.random.Generator(np.random.Philox(key=seed)).uniform(
            -1.0, 1.0, 16).tolist(), z_cut=eta_star) for seed in range(40)]
    for p in inputs:
        assert _tails_fixed(p, eta_star)
        assert profiles._rebuild(p, eta_star) == p
    values = [0.5] * 16
    over = [Profile.from_grid([*values[:5], s * (1.0 + 1e-15), *values[6:]],
                              z_cut=eta_star) for s in (1.0, -1.0)]
    bp = list(inputs[0].breakpoints)
    bp.insert(4, bp[3] + 1e-15)
    close = Profile(z_cut=eta_star, breakpoints=bp,
                    values=[*inputs[0].values, 0.25])
    near_cut = Profile(z_cut=eta_star, breakpoints=(-eta_star + 1e-15, 0.1),
                       values=(0.5, -0.25, 0.75))
    other = [*over, close, near_cut,
             Profile.from_grid(values, z_cut=eta_star, tail_rule="const",
                               tail_values=(-1.0, 1.0)),
             Profile.from_grid(values, z_cut=math.nextafter(eta_star, 1.0))]
    for p in other:
        assert not _tails_fixed(p, eta_star)
    for p in inputs + other:
        got = repair_to_theta(p, lam=LAMBDA_STAR)
        ref = repair_to_theta_five_partitions(p, lam=LAMBDA_STAR)
        assert got[1].hex() == ref[1].hex()
        assert [x.hex() for x in (*got[0].breakpoints, *got[0].values)] == \
            [x.hex() for x in (*ref[0].breakpoints, *ref[0].values)]


def _sampler_outputs(seed, params):
    # both samplers, and the repair's cost on a member input (sign tails at
    # eta*) and on the feasible profile (z_cut 1, tails not fixed)
    eta_star = solve_eta_star(LAMBDA_STAR)
    feasible = sample_feasible_profile(seed, params)
    member = sample_theta_member(seed)
    rough = Profile.from_grid(np.random.Generator(np.random.Philox(
        key=seed)).uniform(-1.0, 1.0, 16).tolist(), z_cut=eta_star)
    _, member_cost = repair_to_theta(rough)
    repaired, cost = repair_to_theta(feasible)
    return [*feasible.values, *member.breakpoints, *member.values,
            member_cost, *repaired.breakpoints, *repaired.values, cost]


def _first_moments_by_row_one(monkeypatch):
    # the route before first_moments: gaussian_moments' row 1, and the
    # repair's inner moment from theta_moments of the tail-fixed profile
    def row_one(edges):
        return profiles.gaussian_moments(edges)[1]
    monkeypatch.setattr(explorer, "first_moments", row_one)
    monkeypatch.setattr(profiles, "first_moments", row_one)
    monkeypatch.setattr(profiles, "_inner_moment",
                        lambda p, eta_star: theta_moments(p, eta_star)[1])


def test_first_moment_readers_match_row_one_route(monkeypatch):
    # the samplers and the repair cost, 200 seeds, against the same calls
    # on gaussian_moments' row 1 and theta_moments(fixed, eta*)
    params = ReedsParams.at_reeds_point(LAMBDA_STAR)
    seeds = range(200)
    got = [[x.hex() for x in _sampler_outputs(s, params)] for s in seeds]
    _first_moments_by_row_one(monkeypatch)
    ref = [[x.hex() for x in _sampler_outputs(s, params)] for s in seeds]
    assert got == ref


def test_repair_inner_moment_fallback(monkeypatch):
    # A tail-fixed profile whose edges lie within 1e-15 of each other takes
    # theta_moments(fixed, eta*), on which the window's own partition may
    # differ from the edges; the others take the first-moment sum.
    eta_star = solve_eta_star(LAMBDA_STAR)
    near_cut = Profile(z_cut=eta_star, breakpoints=(-eta_star + 5e-16, 0.1),
                       values=(0.5, -0.25, 0.75))
    # const tails at z_cut 0.9 (tails not fixed): a breakpoint 5e-16 below
    # eta* stays an edge of the tail-fixed profile, next to eta*
    loose_tails = Profile(z_cut=0.9, breakpoints=(-0.3, eta_star - 5e-16),
                          values=(0.2, 0.9, -0.4), tail_rule="const",
                          tail_values=(0.5, -0.5))
    member_input = Profile.from_grid([0.5, -0.25, 0.75, 0.1], z_cut=eta_star)
    wide_input = Profile.from_grid([0.5, -0.25, 0.75], z_cut=0.9)
    cases = ((near_cut, True), (loose_tails, True), (member_input, False),
             (wide_input, False))
    got = [repair_to_theta(p) for p, _ in cases]
    fallbacks = []
    real = profiles.theta_moments

    def recorded(profile, window=math.inf):
        fallbacks.append(window)
        return real(profile, window)

    monkeypatch.setattr(profiles, "theta_moments", recorded)
    for (p, fallback), (member, cost) in zip(cases, got):
        fallbacks.clear()
        repair_to_theta(p)
        assert fallbacks == ([eta_star] if fallback else []), p
        ref = repair_to_theta_five_partitions(p, lam=LAMBDA_STAR)
        assert cost.hex() == ref[1].hex()
        assert [x.hex() for x in (*member.breakpoints, *member.values)] == \
            [x.hex() for x in (*ref[0].breakpoints, *ref[0].values)]
    # z_cut 0.9 is not eta*: the profile's edges reach past the window, so
    # the sum over them is not the window's moment and the fallback is taken
    for p, _ in cases:
        assert profiles._inner_moment(p, eta_star).hex() == \
            real(p, eta_star)[1].hex(), p


def _reference_only(monkeypatch):
    monkeypatch.setattr(profiles, "_splice", lambda profile, kinks: None)
    monkeypatch.setattr(profiles, "_window_cells", lambda profile, w: None)
    monkeypatch.setattr(profiles, "_tails_fixed", lambda profile, e: False)


def _few_cell_outputs(seed, params):
    feasible = sample_feasible_profile(seed, params)
    cert = profiles.gap_certificate(feasible, params)
    member = sample_theta_member(seed)
    a_val, _ = pairing.A_bound_check(member, params.eta)
    rows = explorer.beta_derivative_scan(member, params,
                                         [0.3, 1e-3, 2.5e-4, 1e-8])
    return [*cert.__dict__.values(), a_val, *(v for r in rows for v in r),
            *member.breakpoints, *member.values,
            profiles.V_value(feasible, params),
            profiles.gap_tail_integral(feasible, params)]


def _three_root_norms():
    # alpha + 3 c3 beta < 0 at beta = 3: three real roots, six kinks
    wide = Profile(z_cut=2.5, breakpoints=(-1.5, 0.0, 1.5),
                   values=(0.5, -1.0, 1.0, -0.5))
    params = ReedsParams(0.3, profiles.moment(wide))
    coeff = 3.0 * explorer._h3_coefficient(wide)
    assert len(explorer._cubic_roots(params.alpha, params.lam, coeff)) == 3
    return [explorer.r_lambda_beta_norm_1d(wide, params, beta)
            for beta in (3.0, 1.0, 1e-3)]


def test_few_cell_integrals_match_reference_path(monkeypatch):
    # gap certificate, repair, A bound and beta scans against the same calls
    # with every splice, slice and step-1 skip replaced by the reference path
    params = ReedsParams.at_reeds_point(LAMBDA_STAR)
    seeds = range(30)
    got = [[x.hex() for x in _few_cell_outputs(s, params)] for s in seeds]
    got.append([x.hex() for x in _three_root_norms()])
    _reference_only(monkeypatch)
    ref = [[x.hex() for x in _few_cell_outputs(s, params)] for s in seeds]
    ref.append([x.hex() for x in _three_root_norms()])
    assert got == ref


def test_F_value_is_dual_value_at_minus_alpha():
    lam = LAMBDA_STAR
    for a in np.arange(0.05, 0.99, 1e-2):
        a = float(a)
        assert profiles.F_value(a, lam).hex() == \
            profiles.dual_value(-a, ReedsParams(lam, a)).hex()
    for alpha, lam in ((0.0, 0.2), (1.0, 0.2), (0.5, 0.0), (0.5, 1.0),
                       (math.nan, 0.2), (0.5, math.nan)):
        with pytest.raises(DomainError):
            profiles.F_value(alpha, lam)
