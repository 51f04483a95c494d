"""The per-profile cell table and the few-cell integrals read from it.

Every table and every cut of it is checked bit for bit (float.hex) against
the whole-line partition of tests/oracles.py: the profile's edges and the
kinks more than 1e-15 from all of them, merged within 1e-15, and one
gaussian_moments call on the whole partition (oracles.reference_cells).
"""

import dataclasses
import math
import operator

import numpy as np
import pytest

from grolab import explorer, pairing, profiles
from grolab.baseline import LAMBDA_STAR, ReedsParams, solve_eta_star
from grolab.claims import LAM_LIT
from grolab.errors import DomainError
from grolab.explorer import sample_feasible_profile, sample_theta_member
from grolab.gauss import first_moments
from grolab.profiles import (Profile, _cut_cells, _tails_fixed, lp_maximize,
                             repair_to_theta, theta_moments)

from conftest import LAM
from oracles import reference_cells, repair_to_theta_five_partitions


def _bits(cells):
    return ([float(x).hex() for x in cells.edges],
            [[float(x).hex() for x in row] for row in cells.rows])


def _assert_cut_matches(profile, kinks):
    """_cut_cells against the whole-line reference, and its edges spaced as
    a Profile's are."""
    got = _cut_cells(profile, kinks)
    assert _bits(got) == _bits(reference_cells(profile, kinks)), kinks
    assert all(b - a > 1e-15 for a, b in zip(got.edges, got.edges[1:])), kinks


def _window_moments(profile, window):
    """theta_moments over (-window, window) from the reference cut at
    +-window: the rows whose midpoint lies inside."""
    rows = [r for r in reference_cells(profile, (-window, window)).rows
            if abs(r[0]) < window]
    return [math.fsum(r[1] * r[k] for r in rows) for k in range(2, 6)]


@pytest.fixture(scope="module")
def prof():
    # edges -1, -0.5, 0.25, 0.75, 1, const tails
    return Profile(z_cut=1.0, breakpoints=(-0.5, 0.25, 0.75),
                   values=(0.3, -0.6, 0.9, -1.0), tail_rule="const",
                   tail_values=(0.25, -0.5))


def test_table_is_the_reference_partition(params, rng):
    profs = [Profile(z_cut=1.0, breakpoints=(-0.5, 0.25, 0.75),
                     values=(0.3, -0.6, 0.9, -1.0)),
             Profile(z_cut=0.5, breakpoints=(-0.2, -0.2 + 2e-15, 0.1),
                     values=(0.1, 0.2, 0.3, 0.4), tail_rule="const",
                     tail_values=(0.5, -0.5)),
             Profile(z_cut=45.0, breakpoints=(-41.0, 0.0, 39.5),
                     values=(1.0, -1.0, 0.5, -0.5)),
             sample_feasible_profile(int(rng.integers(1 << 30)), params),
             sample_theta_member(int(rng.integers(1 << 30)))]
    for p in profs:
        assert _bits(p._cell_table) == _bits(reference_cells(p))
        assert p._cell_table.edges == (-math.inf, *p.edges, math.inf)


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
    _assert_cut_matches(prof, (0.1,))
    _assert_cut_matches(prof, (-0.75, 0.5))
    # two kinks in one cell, in either order and repeated
    _assert_cut_matches(prof, (0.5, 0.3, 0.3))
    # neighbouring cells split: the pieces' call has an empty gap cell
    _assert_cut_matches(prof, (0.7, 0.8))
    # a kink equal to an edge cuts nothing
    assert _cut_cells(prof, (0.25, -1.0)) is prof._cell_table
    _assert_cut_matches(prof, (0.25, -1.0, 0.5))


def test_splice_kinks_in_infinite_cells(prof):
    # mids edges[1] - 1 and edges[-2] + 1 move with the kink
    for kinks in ((-1.5,), (1.5,), (-3.0, -1.2, 2.0), (-50.0, 60.0),
                  (-39.0, 39.0), (-1.5, -0.2, 0.9, 7.0)):
        _assert_cut_matches(prof, kinks)
    # non-finite kinks cut nothing
    _assert_cut_matches(prof, (math.inf, -math.inf, math.nan, 0.1))
    assert _cut_cells(prof, (math.inf, math.nan)) is prof._cell_table


def test_splice_kinks_near_edges(prof):
    # a kink within 1e-15 of an edge, on either side, cuts nothing
    for edge in (-1.0, -0.5, 0.25, 1.0):
        near = [edge + d for d in (-1e-15, -8e-16, -6e-16, 6e-16, 8e-16,
                                   1e-15)]
        near += [math.nextafter(edge, -2.0), math.nextafter(edge, 2.0)]
        for k in near:
            if abs(k - edge) <= 1e-15:
                assert _cut_cells(prof, (k,)) is prof._cell_table, k
            _assert_cut_matches(prof, (k,))
        _assert_cut_matches(prof, (edge - 2e-15, 0.5))
        _assert_cut_matches(prof, (edge + 2e-15,))
        _assert_cut_matches(prof, (edge - 8e-16, edge + 2e-15, 0.5))


def test_splice_kinks_near_each_other(prof):
    # a run of kinks less than 1e-15 apart cuts at its first, and each
    # later kink cuts only more than 1e-15 above the last cut
    k = 0.5
    cases = [(k, k + 5e-16), (k + 5e-16, k), (k, k + 1e-15),
             (k, k + 6e-16, k + 1.2e-15), (k, k + 6e-16, k + 1.2e-15,
                                           k + 1.8e-15),
             (k - 1e-15, k, k + 1e-15)]
    for kinks in cases:
        _assert_cut_matches(prof, kinks)
    # a kink near an edge cuts nothing, and the one just above it does
    _assert_cut_matches(prof, (0.75 - 1.6e-15, 0.75 - 8e-16))
    _assert_cut_matches(prof, (0.25 + 8e-16, 0.25 + 1.6e-15))


def test_splice_near_merged_breakpoints():
    # breakpoints 5e-16 apart are no profile; 2e-15 apart they are two
    # edges, and a kink between them or near either cuts nothing
    with pytest.raises(DomainError, match="more than 1e-15 apart"):
        Profile(z_cut=1.0, breakpoints=(0.25, 0.25 + 5e-16, 0.6),
                values=(0.1, 0.2, 0.3, 0.4))
    p = Profile(z_cut=1.0, breakpoints=(0.25, 0.25 + 2e-15, 0.6),
                values=(0.1, 0.2, 0.3, 0.4))
    assert len(p._cell_table.edges) == len(p.edges) + 2
    for kinks in ((0.25 - 8e-16,), (0.25 + 1e-15,), (0.25 + 2.5e-15,),
                  (0.25 - 1.5e-15,), (0.25 + 3.5e-15,), (0.4,)):
        _assert_cut_matches(p, kinks)


def _grid_profile(n):
    """A non-canonical copy of the LP maximizer with n uniform cells."""
    q, _ = lp_maximize(ReedsParams.at_reeds_point(LAM_LIT), 16384)
    e = np.linspace(-q.z_cut, q.z_cut, n + 1)
    return Profile(z_cut=q.z_cut, breakpoints=e[1:-1],
                   values=q.evaluate(0.5 * (e[:-1] + e[1:])))


def test_window_slice_matches_window_partition(prof, params, rng):
    profs = [prof, sample_theta_member(3), sample_feasible_profile(7, params),
             Profile(z_cut=1.0, breakpoints=(-1.0 + 2e-15, 0.0, 1.0 - 2e-15),
                     values=(0.5, -0.5, 0.25, -0.25)),
             Profile(z_cut=1.0, breakpoints=(-1.0 + 1.1e-15, 1.0 - 1.1e-15),
                     values=(0.5, -0.5, 0.25))]
    for p in profs:
        z = p.z_cut
        windows = [z, z + 1e-15, z - 1e-15, z + 5e-16, z - 2e-15, 0.5 * z,
                   0.3, 2.0 * z, 41.0, 1e-16]
        windows += [float(w) for w in rng.uniform(0.01, 3.0, 5)]
        for w in windows:
            assert [x.hex() for x in theta_moments(p, w)] == \
                [x.hex() for x in _window_moments(p, w)], (p, w)


def test_theta_moments_rejects_nonpositive_windows(prof):
    for w in (-1.0, 0.0, -0.0, math.nan, -math.inf):
        with pytest.raises(DomainError, match="window > 0"):
            theta_moments(prof, w)


def test_window_slice_on_series_grid_profile():
    # 16384 cells of 1.6e-4 on (-z_cut, z_cut): the window at z_cut is the
    # inner rows of the table, which the whole line integrates by erfc;
    # cuts at +-eta split two cells, whose call spans 2 eta.
    p = _grid_profile(16384)
    eta = ReedsParams.at_reeds_point(LAM_LIT).eta
    rows = reference_cells(p).rows[1:-1]
    assert [x.hex() for x in theta_moments(p, p.z_cut)] == \
        [math.fsum(r[1] * r[k] for r in rows).hex() for k in range(2, 6)]
    assert _bits(_cut_cells(p, (-eta, eta))) == \
        _bits(reference_cells(p, (-eta, eta)))


def test_cut_keeps_profile_spacing(rng):
    # random kinks, many within 1e-15 of an edge or of each other: every
    # cut matches the reference, and its edges lie more than 1e-15 apart
    for _ in range(200):
        z_cut = float(rng.uniform(0.2, 3.0))
        bp = np.sort(rng.uniform(-z_cut, z_cut, int(rng.integers(0, 8))))
        p = Profile.from_grid(rng.uniform(-1.0, 1.0, 5), z_cut=z_cut)
        if len(bp) and min(np.diff([-z_cut, *bp, z_cut])) > 1e-14:
            p = Profile(z_cut=z_cut, breakpoints=bp,
                        values=rng.uniform(-1.0, 1.0, len(bp) + 1))
        anchors = [*p.edges, *rng.uniform(-2.0 * z_cut, 2.0 * z_cut, 3)]
        kinks = [float(rng.choice(anchors)) + float(rng.uniform(-3e-15, 3e-15))
                 for _ in range(int(rng.integers(1, 7)))]
        _assert_cut_matches(p, kinks)


def test_repair_skips_step_one_only_where_it_is_a_no_op():
    eta_star = solve_eta_star(LAMBDA_STAR)
    inputs = [Profile.from_grid(
        np.random.Generator(np.random.Philox(key=seed)).uniform(
            -1.0, 1.0, 16).tolist(), z_cut=eta_star) for seed in range(40)]
    # edges 1.1e-15 apart, and a breakpoint 1.1e-15 inside -eta*
    bp = list(inputs[0].breakpoints)
    bp.insert(4, bp[3] + 1.1e-15)
    inputs += [Profile(z_cut=eta_star, breakpoints=bp,
                       values=[*inputs[0].values, 0.25]),
               Profile(z_cut=eta_star, breakpoints=(-eta_star + 1.1e-15, 0.1),
                       values=(0.5, -0.25, 0.75))]
    for p in inputs:
        assert _tails_fixed(p, eta_star)
        assert profiles._rebuild(p, eta_star) == p
    values = [0.5] * 16
    over = [Profile.from_grid([*values[:5], s * (1.0 + 1e-15), *values[6:]],
                              z_cut=eta_star) for s in (1.0, -1.0)]
    other = [*over,
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


def test_repair_of_edges_straddling_eta_star():
    # two breakpoints 1.2e-15 apart, both within 1e-15 of eta*: +-eta*
    # cuts nothing, and the tail-fixed and repaired profiles end at eta*
    # with no edge within 1e-15 of it
    eta_star = solve_eta_star(LAMBDA_STAR)
    for lo in (eta_star - 1e-15, eta_star - 6e-16, eta_star - 2e-16):
        bp = (-0.6, -eta_star - 6e-16, -eta_star + 6e-16, 0.05,
              lo, lo + 1.2e-15)
        p = Profile(z_cut=0.9, breakpoints=bp,
                    values=(0.8, -0.3, 0.6, 0.9, 0.2, -0.7, 0.4))
        member, cost = repair_to_theta(p, lam=LAMBDA_STAR)
        assert member.z_cut == eta_star and member.tail_rule == "sign"
        assert abs(theta_moments(member, eta_star)[1]) <= 1e-13
        assert 0.0 < cost < 2.0
        fixed = profiles._rebuild(p, eta_star)
        assert all(abs(abs(e) - eta_star) > 1e-15 for e in fixed.breakpoints)


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


def test_first_moment_readers_match_row_one_route(monkeypatch):
    # the samplers and the repair cost, 200 seeds, against the same calls
    # on gaussian_moments' row 1; and the repair's inner moment, a sum over
    # the edges of a profile with z_cut = eta*, is its window moment
    params = ReedsParams.at_reeds_point(LAMBDA_STAR)
    eta_star = solve_eta_star(LAMBDA_STAR)
    seeds = range(200)
    for seed in seeds:
        rough = Profile.from_grid(np.random.Generator(np.random.Philox(
            key=seed)).uniform(-1.0, 1.0, 16).tolist(), z_cut=eta_star)
        inner = math.fsum(map(operator.mul, first_moments(rough.edges),
                              rough.values))
        assert inner.hex() == theta_moments(rough, eta_star)[1].hex()
    got = [[x.hex() for x in _sampler_outputs(s, params)] for s in seeds]

    def row_one(edges):
        return profiles.gaussian_moments(edges)[1]
    monkeypatch.setattr(explorer, "first_moments", row_one)
    monkeypatch.setattr(profiles, "first_moments", row_one)
    ref = [[x.hex() for x in _sampler_outputs(s, params)] for s in seeds]
    assert got == ref


def _whole_line_cuts(monkeypatch):
    # every cut of a cell table replaced by the whole-line partition and one
    # gaussian_moments call on it, and repair step 1 never skipped
    monkeypatch.setattr(profiles, "_cut_cells", reference_cells)
    monkeypatch.setattr(explorer, "_cut_cells", reference_cells)
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
    # with every cut of a table taken on the whole line afresh
    params = ReedsParams.at_reeds_point(LAMBDA_STAR)
    seeds = range(30)
    got = [[x.hex() for x in _few_cell_outputs(s, params)] for s in seeds]
    got.append([x.hex() for x in _three_root_norms()])
    _whole_line_cuts(monkeypatch)
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
