import math

import pytest

from grolab.baseline import (_LAMBDA_FEASIBLE_MAX, LAMBDA_STAR, argmax_gap,
                             solve_eta_star)
from grolab.certify import (_beyond, all_certified_checks,
                            eta_argmax_enclosure, eta_star_enclosure)
from grolab.claims import BOUNDS, CLAIMS, LAM_LIT, TARGETS
from grolab.cli import RunConfig, run
from grolab.errors import InternalCheckError
from grolab.intervals import Interval

from oracles import argmax_mp, reeds_bound_mp

# From tiny lambda, where eta ~ sqrt(pi/2) lambda, to just below the
# feasibility maximum, where the equation's slope at the root vanishes.
ENCLOSED_LAMBDAS = [1e-300, 1e-100, 1e-12, 1e-6, 1e-3, 0.1, LAM_LIT, 0.3,
                    _LAMBDA_FEASIBLE_MAX * (1 - 1e-6),
                    _LAMBDA_FEASIBLE_MAX * (1 - 1e-8),
                    _LAMBDA_FEASIBLE_MAX * (1 - 1e-9)]


@pytest.mark.parametrize("lam", ENCLOSED_LAMBDAS)
def test_eta_enclosure_contains_high_precision_root(lam):
    mpmath = pytest.importorskip("mpmath")
    iv = eta_star_enclosure(lam)
    assert 0.0 <= iv.lo < iv.hi <= 1.0
    with mpmath.workdps(50):
        target = mpmath.mpf(lam)
        root = mpmath.findroot(
            lambda x: mpmath.sqrt(2 / mpmath.pi) * x * mpmath.exp(-x * x / 2)
            - target, mpmath.mpf(solve_eta_star(lam)))
        assert iv.lo <= root <= iv.hi


def test_eta_enclosure_is_tight_at_certified_lambdas():
    _, step = TARGETS["lambda_star"]
    for lam in (LAM_LIT, LAMBDA_STAR, LAMBDA_STAR - step, LAMBDA_STAR + step):
        iv = eta_star_enclosure(lam)
        assert iv.width <= 16 * math.ulp(solve_eta_star(lam)), (lam, iv)


def test_eta_enclosure_fails_loudly_where_no_sign_is_certain():
    lam = math.nextafter(_LAMBDA_FEASIBLE_MAX, 0.0)
    with pytest.raises(InternalCheckError, match=f"lambda={lam!r}"):
        eta_star_enclosure(lam)


def test_beyond_is_strict():
    # an enclosure touching the bound proves nothing, whatever the relation
    iv = Interval(1.0, 2.0)
    for relation in (">", ">="):
        assert not _beyond("x", iv, relation, 1.0).passed
    for relation in ("<", "<="):
        assert not _beyond("x", iv, relation, 2.0).passed


def test_beyond_rejects_unknown_relation():
    iv = Interval(1.0, 2.0)
    assert _beyond("x", iv, ">", 0.0).passed
    assert _beyond("x", iv, "<=", 3.0).passed
    for relation in ("=", "==", "=>", "!=", ""):
        with pytest.raises(ValueError, match="unknown relation"):
            _beyond("x", iv, relation, 0.0)


def test_every_claim_is_in_both_reports():
    # One table entry gives one float line and one certified line under the
    # same base name; the certified report has no other line.
    labels = [c.label for c in CLAIMS]
    assert len(set(labels)) == len(labels)
    floats = {c.name.split(" ")[0]
              for c in run(RunConfig(command="verify-all")).checks}
    assert set(labels) <= floats
    assert [c.name for c in all_certified_checks()] == labels


def test_argmax_enclosures_contain_200_bit_argmax():
    mpmath = pytest.importorskip("mpmath")
    iv = eta_argmax_enclosure()
    assert iv.width <= 1e-14
    line = {c.name: c for c in all_certified_checks()}["lambda_star"]
    with mpmath.workprec(200):
        eta, lam = argmax_mp(mpmath)
        assert iv.lo <= eta <= iv.hi
        assert line.lo <= lam <= line.hi


def test_certified_argmax_gap_covers_200_bit_gap_within_budget():
    # c - bound(LAMBDA_STAR) <= the certified gap <= the increment's margin
    # over the headline's 1e-26
    mpmath = pytest.importorskip("mpmath")
    gap = argmax_gap(eta_star_enclosure(LAMBDA_STAR), eta_argmax_enclosure())
    increment = {c.name: c for c in all_certified_checks()}["kg_increment"]
    with mpmath.workprec(200):
        eta, _ = argmax_mp(mpmath)
        target = mpmath.mpf(LAMBDA_STAR)
        eta0 = mpmath.findroot(
            lambda e: 2 * e * mpmath.npdf(e) - target, mpmath.mpf("0.2557"))
        exact = reeds_bound_mp(mpmath, eta) - reeds_bound_mp(mpmath, eta0)
        assert 0 < exact <= gap.hi
    assert gap.hi < increment.lo - BOUNDS["kg_increment_exceeds"]
