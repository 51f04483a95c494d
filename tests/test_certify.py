import math

import pytest

from grolab.baseline import _LAMBDA_FEASIBLE_MAX, LAMBDA_STAR, solve_eta_star
from grolab.certify import _beyond, eta_star_enclosure
from grolab.claims import LAM_LIT, TARGETS
from grolab.errors import InternalCheckError
from grolab.intervals import Interval

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


def test_beyond_rejects_unknown_relation():
    iv = Interval(1.0, 2.0)
    assert _beyond("x", iv, ">", 0.0).passed
    assert _beyond("x", iv, "<=", 3.0).passed
    for relation in ("=", "==", "=>", "!=", ""):
        with pytest.raises(ValueError, match="unknown relation"):
            _beyond("x", iv, relation, 0.0)
