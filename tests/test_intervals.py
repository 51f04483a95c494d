import mpmath
import pytest

from grolab.gauss import gaussian_pdf
from grolab.intervals import (
    FLOATS,
    INTERVALS,
    Interval,
    SQRT_2PI,
    gaussian_cdf_iv,
    gaussian_pdf_iv,
)

mpmath.mp.dps = 50


def _contains(iv: Interval, value) -> bool:
    return iv.lo <= float(value) <= iv.hi


def test_arithmetic_encloses_exact_rationals(rng):
    for _ in range(500):
        a, b = rng.uniform(-50, 50, 2)
        x, y = Interval.exact(a), Interval.exact(b)
        assert _contains(x + y, mpmath.mpf(a) + mpmath.mpf(b))
        assert _contains(x - y, mpmath.mpf(a) - mpmath.mpf(b))
        assert _contains(x * y, mpmath.mpf(a) * mpmath.mpf(b))
        if abs(b) > 1e-8:
            assert _contains(x / y, mpmath.mpf(a) / mpmath.mpf(b))


def test_elementary_functions_enclose_mpmath(rng):
    for _ in range(300):
        a = float(rng.uniform(1e-8, 30))
        x = Interval.exact(a)
        assert _contains(x.sqrt(), mpmath.sqrt(a))
        assert _contains(x.log(), mpmath.log(a))
        assert _contains(Interval.exact(-a / 10).exp(), mpmath.exp(-a / 10))
        assert _contains(Interval.exact(a / 10).erf(), mpmath.erf(a / 10))


def test_interval_spanning_operations():
    x = Interval(-2.0, 3.0)
    assert x.abs().lo == 0.0 and x.abs().hi == 3.0
    assert x.square().lo == 0.0
    assert _contains(x.square(), 9.0)
    with pytest.raises(ZeroDivisionError):
        Interval.exact(1.0) / x
    with pytest.raises(ValueError):
        Interval(-1.0, 0.5).sqrt()
    with pytest.raises(ValueError):
        Interval(3.0, 2.0)


def test_pow_frac():
    x = Interval.exact(8e-25)
    enclosure = x.pow_frac(7, 10)
    assert _contains(enclosure, mpmath.mpf(8e-25) ** mpmath.mpf("0.7"))
    assert enclosure.width < 1e-30


def test_predicates():
    x = Interval(1.0, 1.5)
    assert x.strictly_above(0.9)
    assert x.strictly_below(1.6)
    assert not x.strictly_above(1.2)
    assert x.within(1.25, 0.3)
    assert not x.within(1.25, 0.2)
    assert x.mid == 1.25
    assert x.width == 0.5


def test_gaussian_interval_functions(rng):
    for _ in range(200):
        z = float(rng.uniform(-6, 6))
        pdf_true = mpmath.exp(-mpmath.mpf(z) ** 2 / 2) / mpmath.sqrt(2 * mpmath.pi)
        cdf_true = (1 + mpmath.erf(mpmath.mpf(z) / mpmath.sqrt(2))) / 2
        assert _contains(gaussian_pdf_iv(Interval.exact(z)), pdf_true)
        assert _contains(gaussian_cdf_iv(Interval.exact(z)), cdf_true)
    assert _contains(SQRT_2PI, mpmath.sqrt(2 * mpmath.pi))


def test_widths_stay_tight():
    z = Interval.exact(0.2557)
    pdf = gaussian_pdf_iv(z)
    assert pdf.width < 1e-14
    cdf = gaussian_cdf_iv(z)
    assert cdf.width < 1e-14


def test_pdf_at_zero_is_one_constant():
    # pdf(0) is INV_SQRT_2PI in both number systems: the float is the density
    # at 0 bit for bit, and the enclosure is narrower than pdf's own at 0.
    assert gaussian_pdf(0.0) == FLOATS.INV_SQRT_2PI
    iv = INTERVALS.INV_SQRT_2PI
    assert _contains(iv, 1 / mpmath.sqrt(2 * mpmath.pi))
    assert iv.width < gaussian_pdf_iv(Interval.exact(0.0)).width
