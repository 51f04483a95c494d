"""The library computes every integral in closed form: no quadrature."""

import sys

import pytest

import grolab.cli  # noqa: F401  (imports every grolab module)
from grolab import gauss
from grolab.explorer import (
    beta_derivative_scan,
    sample_feasible_profile,
    sample_theta_member,
)
from grolab.pairing import A_bound_check
from grolab.profiles import dual_value, gap_certificate, lp_maximize


def _refuse(*args, **kwargs):
    raise AssertionError("adaptive quadrature called on the library path")


@pytest.fixture()
def no_quadrature(monkeypatch):
    """Make gauss_integrate_with_error raise in gauss and in every grolab
    module that bound its own copy."""
    original = gauss.gauss_integrate_with_error
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "grolab" or name.startswith("grolab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, _refuse)
                patched.append(f"{name}.{attr}")
    assert "grolab.gauss.gauss_integrate_with_error" in patched
    return patched


def test_library_path_is_quadrature_free(no_quadrature, params):
    with pytest.raises(AssertionError):
        gauss.gauss_integrate_with_error(lambda z: z)
    prof = sample_feasible_profile(31, params)
    cert = gap_certificate(prof, params)
    assert abs(cert.gap - cert.tail_integral) <= 1e-10
    assert cert.primal_V <= dual_value(0.3, params) + 1e-10
    member = sample_theta_member(32)
    a_val, bound = A_bound_check(member, params.eta)
    assert a_val <= bound + 1e-10
    rows = beta_derivative_scan(member, params, [1e-3, 5e-4])
    assert len(rows) == 2
    _, value = lp_maximize(params, 1024)
    assert value == pytest.approx(dual_value(-params.alpha, params), abs=1e-8)
