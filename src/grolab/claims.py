"""The paper's numeric claims, each stated once.

Data only: the CLI suites check these targets in floating point and the
certify module checks them by interval, both reading them from here.  Where
a value is already a named constant elsewhere, the entry refers to it.
"""

from __future__ import annotations

from .baseline import DAVIE_REEDS_C, LAMBDA_STAR
from .chain import K0, L0, NEAR_DROP_COEFF

# The rounded lambda at which the stated Reeds point and constants hold.
LAM_LIT = 0.197479091

# Equality claims: name -> (target, tolerance).
TARGETS: dict[str, tuple[float, float]] = {
    "davie_reeds_bound": (DAVIE_REEDS_C, 1e-12),
    "lambda_star": (LAMBDA_STAR, 1e-8),
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
}

# The PairingConstants fields among TARGETS, in report order.
PAIRING = ("B", "A_max", "kappa_Q", "p", "s1", "t2", "transverse",
           "pairing_lower")

# One-sided claims: name -> bound.  The direction is stated where each is
# checked.  kg_increment_exceeds is the paper's headline K_G >= c + 1e-26.
BOUNDS: dict[str, float] = {
    "K0_upper": K0,
    "kappa_eff": 0.0058,
    "neighborhood_drop_per_beta": NEAR_DROP_COEFF,
    "kg_increment": 1.596e-26,
    "kg_increment_exceeds": 1e-26,
    "K_strip": 7.0,
    "L0_bound": L0,
    "C_z0": 1.7,
}
