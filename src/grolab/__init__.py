"""grolab: rigorous numerics for the improved Grothendieck lower bound.

Modules:
    gauss     -- Gaussian density/CDF, Hermite polynomials, exact cell
                 moments, and the panel quadrature kept as an oracle
    baseline  -- Davie-Reeds bound: eta/lambda solvers, F(alpha), optimizer
    profiles  -- 1-D profiles, primal/dual values, gap certificates, LP fill
    pairing   -- third-chaos pairing constants and inequalities
    chain     -- stability constants and the final inequality chain
    intervals -- outward-rounded interval kernel; arith() picks float or
                 interval operations for the shared formulas
    certify   -- interval-certified checks: the shared formulas on intervals
    claims    -- the paper's numeric targets, each stated once
    explorer  -- norm scans, sign ascent, Monte Carlo cross-checks
    cli       -- the `grolab` command
"""

from .baseline import (
    DAVIE_REEDS_C,
    LAMBDA_STAR,
    ReedsParams,
    davie_reeds_bound,
    optimize_lambda,
    reeds_denominator,
    solve_eta_star,
    solve_h,
)
from .chain import ChainReport, final_chain, kappa_eff, kg_lower_bound
from .errors import (
    AccuracyError,
    DomainError,
    FeasibilityError,
    GrolabError,
    InternalCheckError,
)
from .gauss import (
    QuadratureSpec,
    gauss_integrate,
    gaussian_cdf,
    gaussian_moments,
    gaussian_pdf,
    h3_tail_integral,
    hermite_eval,
    tail_first_moment,
)
from .pairing import PairingConstants
from .profiles import (
    GapCertificate,
    Profile,
    F_value_dual,
    V_value,
    gap_certificate,
    lp_maximize,
    moment,
    profile_from_text,
    profile_to_text,
)

__version__ = "0.1.0"
