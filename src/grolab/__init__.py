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

__version__ = "0.1.0"
