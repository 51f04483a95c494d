"""Command-line surface: verification suites, reports, sweeps, profile I/O.

Exit codes: 0 when every check passes, 1 when a check fails (the failing
check is named on stderr), 2 for usage/config errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import baseline, chain, explorer, pairing, profiles
from .certify import all_certified_checks
from .claims import BOUNDS, LAM_LIT, PAIRING, TARGETS
from .errors import DomainError, GrolabError
from .gauss import gauss_integrate_with_error
from .reporting import (
    Check,
    VerificationOutcome,
    approx_check,
    bound_check,
    emit_report,
    flag_check,
    outcome_to_dict,
    to_json,
)

# grolab needs nothing from scipy, but the benchmark's child process
# (bench/child.py) reads sys.modules["scipy"].__version__ right after
# `import grolab.cli`.  This bare import loads no submodule (12.5-33 ms after
# numpy, measured in fresh processes on a 2-vCPU VM); it goes once the
# benchmark stops reading that version.  It comes after grolab's own modules:
# imported before them it raised the peak RSS of `import grolab.cli` by
# about 0.6 MB (33.2 -> 33.8 MB, same VM).
import scipy  # noqa: F401

COMMANDS = ("constants", "baseline", "profile", "pairing", "chain", "explore",
            "verify-all", "sweep")


DEFAULT_SEED = 20260809


class UsageError(GrolabError, ValueError):
    """Bad command, flag, or config value; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """One run; None for beta, epsilon or grid selects the suite's default."""

    command: str
    output_path: str | None = None
    certified: bool = False
    seed: int = DEFAULT_SEED
    beta: float | None = None
    epsilon: float | None = None
    grid: int | None = None
    profile_path: str | None = None
    save_profile: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        # The ranges are the domains of Philox keys, chain.final_chain,
        # chain.kappa_eff and profiles.lp_maximize.
        if not 0 <= self.seed < 2 ** 128:
            raise UsageError(f"seed must lie in [0, 2^128), got {self.seed}")
        if self.beta is not None and not 0.0 < self.beta < 1e-10:
            raise UsageError(f"beta must lie in (0, 1e-10), got {self.beta}")
        if self.epsilon is not None and not 0.0 < self.epsilon < 0.01:
            raise UsageError(
                f"epsilon must lie in (0, 0.01), got {self.epsilon}")
        if self.grid is not None and self.grid < 64:
            raise UsageError(f"grid must be >= 64, got {self.grid}")


# -- suites -------------------------------------------------------------------

def _target_check(name: str, actual: float) -> Check:
    target, tol = TARGETS[name]
    return approx_check(name, target, actual, tol)


def _baseline_constants() -> list[Check]:
    eta = baseline.solve_eta_star(LAM_LIT)
    return [
        _target_check("davie_reeds_bound", baseline.davie_reeds_bound(LAM_LIT)),
        _target_check("lambda_star", baseline.optimize_lambda()),
        _target_check("eta_star", eta),
        _target_check("alpha_star", LAM_LIT / eta),
    ]


def _pairing_constants() -> list[Check]:
    cons = pairing.PairingConstants.at_eta(baseline.solve_eta_star(LAM_LIT))
    checks = [_target_check(name, getattr(cons, name)) for name in PAIRING]
    checks.append(bound_check("K0_upper", BOUNDS["K0_upper"], cons.K0_upper,
                              "<="))
    return checks


def _baseline_checks(cfg: RunConfig) -> list[Check]:
    lam_opt = baseline.optimize_lambda()
    checks = _baseline_constants()
    alpha_lit, _ = TARGETS["alpha_star"]
    fp, _ = baseline.F_derivatives(alpha_lit, LAM_LIT)
    checks.append(approx_check("F_prime_at_alpha_star", 0.0, fp, 1e-9))
    den = baseline.reeds_denominator(LAM_LIT)
    params = baseline.ReedsParams.at_reeds_point(LAM_LIT)
    checks.append(approx_check("F_equals_denominator", den,
                               baseline.F_value(params.alpha, LAM_LIT), 1e-12))
    # quadratic-drop scan of F over the full alpha grid
    alpha_star = lam_opt / baseline.solve_eta_star(lam_opt)
    f_star = baseline.F_value(alpha_star, lam_opt)
    ok = True
    for a in np.arange(0.05, 0.99, 1e-3):
        gap = f_star - 0.9 * min((a - alpha_star) ** 2, 1e-2) + 1e-9
        if baseline.F_value(float(a), lam_opt) > gap:
            ok = False
            break
    checks.append(flag_check("taylor_gap_scan", ok))
    return checks


def _closed_form_vs_quadrature(params: baseline.ReedsParams,
                               member: profiles.Profile) -> Check:
    """The closed forms against the adaptive quadrature oracle.

    D(-alpha) and V(member) are integrated by quadrature at the QuadratureSpec
    defaults (over [-12, 12]).  Reports the larger excess of
    |closed - quadrature| over the quadrature's returned error bound; passes
    when it is <= 1e-14.
    """
    eta, mu = params.eta, -params.alpha

    def dual_integrand(z):
        a, b = profiles.A_B_eval(z, params)
        return a + np.abs(b - mu * z)

    def primal_integrand(z):
        a, b = profiles.A_B_eval(z, params)
        return a + member.evaluate(z) * b

    dual_quad, dual_err = gauss_integrate_with_error(
        dual_integrand, kinks=(-eta, 0.0, eta))
    primal_quad, primal_err = gauss_integrate_with_error(
        primal_integrand,
        kinks=(*member.breakpoints, -member.z_cut, member.z_cut, -eta, eta))
    excess = max(
        abs(profiles.dual_value(mu, params) - (dual_quad + mu * params.alpha))
        - dual_err,
        abs(profiles.V_value(member, params) - primal_quad) - primal_err)
    return bound_check("closed_form_vs_quadrature", 1e-14, excess, "<=")


def _profile_checks(cfg: RunConfig) -> list[Check]:
    params = baseline.ReedsParams.at_reeds_point(LAM_LIT)
    f_dual = profiles.F_value_dual(params)
    target = (1.0 - LAM_LIT) / baseline.davie_reeds_bound(LAM_LIT)
    checks = [approx_check("F_dual_vs_ratio", target, f_dual, 1e-10)]
    grid = 1024 if cfg.grid is None else cfg.grid
    lp_prof, lp_val = profiles.lp_maximize(params, grid)
    checks.append(approx_check("lp_vs_dual", f_dual, lp_val, 1e-8))
    if cfg.save_profile:
        try:
            with open(cfg.save_profile, "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(profiles.profile_to_text(lp_prof) + "\n")
        except OSError as exc:
            raise UsageError(
                f"cannot write profile {cfg.save_profile}: {exc}") from exc
    if cfg.profile_path:
        try:
            with open(cfg.profile_path, encoding="utf-8") as fh:
                loaded = profiles.profile_from_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(
                f"cannot read profile {cfg.profile_path}: {exc}") from exc
        except DomainError as exc:
            raise UsageError(
                f"invalid profile {cfg.profile_path}: {exc}") from exc
        cert = profiles.gap_certificate(
            loaded, baseline.ReedsParams(lam=LAM_LIT,
                                         alpha=profiles.moment(loaded)))
        checks.append(approx_check("loaded_profile_gap_identity",
                                   cert.tail_integral, cert.gap, 1e-10))
    worst = 0.0
    for k in range(12):
        prof = explorer.sample_feasible_profile(cfg.seed + k, params)
        cert = profiles.gap_certificate(prof, params)
        worst = max(worst, abs(cert.gap - cert.tail_integral))
    checks.append(bound_check("gap_identity_max_dev", 1e-10, worst, "<="))
    member = explorer.sample_theta_member(cfg.seed, lam=LAM_LIT)
    cert = profiles.gap_certificate(member, params)
    checks.append(approx_check("maximizer_gap_zero", 0.0, cert.gap, 1e-12))
    checks.append(_closed_form_vs_quadrature(params, member))
    return checks


def _pairing_checks(cfg: RunConfig) -> list[Check]:
    checks = _pairing_constants()
    eta = baseline.solve_eta_star(LAM_LIT)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    a = rng.uniform(-10, 10, 100_000)
    b = rng.uniform(-10, 10, 100_000)
    bet = rng.uniform(0, 1, 100_000)
    lhs, rhs = pairing.signflip_check(a, b, bet)
    checks.append(flag_check("signflip_inequality_100k",
                             bool(np.all(lhs <= rhs + 1e-12))))
    ok = True
    for k in range(20):
        member = explorer.sample_theta_member(cfg.seed + 1000 + k, lam=LAM_LIT)
        a_val, bound = pairing.A_bound_check(member, eta)
        if a_val > bound + 1e-10:
            ok = False
    checks.append(flag_check("A_bound_20_members", ok))
    # at the solved eta, 2 eta pdf(eta) equals lambda, so t2 = p - lambda
    p, _, t2 = pairing.inner_constants(eta)
    checks.append(approx_check("t2_identity", p - LAM_LIT, t2, 1e-9))
    return checks


def _chain_checks(cfg: RunConfig) -> list[Check]:
    epsilon = chain.EPSILON_STAR if cfg.epsilon is None else cfg.epsilon
    keff = chain.kappa_eff(epsilon)
    checks = [bound_check(f"kappa_eff(eps={epsilon:g})", BOUNDS["kappa_eff"],
                          keff, ">=")]
    for beta in (1e-10, chain.BETA_STAR):
        drop = chain.neighborhood_drop(beta)
        checks.append(bound_check(
            f"neighborhood_drop_{beta:g}",
            BOUNDS["neighborhood_drop_per_beta"] * beta, drop, ">="))
    beta = chain.BETA_STAR if cfg.beta is None else cfg.beta
    report = chain.final_chain(beta)
    if beta == chain.BETA_STAR:
        checks.append(_target_check("final_drop", report.final_drop))
    checks.append(bound_check("kg_increment", BOUNDS["kg_increment"],
                              report.kg_increment, ">="))
    checks.append(bound_check("K_strip", BOUNDS["K_strip"],
                              chain.K_strip(chain.STRIP_Z0, chain.ALPHA_MIN),
                              "<="))
    checks.append(bound_check("L0_bound", BOUNDS["L0_bound"],
                              chain.L0_bound(chain.ALPHA_MIN), "<="))
    checks.append(bound_check("C_z0", BOUNDS["C_z0"],
                              chain.C_z0(chain.STRIP_Z0), "<="))
    env_ok = all(chain.log_tail_envelope_margin(float(a)) >= 0.0
                 for a in np.linspace(2.3, 40.0, 500))
    checks.append(flag_check("gaussian_tail_envelope", env_ok))
    for name, value, bound, ok in chain.strip_case_checks():
        checks.append(Check(name=f"strip:{name}", expected=bound, actual=value,
                            tolerance=None, passed=ok))
    return checks


def _explore_checks(cfg: RunConfig) -> list[Check]:
    params = baseline.ReedsParams.at_reeds_point(LAM_LIT)
    betas = [1e-3 / 2 ** k for k in range(4)]
    checks = []
    for k in range(2):
        member = explorer.sample_theta_member(cfg.seed + 2000 + k, lam=LAM_LIT)
        rows = explorer.beta_derivative_scan(member, params, betas)
        limit = explorer.richardson_limit(rows)
        m = profiles.theta_moments(member, member.z_cut)
        a_val = float(m[3] - 3.0 * m[1])   # int theta H3 pdf over the window
        b_val, _, kq = pairing.kappa_Q(params.eta)
        expected = (b_val * b_val - a_val * a_val) / 6.0
        checks.append(approx_check(f"scan_limit_{k}", expected, limit, 1e-6))
        checks.append(bound_check(f"scan_limit_vs_kappa_Q_{k}", kq - 1e-9,
                                  limit, ">="))
    ok = True
    for k in range(5):
        start = explorer.sample_feasible_profile(cfg.seed + 3000 + k, params)
        _, values = explorer.sign_ascent(start, params, 6)
        if any(v2 < v1 - 1e-10 for v1, v2 in zip(values, values[1:])):
            ok = False
    checks.append(flag_check("sign_ascent_monotone", ok))
    member = explorer.sample_theta_member(cfg.seed + 4000, lam=LAM_LIT)
    est, se = explorer.mc_norm_estimate(member, params, 0.0,
                                        samples=100_000, seed=cfg.seed)
    truth = explorer.r_lambda_norm_1d(member, params)
    checks.append(bound_check("mc_within_4_sigma", 4.0 * se, abs(est - truth),
                              "<="))
    return checks


_SUITES = {
    "constants": lambda cfg: _baseline_constants() + _pairing_constants(),
    "baseline": _baseline_checks,
    "profile": _profile_checks,
    "pairing": _pairing_checks,
    "chain": _chain_checks,
    "explore": _explore_checks,
}


def run(config: RunConfig) -> VerificationOutcome:
    """Execute the configured suite; deterministic for a fixed config."""
    if config.command == "verify-all":
        checks: list[Check] = []
        for name in ("baseline", "profile", "pairing", "chain", "explore"):
            checks.extend(_SUITES[name](config))
    else:
        checks = _SUITES[config.command](config)
    if config.certified:
        for cc in all_certified_checks():
            checks.append(Check(
                name=f"certified:{cc.name} ({cc.requirement})",
                expected=None, actual=cc.actual, tolerance=None,
                passed=cc.passed))
    return VerificationOutcome(checks=tuple(checks))


def _sweep_rows(parameter: str, lo: float, hi: float, steps: int) -> list[str]:
    lines: list[str] = []
    if parameter == "lambda":
        lines.append("lambda,eta,alpha,denominator,bound")
        for lam in np.linspace(lo, hi, steps):
            eta = baseline.solve_eta_star(float(lam))
            den = baseline.reeds_denominator(float(lam))
            lines.append(f"{lam:.17g},{eta:.17g},{lam / eta:.17g},"
                         f"{den:.17g},{(1 - lam) / den:.17g}")
    elif parameter == "epsilon":
        lines.append("epsilon,kappa_eff")
        for eps in np.geomspace(lo, hi, steps):
            val = chain.kappa_eff(float(eps))
            lines.append(f"{eps:.17g},{val:.17g}")
    elif parameter == "beta":
        lines.append("beta,drop_per_beta,final_drop,kg_increment")
        for beta in np.geomspace(lo, hi, steps):
            beta = float(beta)
            drop = chain.neighborhood_drop(beta)
            if beta < 1e-10:
                rep = chain.final_chain(beta)
                fin, inc = f"{rep.final_drop:.17g}", f"{rep.kg_increment:.17g}"
            else:
                fin, inc = "", ""
            lines.append(f"{beta:.17g},{drop / beta:.17g},{fin},{inc}")
    else:
        lines.append("grid,lp_value,abs_error_vs_dual")
        params = baseline.ReedsParams.at_reeds_point(LAM_LIT)
        f_dual = profiles.F_value_dual(params)
        sizes = sorted({int(round(g)) for g in np.geomspace(lo, hi, steps)})
        for size in sizes:
            _, val = profiles.lp_maximize(params, size)
            lines.append(f"{size},{val:.17g},{abs(val - f_dual):.17g}")
    return lines


def sweep(parameter: str, rng: tuple[float, float, int]) -> str:
    """CSV sweep of one parameter over (lo, hi, steps).

    lambda is swept linearly, epsilon, beta and grid geometrically.  A range
    that leaves the parameter's domain is a usage error.
    """
    lo, hi, steps = rng
    if parameter not in ("lambda", "epsilon", "beta", "grid"):
        raise UsageError(f"unknown sweep parameter {parameter!r}")
    if steps < 2:
        raise UsageError(f"steps must be >= 2, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError(f"need finite lo < hi, got ({lo}, {hi})")
    if parameter != "lambda" and not lo > 0.0:
        raise UsageError(f"a geometric {parameter} sweep needs lo > 0, got {lo}")
    try:
        lines = _sweep_rows(parameter, lo, hi, steps)
    except DomainError as exc:
        raise UsageError(
            f"{parameter} range ({lo}, {hi}) leaves the domain: {exc}") from exc
    return "\n".join(lines) + "\n"


# -- config file and argument handling ----------------------------------------

# The keys each command reads besides --config and --out: only those its
# suites read.  Each is a flag (profile and save_profile excepted, which are
# config-file keys only) and a config-file key; any other is a usage error.
_KEYS = {
    "constants": ("certified",),
    "baseline": ("certified",),
    "profile": ("certified", "seed", "grid", "profile", "save_profile"),
    "pairing": ("certified", "seed"),
    "chain": ("certified", "beta", "epsilon"),
    "explore": ("certified", "seed"),
    "verify-all": ("certified", "seed", "grid", "beta", "epsilon", "profile",
                   "save_profile"),
    "sweep": (),
}

_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(
            f"expected 1/true/yes or 0/false/no, got {text!r}") from None


def load_config_file(path: str, command: str) -> dict[str, str]:
    """The key = value pairs of a config file; a key the command does not
    read is a usage error."""
    keys = {"out", *_KEYS[command]}
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].split(";", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in keys:
                    raise UsageError(
                        f"{path}:{lineno}: unknown key {key!r} for {command}")
                out[key] = value
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    # A command's parser registers only the flags its suites read, so a flag
    # missing from args counts as not given.
    flags = vars(args)
    file_vals = (load_config_file(args.config, args.command) if args.config
                 else {})

    def pick(key: str, cast):
        """The flag if given, else the config file's value, else None."""
        if flags.get(key) is not None:
            return flags[key]
        if key in file_vals:
            try:
                return cast(file_vals[key])
            except ValueError as exc:
                raise UsageError(f"bad config value for {key}: {exc}") from exc
        return None

    seed = pick("seed", int)
    return RunConfig(
        command=args.command,
        output_path=pick("out", str),
        certified=bool(pick("certified", _parse_bool)),
        seed=DEFAULT_SEED if seed is None else seed,
        beta=pick("beta", float),
        epsilon=pick("epsilon", float),
        grid=pick("grid", int),
        profile_path=file_vals.get("profile"),
        save_profile=file_vals.get("save_profile"),
    )


# default=None on --certified lets a config file's value apply when the flag
# is absent.
_FLAG_ARGS = {
    "certified": dict(action="store_true", default=None,
                      help="append interval-certified checks"),
    "seed": dict(type=int, help="seed for randomized suites"),
    "grid": dict(type=int, help="discretization grid size"),
    "beta": dict(type=float, help="perturbation size override"),
    "epsilon": dict(type=float, help="neighborhood radius override"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grolab",
        description="Verify the constants and inequalities of the improved "
                    "Grothendieck lower bound.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="write the JSON report (or CSV) here")
        for key in _KEYS[name]:
            if key in _FLAG_ARGS:
                p.add_argument(f"--{key}", **_FLAG_ARGS[key])
    sw = sub.choices["sweep"]
    sw.add_argument("--parameter", required=True,
                    choices=("lambda", "epsilon", "beta", "grid"))
    sw.add_argument("--lo", type=float, required=True)
    sw.add_argument("--hi", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "sweep":
            csv_text = sweep(args.parameter, (args.lo, args.hi, args.steps))
            if cfg.output_path:
                with open(cfg.output_path, "w", encoding="utf-8",
                          newline="\n") as fh:
                    fh.write(csv_text)
            else:
                sys.stdout.write(csv_text)
            return 0
        outcome = run(cfg)
        if cfg.output_path:
            emit_report(outcome, cfg.output_path)
        else:
            sys.stdout.write(to_json(outcome_to_dict(outcome)) + "\n")
    except (UsageError, OSError) as exc:   # OSError: --out is unwritable
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GrolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for check in outcome.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}", file=sys.stderr)
    if not outcome.overall:
        failing = [c.name for c in outcome.checks if not c.passed]
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
