import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import grolab

from grolab.certify import all_certified_checks
from grolab.cli import (
    DEFAULT_SEED,
    RunConfig,
    UsageError,
    build_config,
    main,
    run,
    sweep,
)
from grolab.profiles import profile_from_text
from grolab.reporting import (
    Check,
    VerificationOutcome,
    bound_check,
    emit_report,
    outcome_to_dict,
    to_json,
)


def test_run_each_command():
    for command in ("constants", "baseline", "pairing", "chain"):
        outcome = run(RunConfig(command=command))
        assert outcome.overall, [c.name for c in outcome.checks if not c.passed]


def test_run_profile_and_explore():
    for command in ("profile", "explore"):
        outcome = run(RunConfig(command=command))
        assert outcome.overall, [c.name for c in outcome.checks if not c.passed]


def test_unknown_command_rejected():
    with pytest.raises(UsageError):
        RunConfig(command="bogus")


def test_certified_checks_all_pass():
    checks = all_certified_checks()
    assert len(checks) >= 18
    for c in checks:
        assert c.passed, f"{c.name}: [{c.lo}, {c.hi}] vs {c.requirement}"
        assert c.lo <= c.hi


def test_certified_lines_show_the_proving_end():
    # A lower bound is proved by lo, an upper bound by hi, a window by the
    # end nearer its edge; the report carries that end as actual.
    certified = {f"certified:{c.name} ({c.requirement})": c
                 for c in all_certified_checks()}
    reported = [c for c in run(RunConfig(command="constants",
                                         certified=True)).checks
                if c.name.startswith("certified:")]
    assert len(reported) == len(certified)
    for line in reported:
        cc = certified[line.name]
        window = re.fullmatch(r"within (\S+) \+- (\S+)", cc.requirement)
        if window:
            target, tol = map(float, window.groups())
            lo_margin = cc.lo - (target - tol)
            hi_margin = (target + tol) - cc.hi
            expected = cc.lo if lo_margin < hi_margin else cc.hi
        else:
            relation = re.search(r"(?:^| )([<>]=?) ", cc.requirement).group(1)
            expected = cc.lo if relation.startswith(">") else cc.hi
        assert line.actual == cc.actual == expected, line.name


def test_bound_check_rejects_unknown_direction():
    assert bound_check("x", 1.0, 2.0, ">=").passed
    assert bound_check("x", 1.0, 0.5, "<=").passed
    for direction in (">", "<", "==", "=>", ""):
        with pytest.raises(ValueError, match="unknown direction"):
            bound_check("x", 1.0, 2.0, direction)


def test_emit_report_deterministic(tmp_path):
    outcome = VerificationOutcome(checks=(
        Check("a", 1.0, 1.0 + 1e-13, 1e-12, True),
        Check("b", None, None, None, True),
    ))
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    emit_report(outcome, str(p1))
    emit_report(outcome, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    parsed = json.loads(p1.read_text())
    assert parsed["overall"] is True
    assert parsed["checks"][0]["actual"] == 1.0 + 1e-13  # exact round-trip
    assert parsed == outcome_to_dict(outcome)


def test_emit_report_empty_and_failing(tmp_path):
    empty = VerificationOutcome(checks=())
    path = tmp_path / "empty.json"
    emit_report(empty, str(path))
    assert json.loads(path.read_text()) == {"checks": [], "overall": True}
    failing = VerificationOutcome(checks=(
        Check("bad", 1.0, 2.0, 1e-12, False),))
    assert not failing.overall


def test_emit_report_bad_path():
    outcome = VerificationOutcome(checks=())
    with pytest.raises(OSError):
        emit_report(outcome, "/nonexistent-dir-xyz/report.json")


def test_to_json_float_precision():
    text = to_json({"x": 0.1, "y": [1e-300, 2.5]})
    parsed = json.loads(text)
    assert parsed["x"] == 0.1
    assert parsed["y"][0] == 1e-300


def test_main_exit_codes(tmp_path):
    assert main(["constants"]) == 0
    # a beta large enough that the chain certifies no drop -> check fails
    assert main(["chain", "--beta", "4e-24"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    out = tmp_path / "report.json"
    assert main(["constants", "--out", str(out)]) == 0
    parsed = json.loads(out.read_text())
    assert parsed["overall"] is True


def test_main_byte_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["pairing", "--seed", "5", "--out", str(p1)]) == 0
    assert main(["pairing", "--seed", "5", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_lambda_peak():
    csv_text = sweep("lambda", (0.15, 0.25, 101))
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("lambda,")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    best = max(rows, key=lambda r: r[-1])
    assert abs(best[0] - 0.1975) <= 1e-3
    assert csv_text.endswith("\n") and "\r" not in csv_text


def test_sweep_epsilon_crossing():
    csv_text = sweep("epsilon", (1e-9, 1e-5, 50))
    rows = [ln.split(",") for ln in csv_text.strip().splitlines()[1:]]
    vals = [(float(e), float(k)) for e, k in rows]
    assert vals[0][1] > 0.0
    # kappa_eff stays positive through 1e-7 and goes negative before 1e-4
    csv_wide = sweep("epsilon", (1e-7, 1e-4, 40))
    wide = [ln.split(",") for ln in csv_wide.strip().splitlines()[1:]]
    wvals = [float(k) for _, k in wide]
    assert wvals[0] > 0.0
    assert min(wvals) < 0.0


def test_sweep_validation():
    with pytest.raises(UsageError):
        sweep("lambda", (0.2, 0.1, 5))
    with pytest.raises(UsageError):
        sweep("lambda", (0.1, 0.2, 1))
    with pytest.raises(UsageError):
        sweep("nonsense", (0.1, 0.2, 5))


def test_sweep_cli_entry(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--parameter", "grid", "--lo", "64", "--hi", "256",
                 "--steps", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "grid,lp_value,abs_error_vs_dual"
    assert len(lines) == 4
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--parameter", "lambda", "--lo", "0.1", "--hi", "0.2"])
    assert exc.value.code == 2  # missing --steps
    # sweep reads no --grid: argparse rejects it
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--parameter", "grid", "--lo", "64", "--hi", "256",
              "--steps", "3", "--grid", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("parameter,lo,hi", [
    ("lambda", "0.1", "0.5"),      # no eta root past lambda = 0.4839
    ("epsilon", "1e-9", "0.5"),    # kappa_eff needs epsilon < 0.01
    ("epsilon", "-1", "1e-3"),     # geometric sweep from a negative lo
    ("grid", "10", "100"),         # lp_maximize needs grid >= 64
    ("beta", "1e-30", "2"),        # neighborhood_drop needs beta < 1
], ids=["lambda", "epsilon", "epsilon_negative_lo", "grid", "beta"])
def test_out_of_domain_sweep_exits_2(parameter, lo, hi, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--parameter", parameter, "--lo", lo,
                     "--hi", hi, "--steps", "5"]) == 2
    assert "usage error" in capsys.readouterr().err


_SWEEP = ["sweep", "--parameter", "lambda", "--lo", "0.15", "--hi", "0.25",
          "--steps", "3"]


@pytest.mark.parametrize("argv", [
    [*_SWEEP, "--certified"],
    [*_SWEEP, "--seed", "5"],
    [*_SWEEP, "--beta", "1e-12"],
    ["constants", "--grid", "100"],
    ["constants", "--seed", "5"],
    ["baseline", "--epsilon", "1e-8"],
    ["profile", "--beta", "1e-12"],
    ["pairing", "--grid", "100"],
    ["chain", "--seed", "5"],
    ["explore", "--grid", "100"],
], ids=lambda argv: argv[0] + "_" + next(a for a in reversed(argv)
                                         if a.startswith("--"))[2:])
def test_unread_flag_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# The config-file keys each command's suites read, besides out.
_READS = {
    "constants": {"certified"},
    "baseline": {"certified"},
    "profile": {"certified", "seed", "grid", "profile", "save_profile"},
    "pairing": {"certified", "seed"},
    "chain": {"certified", "beta", "epsilon"},
    "explore": {"certified", "seed"},
    "verify-all": {"certified", "seed", "grid", "beta", "epsilon", "profile",
                   "save_profile"},
    "sweep": set(),
}
_KEY_VALUES = {"seed": "5", "certified": "1", "beta": "1e-12",
               "epsilon": "1e-8", "grid": "100", "profile": "{tmp}/p.txt",
               "save_profile": "{tmp}/s.txt"}


@pytest.mark.parametrize("command,key", [
    pytest.param(command, key, id=f"{command}-{key}")
    for command, reads in _READS.items()
    for key in sorted(_KEY_VALUES.keys() - reads)
])
def test_unread_config_key_exits_2(tmp_path, command, key, capsys):
    cfg = tmp_path / "run.cfg"
    value = _KEY_VALUES[key].format(tmp=tmp_path)
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    argv = _SWEEP if command == "sweep" else [command]
    assert main([*argv, "--config", str(cfg)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_config_file_and_profile_io(tmp_path):
    saved = tmp_path / "maximizer.txt"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        f"save_profile = {saved}\nseed = 3\n# comment line\n", encoding="utf-8")
    assert main(["profile", "--config", str(cfg_file)]) == 0
    prof = profile_from_text(saved.read_text())
    assert prof.tail_rule == "sign"
    # reload it through the profile command
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text(f"profile = {saved}\n", encoding="utf-8")
    assert main(["profile", "--config", str(cfg2)]) == 0


@pytest.mark.parametrize("argv", [
    ["constants", "--out", "{missing}/r.json"],
    ["sweep", "--parameter", "lambda", "--lo", "0.15", "--hi", "0.25",
     "--steps", "3", "--out", "{missing}/s.csv"],
    ["profile", "--config", "{cfg}"],   # save_profile = {missing}/x.txt
], ids=["constants_out", "sweep_out", "save_profile"])
def test_unwritable_output_exits_2(tmp_path, argv, capsys):
    missing = tmp_path / "no-such-dir"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"save_profile = {missing}/x.txt\n", encoding="utf-8")
    argv = [a.format(missing=missing, cfg=cfg) for a in argv]
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize("text", [
    None,                               # missing file
    "1.0,abc,0.5,0.5,sign",             # non-numeric token
    "1.0,0.0,1.5,0.5,sign",             # value outside [-1, 1]
    "1.0,0.0,nan,0.5,sign",             # NaN value
])
def test_bad_profile_file_exits_2(tmp_path, text, capsys):
    saved = tmp_path / "profile.txt"
    if text is not None:
        saved.write_text(text + "\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"profile = {saved}\n", encoding="utf-8")
    assert main(["profile", "--config", str(cfg)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n", encoding="utf-8")
    assert main(["constants", "--config", str(bad)]) == 2
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just some text\n", encoding="utf-8")
    assert main(["constants", "--config", str(malformed)]) == 2
    assert main(["constants", "--config", str(tmp_path / "missing.cfg")]) == 2


def _args(**flags):
    base = dict(command="profile", config=None, out=None, certified=False,
                seed=None, beta=None, epsilon=None, grid=None)
    return argparse.Namespace(**{**base, **flags})


def test_seed_zero_is_kept():
    assert build_config(_args(seed=0)).seed == 0
    assert build_config(_args()).seed == DEFAULT_SEED
    assert main(["pairing", "--seed", "0"]) == 0
    assert main(["pairing", "--seed", "-1"]) == 2


def test_beta_out_of_range_exits_2():
    assert main(["chain", "--beta", "0"]) == 2
    assert main(["chain", "--beta", "1e-3"]) == 2
    assert build_config(_args(beta=8e-25)).beta == 8e-25


def test_epsilon_out_of_range_exits_2():
    assert main(["chain", "--epsilon", "0"]) == 2
    assert main(["chain", "--epsilon", "0.5"]) == 2
    assert build_config(_args(epsilon=1e-7)).epsilon == 1e-7


def test_grid_out_of_range_exits_2():
    assert main(["profile", "--grid", "0"]) == 2
    assert main(["profile", "--grid", "63"]) == 2
    assert build_config(_args(grid=64)).grid == 64


def test_quadrature_keys_are_unknown(tmp_path, capsys):
    # the cross-check's oracle runs at the QuadratureSpec defaults
    for key in ("truncation", "rel_tol", "abs_tol", "max_subdivisions"):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        assert main(["profile", "--config", str(cfg)]) == 2, key
        assert f"unknown key {key!r}" in capsys.readouterr().err


def test_cross_check_at_quadrature_defaults():
    outcome = run(RunConfig(command="profile"))
    cross = [c for c in outcome.checks
             if c.name.startswith("closed_form_vs_quadrature")]
    assert len(cross) == 1 and cross[0].passed
    assert cross[0].actual <= 1e-14


@pytest.mark.parametrize("value,certified", [
    ("1", True), ("true", True), ("YES", True), ("True", True),
    ("0", False), ("false", False), ("No", False),
])
def test_certified_config_value(tmp_path, value, certified):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"certified = {value}\n", encoding="utf-8")
    args = _args(command="constants", config=str(cfg), certified=None)
    assert build_config(args).certified is certified


@pytest.mark.parametrize("value", ["ture", "", "2", "on", "y"])
def test_misspelt_certified_exits_2(tmp_path, value, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"certified = {value}\n", encoding="utf-8")
    assert main(["constants", "--config", str(cfg)]) == 2
    assert "bad config value for certified" in capsys.readouterr().err


def test_cli_import_skips_scipy_stats():
    env = {**os.environ,
           "PYTHONPATH": str(Path(grolab.__file__).resolve().parents[1])}
    code = ("import sys, grolab.cli; print(sorted("
            "{'scipy.stats', 'scipy.special'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_certified_verify_all_without_scipy_special_or_numpy_ma(tmp_path):
    # None in sys.modules makes any import of scipy.special or numpy.ma raise.
    env = {**os.environ,
           "PYTHONPATH": str(Path(grolab.__file__).resolve().parents[1])}
    out = tmp_path / "va.json"
    code = ("import sys; sys.modules['scipy.special'] = None; "
            "sys.modules['numpy.ma'] = None; "
            "import grolab.cli; sys.exit(grolab.cli.main("
            "['verify-all', '--certified', '--out', sys.argv[1]]))")
    proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["overall"] is True
