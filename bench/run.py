"""grolab benchmark: closed-loop workloads, checked ops, per-module trace.

Usage (from the repository root):

  python3 bench/run.py --workload {verify,bulk,lp} --seed N --seconds S --trace {0,1}
  python3 bench/run.py --smoke

One client sends one op at a time and waits for it (a closed loop); every op
runs in a child interpreter started by this script, one child at a time,
with the BLAS/OpenMP pools pinned to one thread.  Every op's output is
checked; an op fails if it raises or its check fails.  Op inputs come from
(seed, op index), so a seed replays the same sequence and no input repeats
within a run, which keeps result caches from inflating any number.
Reported times are scaled to a fixed machine speed, measured next to every
op, and a run lasts --seconds of scaled op time (see child.REF_NOMINAL_S);
the info line keeps the raw median op time and the scale factor.

Workloads (why each exists):
  verify  one op is a fresh `grolab verify-all --certified` with a saved and
          reloaded LP profile: what a command-line user waits for, cold
          imports and cold caches included.  The only workload reaching
          certify, intervals, chain, baseline, reporting and cli.
  bulk    property-suite traffic: gap certificates, weak duality, the inner
          H3 bound and beta scans on 12-cell profiles; dominated by gauss
          quadrature, never calls lp_maximize.
  lp      grid-sweep traffic: lp_maximize over 16384 cells plus the profile
          text round trip; the same closed-form cell primitives as bulk, but
          100x more cells per call and almost no quadrature.

End-to-end metrics: setup_s (spawn to first op ready, imports and one
warm-up op included, median of several spawns; for verify, spawn to
grolab.cli imported, median over ops), ops_per_s (ops over their summed
time, so the harness's own checks do not count), op_p50_s, op_tail_s (the
highest order statistic with ten samples above it; verify's ~11 ops per
run make it about the fastest op, not a tail) and peak_rss_mb.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced replay (see spans.py)
of the ops an untraced pass just ran, after asserting that both passes
produced bit-identical outputs.  The line before it records the Python,
numpy and scipy versions, nproc and the CPU model.

--smoke runs every workload for a few ops in both modes and asserts that
every metric named in BENCHMARK.json is emitted with its unit and that no
op failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import measured_enough, scaled_times, time_scale
from spans import P50_FUNCS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

# op_tail_s is the highest order statistic with at least ten samples above
# it, so a run measures at least eleven ops.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
# Set-up is measured in this many fresh interpreters per run (median).
SETUP_SPAWNS = 3
CHILD_TIMEOUT_S = 170.0

WORKLOADS = ("verify", "bulk", "lp")


class BenchError(Exception):
    """A child crashed or timed out; the run has no result."""


# -- children -------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S):
    """Run child.py to completion; returns (spawn time, end time, JSON lines)."""
    cmd = [sys.executable, str(CHILD), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child timed out after {timeout:.0f} s: {args[:3]}")
    ended = time.monotonic()
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-4000:])
        raise BenchError(f"child exited with {proc.returncode}: {args[:3]}")
    return spawned, ended, lines, err


def _worker(workload: str, seed: int, *extra: str):
    """One worker child: (set-up seconds, ready info, final result or None)."""
    spawned, _, lines, _ = _run_child(
        ["worker", "--workload", workload, "--seed", str(seed), *extra])
    ready = lines[0]
    result = lines[-1] if len(lines) > 1 else None
    return ready["ready"] - spawned, ready, result


class VerifyOps:
    """Runs `verify` ops: each one a fresh interpreter on grolab's CLI."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def cli_seed(self, i: int) -> int:
        # The verify suites read seeds cli_seed .. cli_seed + 4000 and a
        # seed of 0 is replaced by a default, so ops are 10^4 apart and
        # index -1 (the warm-up op) stays positive.
        return (self.seed + 1) * 10**9 + i * 10**4

    def run(self, i: int, trace_out: Path | None = None) -> dict:
        cfg = self.workdir / f"op{i}.cfg"
        prof = self.workdir / f"op{i}.profile"
        report = self.workdir / f"op{i}{'.traced' if trace_out else ''}.json"
        cfg.write_text(f"save_profile = {prof}\nprofile = {prof}\n",
                       encoding="utf-8")
        args = ["cli"]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        args += ["--", "verify-all", "--certified",
                 "--seed", str(self.cli_seed(i)),
                 "--config", str(cfg), "--out", str(report)]
        spawned, ended, lines, err = _run_child(args)
        imported, done = lines[0], lines[-1]
        bad = []
        if done.get("exit") != 0:
            bad.append(f"exit {done.get('exit')}: {err.strip()[-300:]}")
        digest = ""
        try:
            data = report.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            rep = json.loads(data)
            if rep.get("overall") is not True:
                bad.append("report overall is not true")
            loaded = [c for c in rep.get("checks", [])
                      if c.get("name") == "loaded_profile_gap_identity"]
            if not (loaded and loaded[0].get("passed") is True):
                bad.append("loaded_profile_gap_identity missing or failed")
        except (OSError, ValueError) as exc:
            bad.append(f"unreadable report: {exc}")
        return {"duration": ended - spawned,
                "setup": imported["imported"] - spawned,
                "ref_s": [imported["ref_s"], done["ref_s"]],
                "import_s": imported["import_s"], "info": imported,
                "peak_rss_mb": done.get("peak_rss_mb", 0.0),
                "failures": [f"op {i}: {m}" for m in bad], "digest": digest}

    def loop(self, seconds: float, min_ops: int, max_ops: int | None,
             count: int | None = None, trace: bool = False) -> list[dict]:
        """Closed loop of ops; `count` replays ops 0..count-1 exactly."""
        results: list[dict] = []
        start = time.monotonic()
        while True:
            i = len(results)
            if count is not None:
                if i >= count:
                    break
            elif ((max_ops is not None and i >= max_ops)
                  or measured_enough(i, sum(r["duration"] for r in results),
                                     [x for r in results for x in r["ref_s"]],
                                     time.monotonic() - start, seconds, min_ops)):
                break
            trace_out = self.workdir / f"op{i}.trace.json" if trace else None
            res = self.run(i, trace_out)
            if trace_out is not None:
                res["trace"] = json.loads(trace_out.read_text(encoding="utf-8"))
            results.append(res)
        return results


def _scaled(results: list[dict]) -> list[float]:
    """Scaled verify op times; an op's reference is the mean of its two."""
    return scaled_times([r["duration"] for r in results],
                        [sum(r["ref_s"]) / len(r["ref_s"]) for r in results])


# -- metrics --------------------------------------------------------------------

def _tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it; with fewer samples, the smallest."""
    s = sorted(durations)
    idx = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[idx], 100.0 * (idx + 1) / len(s)


def _end_to_end(setups: list[float], durations: list[float], scaled: list[float],
                peak_rss_mb: float) -> tuple[dict, dict]:
    """Metrics from scaled times; the info line keeps the raw median op
    time and the median scale factor."""
    if not durations:
        raise BenchError("no op completed without raising")
    tail, pct = _tail(scaled)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, {"ops": len(scaled), "tail_percentile": pct,
                     "setup_samples": len(setups),
                     "raw_op_p50_s": statistics.median(durations),
                     "time_scale": statistics.median(
                         s / d for s, d in zip(scaled, durations))}


def _merge_traces(snapshots: list[dict]) -> dict:
    merged = {"stats": {}, "durations": {}, "counts": {}}
    for snap in snapshots:
        for name, (calls, self_s) in snap["stats"].items():
            acc = merged["stats"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, durs in snap["durations"].items():
            merged["durations"].setdefault(name, []).extend(durs)
        for name, n in snap["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + n
    return merged


def per_layer_metrics(trace: dict, ops: int, import_s: float,
                      overhead: float) -> dict:
    """Per-op per-layer numbers from merged span aggregates; a span that was
    never recorded (or whose function no longer exists) reads 0."""
    stats, durations, counts = trace["stats"], trace["durations"], trace["counts"]

    def calls(name):
        return stats.get(name, [0, 0.0])[0] / ops

    def self_s(name):
        return stats.get(name, [0, 0.0])[1] / ops

    def layer(prefix, col):
        return sum(v[col] for k, v in stats.items()
                   if k.startswith(prefix + ".")) / ops

    def p50_us(name):
        durs = durations.get(name) or [0.0]
        return statistics.median(durs) * 1e6

    integrate_calls = calls("gauss.integrate")
    panels = counts.get("gauss.panels", 0) / ops
    m = {
        "gauss.integrate.calls": (integrate_calls, "1/op"),
        "gauss.integrate.self_s": (self_s("gauss.integrate"), "s/op"),
        "gauss.panels": (panels, "1/op"),
        "gauss.panels_per_integral": (
            panels / integrate_calls if integrate_calls else 0.0, "count"),
        "gauss.closed.calls": (calls("gauss.closed"), "1/op"),
        "gauss.closed.self_s": (self_s("gauss.closed"), "s/op"),
    }
    for lay in ("profiles", "explorer"):
        for fn in P50_FUNCS[lay]:
            m[f"{lay}.{fn}.calls"] = (calls(f"{lay}.{fn}"), "1/op")
            m[f"{lay}.{fn}.p50_us"] = (p50_us(f"{lay}.{fn}"), "us")
        m[f"{lay}.self_s"] = (layer(lay, 1), "s/op")
    m.update({
        "pairing.A_bound_check.calls": (calls("pairing.A_bound_check"), "1/op"),
        "pairing.A_bound_check.p50_us": (p50_us("pairing.A_bound_check"), "us"),
        "pairing.signflip_check.self_s": (self_s("pairing.signflip_check"), "s/op"),
        "pairing.self_s": (layer("pairing", 1), "s/op"),
        "chain.log_tail_envelope_margin.calls": (
            calls("chain.log_tail_envelope_margin"), "1/op"),
        "chain.self_s": (layer("chain", 1), "s/op"),
        "intervals.ops": (calls("intervals.op"), "1/op"),
        "intervals.self_s": (layer("intervals", 1), "s/op"),
        "certify.self_s": (layer("certify", 1), "s/op"),
        "certify.c_z0_upper_enclosure.p50_us": (
            p50_us("certify.c_z0_upper_enclosure"), "us"),
        "baseline.calls": (layer("baseline", 0), "1/op"),
        "baseline.self_s": (layer("baseline", 1), "s/op"),
        "reporting.self_s": (layer("reporting", 1), "s/op"),
        "cli.self_s": (layer("cli", 1), "s/op"),
        "setup.import_s": (import_s, "s"),
        "trace.overhead": (overhead, "ratio"),
    })
    return m


# -- one run --------------------------------------------------------------------

def _machine_info(child_info: dict) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": child_info.get("numpy"), "scipy": child_info.get("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _run_verify(seed: int, seconds: float, trace: bool, min_ops: int,
                max_ops: int | None) -> tuple[dict, int, list[str], dict]:
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        ops = VerifyOps(seed, workdir)
        # One untimed op first: fills the bytecode and file caches a
        # command-line user has warm; its inputs are never measured.
        ops.run(-1)
        if not trace:
            results = ops.loop(seconds, min_ops, max_ops)
            durations = [r["duration"] for r in results]
            scaled = _scaled(results)
            metrics, info = _end_to_end(
                [r["setup"] * s / d for r, s, d in zip(results, scaled, durations)],
                durations, scaled, max(r["peak_rss_mb"] for r in results))
            failures = [f for r in results for f in r["failures"]]
            return metrics, len(results), failures, {**info, **results[0]["info"]}
        plain = ops.loop(seconds / 2.0, 1, max_ops)
        traced = ops.loop(0.0, 0, None, count=len(plain), trace=True)
        failures = [f for r in plain for f in r["failures"]]
        failures += [f"traced {f}" for r in traced for f in r["failures"]]
        failures += [f"traced op {i}: report differs from untraced"
                     for i, (p, t) in enumerate(zip(plain, traced))
                     if p["digest"] != t["digest"]]
        overhead = sum(_scaled(plain)) / sum(_scaled(traced))
        metrics = per_layer_metrics(
            _merge_traces([r["trace"] for r in traced]), len(traced),
            statistics.median(r["import_s"] for r in plain + traced), overhead)
        return (metrics, len(plain) + len(traced), failures,
                {"ops": len(traced), **plain[0]["info"]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_inprocess(workload: str, seed: int, seconds: float, trace: bool,
                   min_ops: int, max_ops: int | None):
    if not trace:
        setups, refs = [], []
        for _ in range(SETUP_SPAWNS - 1):
            setup, ready, _ = _worker(workload, seed, "--ready-only")
            setups.append(setup)
            refs.append(ready["ref_s"])
        limit = ["--ops", str(max_ops)] if max_ops is not None else []
        setup, ready, res = _worker(workload, seed, "--seconds", str(seconds),
                                    "--min-ops", str(min_ops), *limit)
        setups.append(setup)
        refs += [ready["ref_s"], *res["ref_s"]]
        scale = time_scale(refs)
        metrics, info = _end_to_end([t * scale for t in setups], res["durations"],
                                    res["scaled"], res["peak_rss_mb"])
        return metrics, res["attempted"], res["failures"], {**info, **ready}
    limit = ["--ops", str(max_ops)] if max_ops is not None else []
    _, ready, plain = _worker(workload, seed, "--seconds", str(seconds / 2.0),
                              *limit)
    n = plain["attempted"]
    _, ready_t, traced = _worker(workload, seed, "--ops", str(n), "--trace", "1")
    failures = plain["failures"] + [f"traced {f}" for f in traced["failures"]]
    failures += [f"traced op {i}: output differs from untraced"
                 for i, (p, t) in enumerate(zip(plain["digests"], traced["digests"]))
                 if p != t]
    overhead = sum(plain["scaled"]) / sum(traced["scaled"])
    metrics = per_layer_metrics(
        traced["trace"], n,
        statistics.median([ready["import_s"], ready_t["import_s"]]), overhead)
    return metrics, n + traced["attempted"], failures, {"ops": n, **ready}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 min_ops: int = MIN_OPS, max_ops: int | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, info line)."""
    if workload == "verify":
        metrics, attempted, failures, info = _run_verify(
            seed, seconds, trace, min_ops, max_ops)
    else:
        metrics, attempted, failures, info = _run_inprocess(
            workload, seed, seconds, trace, min_ops, max_ops)
    for msg in failures[:20]:
        print(f"FAILED {workload}: {msg}", file=sys.stderr)
    failed = len({f.split(":", 1)[0] for f in failures})
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    info_line = {"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": int(trace), **_machine_info(info),
                 **{k: info[k] for k in ("ops", "tail_percentile",
                                         "setup_samples", "raw_op_p50_s",
                                         "time_scale") if k in info}}
    return result, info_line


# -- smoke ----------------------------------------------------------------------

SMOKE_MAX_OPS = {"verify": 1, "bulk": 3, "lp": 2}


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, _ = run_workload(wl, 1, 0.5, bool(trace), min_ops=1,
                                     max_ops=SMOKE_MAX_OPS[wl])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                diff = set(got.items()) ^ set(expected[trace].items())
                problems.append(f"{wl} trace={trace}: metrics differ: {sorted(diff)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{wl} trace={trace}: {result['failed']} ops failed")
            print(f"smoke {wl} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {len(got)} metrics")
    for p in problems:
        print(f"SMOKE FAILURE: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grolab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops of every workload; check metric names")
    args = parser.parse_args(argv)
    if not (SRC / "grolab" / "__init__.py").is_file():
        print(f"grolab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
