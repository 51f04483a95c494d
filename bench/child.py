"""Child interpreter of the benchmark; run.py starts one per measurement.

Two modes:

  child.py cli [--trace-out PATH] -- GROLAB_ARGS...
      One `verify` op: import grolab.cli (timed), then run grolab's own
      command-line entry point on GROLAB_ARGS, exactly as the `grolab`
      console script does.

  child.py worker --workload {bulk,lp} --seed N --seconds S [--ops N] ...
      Import, warm up, then a closed loop of in-process ops: one op at a
      time, each checked, until S seconds have passed (or N ops are done).

Each mode prints JSON lines on stdout; the last one is the result.  Times
shared with the parent come from time.monotonic(), which on Linux is one
clock for every process on the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time

import spans


def _import_grolab() -> dict:
    """Import the whole command-line package and report how long it took."""
    t0 = time.perf_counter()
    import grolab.cli  # noqa: F401  (imports every grolab module)
    import_s = time.perf_counter() - t0
    return {"imported": time.monotonic(), "import_s": import_s,
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Times are scaled to a machine on which reference_seconds() takes this long
# (its usual value on the 2-vCPU Xeon VM the bounds were set on).  That VM's
# speed drifts by up to 1.8x over minutes as other tenants come and go; the
# reference runs next to every op, in the same process, and drifts with it,
# so scaled times compare across runs.
REF_NOMINAL_S = 0.8e-3


def reference_seconds() -> float:
    """Time of a fixed task that no grolab change can touch: interpreted
    arithmetic plus small numpy calls, the mix grolab's ops spend their time
    in.  The best of three, so a preemption does not count."""
    import numpy as np  # after grolab, so its import counts in set-up

    x = np.linspace(0.0, 1.0, 64)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(6000):
            acc += k * k % 7
        for _ in range(60):
            float(np.dot(x, np.exp(-x * x)))
        best = min(best, time.perf_counter() - t0)
    return best


# An op time is scaled by the median reference timing of the ops up to this
# many places before or after it: the window follows the machine's drift,
# which takes seconds to minutes, but not the jitter of a single timing
# (about 13%).
SCALE_WINDOW = 10


def time_scale(refs: list[float]) -> float:
    """Nominal over the median of some reference timings."""
    return REF_NOMINAL_S / statistics.median(refs)


def scaled_times(durations: list[float], refs: list[float]) -> list[float]:
    """Each op time at the reference speed; refs[i] was taken with op i."""
    return [d * time_scale(refs[max(0, i - SCALE_WINDOW):i + SCALE_WINDOW + 1])
            for i, d in enumerate(durations)]


def measured_enough(ops: int, op_s: float, refs: list[float], wall_s: float,
                    seconds: float, min_ops: int) -> bool:
    """Stop rule of a measured loop: `seconds` of op time at the reference
    speed over at least min_ops ops, so the op count does not follow the
    machine's drift; or twice `seconds` of wall time, so a run on a slow
    machine still ends in time."""
    return ops >= 1 and ((op_s * time_scale(refs) >= seconds and ops >= min_ops)
                         or wall_s >= 2.0 * seconds)


# -- op inputs ------------------------------------------------------------------

# Reserved op index for the warm-up op, never reached by a measured op.
WARMUP_INDEX = (1 << 24) - 1


def op_key(seed: int, stream: int, index: int) -> int:
    """Philox key of one input stream of one op: distinct for every
    (seed, stream, index), so no input repeats within a run."""
    return (seed << 32) | (stream << 24) | index


def _uniform(key: int, lo: float, hi: float, n: int):
    import numpy as np  # after grolab, so its import counts in set-up

    return np.random.Generator(np.random.Philox(key=key)).uniform(lo, hi, n)


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


class Bulk:
    """Property-suite traffic on few-cell profiles (quadrature bound).

    One op: a seeded 12-cell feasible profile gets a gap certificate and
    weak duality at 20 dual points; a seeded maximizer-set member gets the
    inner H3 bound and a 4-beta derivative scan.
    """

    BETAS = [1e-3 / 2 ** k for k in range(4)]

    def __init__(self, seed: int):
        from grolab import baseline, pairing

        self.seed = seed
        self.params = baseline.ReedsParams.at_reeds_point(baseline.LAMBDA_STAR)
        self.kappa_q = pairing.kappa_Q(self.params.eta)[2]

    def inputs(self, i: int):
        return (op_key(self.seed, 0, i), op_key(self.seed, 1, i),
                [float(mu) for mu in _uniform(op_key(self.seed, 2, i), -1.5, 1.5, 20)])

    def run(self, inp):
        from grolab import explorer, pairing, profiles

        feasible_key, member_key, mus = inp
        params = self.params
        prof = explorer.sample_feasible_profile(feasible_key, params)
        cert = profiles.gap_certificate(prof, params)
        duals = [profiles.dual_value(mu, params) for mu in mus]
        member = explorer.sample_theta_member(member_key)
        a_val, bound = pairing.A_bound_check(member, params.eta)
        rows = explorer.beta_derivative_scan(member, params, self.BETAS)
        limit = explorer.richardson_limit(rows)
        return cert, duals, a_val, bound, rows, limit, prof, member

    def check(self, inp, out) -> tuple[list[str], str]:
        cert, duals, a_val, bound, rows, limit, prof, member = out
        bad = []
        if not abs(cert.gap - cert.tail_integral) <= 1e-10:
            bad.append(f"gap {cert.gap!r} vs tail {cert.tail_integral!r}")
        if not all(cert.primal_V <= d + 1e-10 for d in duals):
            bad.append("weak duality V <= D(mu) violated")
        if not a_val <= bound + 1e-10:
            bad.append(f"A {a_val!r} above bound {bound!r}")
        if not limit >= self.kappa_q - 1e-9:
            bad.append(f"Richardson limit {limit!r} below kappa_Q")
        digest = hashlib.sha256("|".join((
            _hex((cert.primal_V, cert.dual_D, cert.gap, cert.tail_integral)),
            _hex(duals), _hex((a_val, bound, limit)),
            _hex(v for row in rows for v in row),
            _hex(prof.values), _hex(member.breakpoints), _hex(member.values),
        )).encode()).hexdigest()
        return bad, digest


class Lp:
    """Grid-sweep traffic: the 16384-cell LP maximizer plus its text round trip."""

    GRID = 16384

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, i: int):
        return float(_uniform(op_key(self.seed, 3, i), 0.18, 0.215, 1)[0])

    def run(self, lam):
        from grolab import baseline, profiles

        params = baseline.ReedsParams.at_reeds_point(lam)
        prof, value = profiles.lp_maximize(params, self.GRID)
        text = profiles.profile_to_text(prof)
        back = profiles.profile_from_text(text)
        return params, prof, value, text, back

    def check(self, lam, out) -> tuple[list[str], str]:
        from grolab import profiles

        params, prof, value, text, back = out
        bad = []
        dual = profiles.F_value_dual(params)
        if not abs(value - dual) <= 1e-8:
            bad.append(f"lp {value!r} vs dual {dual!r} at lambda {lam!r}")
        if back != prof:
            bad.append("profile text round trip changed the profile")
        digest = hashlib.sha256(
            (value.hex() + "|" + text).encode()).hexdigest()
        return bad, digest


WORKLOADS = {"bulk": Bulk, "lp": Lp}


def worker(args) -> int:
    info = _import_grolab()
    workload = WORKLOADS[args.workload](args.seed)
    warm = workload.inputs(WARMUP_INDEX)
    workload.check(warm, workload.run(warm))
    _emit({"ready": time.monotonic(), "ref_s": reference_seconds(), **info})
    if args.ready_only:
        return 0

    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)

    durations: list[float] = []
    refs: list[float] = []  # one per op attempted
    op_refs: list[float] = []  # one per op completed
    op_total = 0.0
    digests: list[str] = []
    failures: list[str] = []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        if args.ops is not None:
            if i >= args.ops:
                break
        elif measured_enough(i, op_total, refs, clock() - start, args.seconds,
                             args.min_ops):
            break
        inp = workload.inputs(i)
        refs.append(reference_seconds())
        try:
            tracer.active = bool(args.trace)
            try:
                t0 = clock()
                out = workload.run(inp)
                dt = clock() - t0
            finally:
                tracer.active = False
            bad, digest = workload.check(inp, out)
        except Exception as exc:  # an op that raises is a failed op
            bad, digest = [f"{type(exc).__name__}: {exc}"], ""
        else:
            durations.append(dt)
            op_refs.append(refs[-1])
            op_total += dt
        digests.append(digest)
        failures.extend(f"op {i}: {msg}" for msg in bad)
        i += 1

    _emit({"attempted": i, "durations": durations, "ref_s": refs,
           "scaled": scaled_times(durations, op_refs),
           "digests": digests, "failures": failures, "peak_rss_mb": _peak_rss_mb(),
           "trace": tracer.snapshot() if args.trace else None})
    return 0


def cli(args) -> int:
    _emit({**_import_grolab(), "ref_s": reference_seconds()})
    import grolab.cli

    tracer = spans.Tracer()
    if args.trace_out:
        spans.install(tracer)
        tracer.active = True
    try:
        code = grolab.cli.main(args.grolab_args)
    except Exception as exc:  # reported as a failed op, not a crashed run
        code = f"{type(exc).__name__}: {exc}"
    tracer.active = False
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    _emit({"exit": code, "ref_s": reference_seconds(),
           "peak_rss_mb": _peak_rss_mb()})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    w = sub.add_parser("worker")
    w.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--seconds", type=float, default=0.0)
    w.add_argument("--min-ops", type=int, default=1)
    w.add_argument("--ops", type=int, help="run exactly this many ops")
    w.add_argument("--trace", type=int, choices=(0, 1), default=0)
    w.add_argument("--ready-only", action="store_true",
                   help="exit once set-up is done")
    c = sub.add_parser("cli")
    c.add_argument("--trace-out", help="write span aggregates here")
    c.add_argument("grolab_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.grolab_args[:1] == ["--"]:
            args.grolab_args = args.grolab_args[1:]
        return cli(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
