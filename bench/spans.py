"""In-process spans around the calls into each grolab module.

The tracer wraps functions from the outside: it replaces every module
attribute under ``grolab`` that *is* a target function object (so copies
bound by ``from .gauss import gauss_integrate`` are covered too), plus
``Profile.evaluate`` and the ``Interval`` operators on their classes.
Library code is never edited.

Spans are aggregated as they close rather than kept one by one, because a
single ``lp`` op opens about 10^5 of them.  Each span adds its duration to
the child time of the span that caused it (the enclosing one), so a
function's self time is its duration minus the spans it contains.  Code
that is not wrapped, such as a quadrature integrand's own arithmetic,
counts toward the self time of the innermost wrapped caller.

A target that no longer exists is skipped; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Layers whose public module-level functions are all wrapped, one span name
# per function: "<layer>.<function>".
GENERIC_LAYERS = ("profiles", "explorer", "pairing", "chain", "certify",
                  "baseline", "reporting", "cli")

# gauss is wrapped by hand: two span groups plus a panel counter.
GAUSS_INTEGRATE = ("gauss_integrate", "gauss_integrate_with_error")
GAUSS_CLOSED = ("gaussian_pdf", "gaussian_cdf", "interval_mass",
                "interval_z_moment")
GAUSS_PANEL = "_panel_eval"

INTERVAL_OPS = ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "abs",
                "square", "sqrt", "exp", "log", "erf", "pow_frac")
INTERVAL_FUNCS = ("gaussian_pdf_iv", "gaussian_cdf_iv")
# Called by quadrature integrands; without a span its time would count as
# gauss.integrate self time.
PROFILE_METHODS = ("evaluate",)

# Functions whose per-call durations are kept for a median, by layer.
P50_FUNCS = {
    "profiles": ("moment", "V_value", "dual_value", "gap_tail_integral",
                 "gap_certificate", "repair_to_theta", "lp_maximize",
                 "profile_to_text", "profile_from_text"),
    "explorer": ("r_lambda_norm_1d", "r_lambda_beta_norm_1d",
                 "beta_derivative_scan", "sign_ascent", "mc_norm_estimate",
                 "sample_theta_member", "sample_feasible_profile"),
    "pairing": ("A_bound_check",),
    "certify": ("c_z0_upper_enclosure",),
}
P50_SPANS = frozenset(f"{layer}.{fn}" for layer, fns in P50_FUNCS.items()
                      for fn in fns)


class Tracer:
    """Span aggregates for the functions it has wrapped.

    ``stats[name] = [calls, self_seconds]``; ``durations[name]`` holds the
    per-call durations of the spans in P50_SPANS; ``counts`` holds plain
    call counters.  Nothing is recorded while ``active`` is false.
    """

    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [child seconds, name]

    def span(self, name: str, fn, merge_nested: bool = False):
        """A wrapper of fn that records one span per call.

        With merge_nested, a call made while the innermost open span already
        has this name is folded into it (a thin public wrapper calling the
        function that does the work counts once).
        """
        stat = self.stats.setdefault(name, [0, 0.0])
        durs = self.durations.setdefault(name, []) if name in P50_SPANS else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (merge_nested and stack and stack[-1][1] == name):
                return fn(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt - frame[0]
                if durs is not None:
                    durs.append(dt)

        return wrapper

    def counter(self, name: str, fn):
        """A wrapper of fn that only counts calls."""
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates, for JSON."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "durations": {k: list(v) for k, v in self.durations.items()},
                "counts": dict(self.counts)}


def _grolab_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "grolab" or name.startswith("grolab."))]


def _rebind(original, replacement) -> None:
    """Point every grolab module attribute bound to original at replacement."""
    for module in _grolab_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _is_traceable(obj, module_name: str) -> bool:
    if isinstance(obj, functools._lru_cache_wrapper):
        obj = obj.__wrapped__
    return inspect.isfunction(obj) and obj.__module__ == module_name


def _module(layer: str):
    try:
        return importlib.import_module(f"grolab.{layer}")
    except ImportError:
        return None


def _wrap_functions(module, names, make) -> None:
    """Rebind each named function of module (if present) to make(function)."""
    for fname in names:
        orig = getattr(module, fname, None)
        if orig is not None:
            _rebind(orig, make(orig))


def _wrap_methods(module, cls_name: str, names, make) -> None:
    """Wrap methods on the class itself, so every instance is traced."""
    cls = getattr(module, cls_name, None)
    for name in names:
        orig = vars(cls).get(name) if cls is not None else None
        if inspect.isfunction(orig):
            setattr(cls, name, make(orig, name))


def install(tracer: Tracer) -> None:
    """Wrap every target in the already-imported grolab package."""
    gauss = _module("gauss")
    _wrap_functions(gauss, GAUSS_INTEGRATE, lambda f: tracer.span(
        "gauss.integrate", f, merge_nested=True))
    _wrap_functions(gauss, GAUSS_CLOSED, lambda f: tracer.span("gauss.closed", f))
    _wrap_functions(gauss, (GAUSS_PANEL,), lambda f: tracer.counter("gauss.panels", f))

    for layer in GENERIC_LAYERS:
        module = _module(layer)
        if module is None:
            continue
        for name, obj in list(vars(module).items()):
            if not name.startswith("_") and _is_traceable(obj, module.__name__):
                _rebind(obj, tracer.span(f"{layer}.{name}", obj))

    _wrap_methods(_module("profiles"), "Profile", PROFILE_METHODS,
                  lambda f, name: tracer.span(f"profiles.Profile.{name}", f))
    intervals = _module("intervals")
    _wrap_methods(intervals, "Interval", INTERVAL_OPS,
                  lambda f, name: tracer.span("intervals.op", f))
    _wrap_functions(intervals, INTERVAL_FUNCS,
                    lambda f: tracer.span(f"intervals.{f.__name__}", f))
