"""Span tracing around the package's layer boundaries, from outside the package.

No file of the package is edited.  ``Probes.install`` replaces the module
attributes that calling modules look up at call time (``ramanujan.ei``,
``engine.e_total``, ``zeros.a_weight``, ``primes.li_hp``, ...) with wrappers
that open a span per call and record counts at the same boundary;
``Probes.uninstall`` restores the originals, so untraced runs execute the
unmodified functions.  Spans are kept in memory as
``[name, start, end, parent]`` lists.

A span's layer is the first component of its name.  The layers are the
package modules: cli, engine, error_terms, kernel, hiprec, primes, zeros,
ramanujan.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "engine", "error_terms", "kernel", "hiprec", "primes", "zeros", "ramanujan")
# the CLI commands the workloads drive; each gets a ``cli.<command>`` span
COMMANDS = ("derive", "tables", "verify-primes", "zeros-check", "ramanujan")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def take(self):
        """Return (spans, counts) recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts, self._stack = [], Counter(), []
        return spans, counts


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(sid)
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[sid]
        ):
            if c_end > reach:
                covered += c_end - max(c_start, reach)
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans, counts) -> dict:
    """Additive per-execution totals from one span tree.

    ``<name>.calls`` counts spans of a name, ``<name>.s`` sums the durations
    of those with no ancestor of the same name (so recursion through
    ``engine.iterate`` is not counted twice), ``<layer>.self_s`` sums self
    times by layer, and every recorded count is copied through.
    """
    out = defaultdict(float)
    for name, n in counts.items():
        out[name] += n
    selfs = self_times(spans)
    for sid, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name.split('.')[0]}.self_s"] += selfs[sid]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            out[f"{name}.s"] += end - start
        if name == "hiprec.ei" and parent is not None and spans[parent][0] == "ramanujan.step_verify":
            out["ramanujan.ei_in_steps"] += 1
    return dict(out)


class Probes:
    """The wrappers installed for a traced execution.

    Each probe is ``(module, attribute, span name, after)``; the span name
    may be a callable of the call's arguments, and ``after(counts, args,
    kwargs, result, before)`` records counts once the call returns.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def install(self) -> None:
        for mod_name, attr, name, after in PROBES:
            module = importlib.import_module(f"primebounds.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, after))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, after):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = name(args, kwargs) if callable(name) else (name, None)
            sid = tracer.open(before[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(tracer.counts, args, kwargs, result, before[1])
            return result

        return wrapper


def _build_tables_name(args, kwargs):
    # cold when there is no cache file to resume from
    path = kwargs.get("cache_path", args[1] if len(args) > 1 else None)
    stat = _stat(path)
    return ("primes.build_tables.warm" if stat else "primes.build_tables.cold", (path, stat))


def _stat(path):
    if path is None or not os.path.exists(path):
        return None
    st = os.stat(path)
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def _after_build_tables(counts, args, kwargs, result, before):
    path, stat = before
    counts["primes.jumps"] += len(result.jumps)
    after = _stat(path)
    if after is not None and after != stat:
        counts["primes.cache.bytes"] += after[2]
        if stat is not None:
            counts["primes.cache.rebuilds"] += 1


def _after_scan(counts, args, kwargs, result, before):
    counts["primes.scan.points"] += result.n_points
    counts["primes.scan.rechecked"] += result.n_rechecked


def _after_segmented(counts, args, kwargs, result, before):
    counts["primes.sieved_ints"] += int(args[0] if args else kwargs["x"])


def _after_step(counts, args, kwargs, result, before):
    counts["ramanujan.steps"] += result.steps_checked


def _after_weights(counts, args, kwargs, result, before):
    counts["zeros.weights_checked"] += result.checked


# (module, attribute looked up by the caller, span name, after-hook)
PROBES = (
    ("engine", "iterate", "engine.iterate", None),
    ("engine", "table1", "engine.table1", None),
    ("engine", "table2", "engine.table2", None),
    ("engine", "solve_x_max", "engine.solve_x_max", None),
    ("engine", "derive_profile", "error_terms.derive_profile", None),
    ("engine", "e_total", "error_terms.e_total", None),
    ("engine", "shift_requirement", "error_terms.shift_requirement", None),
    ("engine", "round_up_sig", "error_terms.round_up_sig", None),
    ("zeros", "load_zeros", "zeros.load_zeros", None),
    ("zeros", "check_zero_sum", "zeros.check_zero_sum", None),
    ("zeros", "check_kernel_weights", "zeros.check_kernel_weights", _after_weights),
    ("zeros", "a_weight", "kernel.a_weight", None),
    ("zeros", "zero_sum_bound", "kernel.zero_sum_bound", None),
    ("kernel", "bessel_i1", "hiprec.bessel_i1", None),
    ("hiprec", "bessel_i1", "hiprec.bessel_i1", None),
    ("primes", "build_tables", _build_tables_name, _after_build_tables),
    ("primes", "scan_inequality", "primes.scan_inequality", _after_scan),
    ("primes", "li_hp", "hiprec.li", None),
    ("primes", "segmented_prime_count", "primes.segmented_prime_count", _after_segmented),
    ("ramanujan", "step_verify", "ramanujan.step_verify", _after_step),
    ("ramanujan", "counterexample_check_direct", "ramanujan.counterexample_check_direct", None),
    ("ramanujan", "regime_schedule", "ramanujan.regime_schedule", None),
    ("ramanujan", "ei", "hiprec.ei", None),
    ("hiprec", "ei", "hiprec.ei", None),
    ("hiprec", "li", "hiprec.li", None),
)


def _per(total, n, scale=1.0):
    return total / n * scale if n else 0.0


def layer_metrics(t: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metrics of one pass, from the summed totals ``t``."""
    g = lambda key: t.get(key, 0.0)  # noqa: E731
    steps = g("ramanujan.steps")
    self_total = sum(g(f"{layer}.self_s") for layer in LAYERS)
    m = {
        "ramanujan.steps": steps,
        "ramanujan.us_per_step": _per(g("ramanujan.step_verify.s"), steps, 1e6),
        "ramanujan.ei_calls_per_step": _per(g("ramanujan.ei_in_steps"), steps),
        "hiprec.ei.calls": g("hiprec.ei.calls"),
        "hiprec.ei.us": _per(g("hiprec.ei.s"), g("hiprec.ei.calls"), 1e6),
        "error_terms.e_total.calls": g("error_terms.e_total.calls"),
        "error_terms.e_total.us": _per(g("error_terms.e_total.s"), g("error_terms.e_total.calls"), 1e6),
        "error_terms.derive_profile.calls": g("error_terms.derive_profile.calls"),
        "error_terms.derive_profile.us": _per(
            g("error_terms.derive_profile.s"), g("error_terms.derive_profile.calls"), 1e6),
        "engine.iterate.s": g("engine.iterate.s"),
        "engine.table1.s": g("engine.table1.s"),
        "engine.table2.s": g("engine.table2.s"),
        "engine.solve_x_max.calls": g("engine.solve_x_max.calls"),
        "kernel.a_weight.calls": g("kernel.a_weight.calls"),
        "kernel.a_weight.us": _per(g("kernel.a_weight.s"), g("kernel.a_weight.calls"), 1e6),
        "hiprec.bessel_i1.calls": g("hiprec.bessel_i1.calls"),
        "hiprec.bessel_i1.us": _per(g("hiprec.bessel_i1.s"), g("hiprec.bessel_i1.calls"), 1e6),
        "zeros.load_zeros.s": g("zeros.load_zeros.s"),
        "zeros.check_zero_sum.s": g("zeros.check_zero_sum.s"),
        "zeros.check_kernel_weights.s": g("zeros.check_kernel_weights.s"),
        "zeros.weights_checked": g("zeros.weights_checked"),
        "primes.build_tables.cold_s": g("primes.build_tables.cold.s"),
        "primes.build_tables.warm_s": g("primes.build_tables.warm.s"),
        "primes.jumps": g("primes.jumps"),
        "primes.cache.bytes": g("primes.cache.bytes"),
        "primes.cache.rebuilds": g("primes.cache.rebuilds"),
        "primes.scan_inequality.calls": g("primes.scan_inequality.calls"),
        "primes.scan_inequality.s": g("primes.scan_inequality.s"),
        "primes.scan.points": g("primes.scan.points"),
        "primes.scan.rechecked": g("primes.scan.rechecked"),
        "hiprec.li.calls": g("hiprec.li.calls"),
        "primes.segmented_prime_count.calls": g("primes.segmented_prime_count.calls"),
        "primes.segmented_prime_count.s": g("primes.segmented_prime_count.s"),
        "primes.sieve_ints_per_s": _per(g("primes.sieved_ints"), g("primes.segmented_prime_count.s")),
    }
    for command in COMMANDS:
        m[f"cli.{command}.s"] = g(f"cli.{command}.s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = g(f"{layer}.self_s")
    m["trace.wall_s"] = traced_wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.accounted_share"] = _per(self_total, traced_wall_s)
    return m
