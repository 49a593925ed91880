"""Per-layer spans recorded from the benchmark's side of the program.

install() replaces the public entry points of dicke, hamiltonians,
propagator, protocols, diagnostics and cli with timing wrappers, in every
module namespace that binds them (rotate_vector, for one, is imported into
propagator and protocols as well). Nothing under src/ changes. Spans are
kept in memory, one list per thread with its own stack of open spans, so
the Monte Carlo pool's spans nest under their own thread's parents. A
span's self time is its duration minus the durations of its children; on
one thread children never overlap, so that is the time they cover.

Cache builds and hits come from cache_info() on the lru_cache functions and
from wrapping _PeriodOperators.__init__ and period_operators.
"""

import functools
import json
import threading
import time

from spinsqueeze import cli, diagnostics, dicke, hamiltonians, propagator, protocols

MODULES = (dicke, hamiltonians, propagator, protocols, diagnostics, cli)

FUNCTIONS = (
    (dicke, "rotate_vector", "dicke.rotate_vector"),
    (propagator, "period_operators", "propagator.period_ops.lookup"),
    (propagator, "driven_doubling_check", "propagator.doubling_check"),
    (propagator, "evolve_schedule", "propagator.evolve_schedule"),
    (protocols, "reference_runs", "protocols.reference_runs"),
    (protocols, "build_repeated_pulse", "protocols.build"),
    (protocols, "build_modulated_drive", "protocols.build"),
    (protocols, "run_monte_carlo", "protocols.run_monte_carlo"),
    (protocols, "run_protocol", "protocols.run_protocol"),
    (diagnostics, "squeezing_report", "diagnostics.squeezing_report"),
    (diagnostics, "husimi_q", "diagnostics.husimi_q"),
    (cli, "write_run_csv", "cli.write"),
    (cli, "write_mean_csv", "cli.write"),
    (cli, "write_realizations_csv", "cli.write"),
    (cli, "write_husimi_csv", "cli.write"),
    (cli, "_write_manifest", "cli.write"),
)
CACHED = (
    (dicke, "axis_eigensystem", "dicke.axis_eigensystem"),
    (hamiltonians, "quadratic_matrix", "hamiltonians.quadratic_matrix"),
)
METHODS = (
    (propagator.SpectralPropagator, "__init__", "propagator.spectral.build"),
    (propagator.SpectralPropagator, "evolve", "propagator.spectral.evolve"),
    (propagator._PeriodOperators, "__init__", "propagator.period_ops.build"),
    (propagator._PeriodOperators, "jump", "propagator.jump"),
    (propagator.DrivenEngine, "advance", "propagator.advance"),
    (dicke.DickeState, "save", "cli.write"),
)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (thread ident, span list); a span is [name, parent, start, end]
        self._cached = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append((threading.get_ident(), state[0]))
        return state

    def wrap(self, name, fn, cache=None):
        """Timing wrapper; with `cache` (an lru_cache function) the span is
        named <name>.build when the call missed the cache, else <name>.hit."""
        if cache:
            self._cached[name] = cache

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._state()
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            misses = cache.cache_info().misses if cache else 0
            rec[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                if cache:
                    rec[0] += ".build" if cache.cache_info().misses > misses else ".hit"

        return traced

    def _all_spans(self):
        with self._lock:
            return [(tid, spans) for tid, spans in self._threads]

    def write(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for tid, spans in self._all_spans():
                for i, (name, parent, start, end) in enumerate(spans):
                    fh.write(json.dumps({
                        "thread": tid, "id": i, "parent": parent, "name": name,
                        "start": start - t0, "end": end - t0,
                    }) + "\n")

    def metrics(self, t0: float, t1: float):
        """(per-layer metrics, self seconds per span name) for the traced
        interval [t0, t1]."""
        count, total, self_s = {}, {}, {}
        roots, mc_windows, realizations = [], [], []
        for _, spans in self._all_spans():
            child = [0.0] * len(spans)
            for name, parent, start, end in spans:
                if parent >= 0:
                    child[parent] += end - start
                else:
                    roots.append((start, end))
                if name == "protocols.run_monte_carlo":
                    mc_windows.append((start, end))
                elif name == "protocols.run_protocol":
                    realizations.append((start, end))
            for (name, _, start, end), covered in zip(spans, child):
                count[name] = count.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + (end - start)
                self_s[name] = self_s.get(name, 0.0) + (end - start - covered)

        def n(name):
            return count.get(name, 0)

        def tot(name):
            return total.get(name, 0.0)

        def own(name):
            return self_s.get(name, 0.0)

        busy = sum(
            e - s for s, e in realizations if any(a <= s and e <= b for a, b in mc_windows)
        )
        mc_capacity = protocols.worker_count() * sum(b - a for a, b in mc_windows)
        period_builds = n("propagator.period_ops.build")
        layers = {
            "dicke.rotate_vector.calls": n("dicke.rotate_vector"),
            "dicke.rotate_vector.self_s": own("dicke.rotate_vector"),
            "dicke.axis_eigensystem.builds": self._cached["dicke.axis_eigensystem"].cache_info().misses,
            "dicke.axis_eigensystem.build_s": tot("dicke.axis_eigensystem.build"),
            "hamiltonians.quadratic_matrix.builds":
                self._cached["hamiltonians.quadratic_matrix"].cache_info().misses,
            "hamiltonians.quadratic_matrix.build_s": tot("hamiltonians.quadratic_matrix.build"),
            "propagator.spectral.builds": n("propagator.spectral.build"),
            "propagator.spectral.build_s": tot("propagator.spectral.build"),
            "propagator.spectral.evolve_calls": n("propagator.spectral.evolve"),
            "propagator.spectral.evolve_s": tot("propagator.spectral.evolve"),
            "propagator.period_ops.builds": period_builds,
            "propagator.period_ops.hits": n("propagator.period_ops.lookup") - period_builds,
            "propagator.period_ops.build_s": tot("propagator.period_ops.build"),
            "propagator.jump.calls": n("propagator.jump"),
            "propagator.jump.self_s": own("propagator.jump"),
            "propagator.advance.self_s": own("propagator.advance"),
            "propagator.doubling_check.s": tot("propagator.doubling_check"),
            "propagator.evolve_schedule.calls": n("propagator.evolve_schedule"),
            "propagator.evolve_schedule.self_s": own("propagator.evolve_schedule"),
            "protocols.reference_runs.self_s": own("protocols.reference_runs"),
            "protocols.build.self_s": own("protocols.build"),
            "protocols.run_monte_carlo.s": tot("protocols.run_monte_carlo"),
            "protocols.mc.parallel_eff": busy / mc_capacity if mc_capacity else 0.0,
            "diagnostics.squeezing_report.calls": n("diagnostics.squeezing_report"),
            "diagnostics.squeezing_report.self_s": own("diagnostics.squeezing_report"),
            "diagnostics.husimi_q.s": tot("diagnostics.husimi_q"),
            "cli.write.s": tot("cli.write"),
            "trace.coverage": _union_length(roots, t0, t1) / (t1 - t0),
        }
        return layers, self_s


def _union_length(intervals, lo: float, hi: float) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _rebind(original, replacement) -> None:
    for mod in MODULES:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


def install() -> Tracer:
    tracer = Tracer()
    for mod, attr, name in FUNCTIONS:
        fn = getattr(mod, attr)
        _rebind(fn, tracer.wrap(name, fn))
    for mod, attr, name in CACHED:
        fn = getattr(mod, attr)
        _rebind(fn, tracer.wrap(name, fn, cache=fn))
    for cls, attr, name in METHODS:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    return tracer
