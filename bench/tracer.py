"""Per-layer spans around the calls into catms, installed from outside `src/`.

`Tracer.install` replaces each traced function by a timing wrapper in every
catms module that binds it, so a call is timed where the name is looked up:
`gates.propagate_piecewise` and `dynamics.propagate_piecewise` are the same
span. A span records its calls, its time and its self time (time outside
child spans). The right-hand side that `dynamics` hands to `solve_ivp` is
wrapped to count RHS calls.

Points computed in pool workers are traced there: the `compute_record`
wrapper gives each point a fresh `Spans`, returns it inside the record under
`_trace`, and the `run_experiment` wrapper merges it back (the CSV writer
ignores keys that are not columns). Wrappers keep the wrapped function's
name, so `ProcessPoolExecutor` can still pickle `compute_record` by name in
the forked workers, which inherit the patched modules.
"""
from __future__ import annotations

import functools
import inspect
import math
import time

TRACED = {
    "cli": ("load_spec", "estimate_resources", "compute_record", "run_experiment"),
    "gates": ("run_gate", "loop_trajectory", "no_leakage", "output_fidelity"),
    "dynamics": ("expm_apply", "propagate_piecewise", "evolve_density", "evolve_state"),
    "model": ("h_kerr_single", "kerr_level_isometry"),
    "protocols": ("cat_prep_hamiltonian", "run_cat_prep", "run_single_qubit_gate"),
    "states": ("fidelity", "basis_state", "single_mode_cat_vector"),
    "hilbert": ("tensor_embed",),
    "noise": ("noisy_schedule",),
}
TRIVIAL_XI_J = 1e-12


class Spans:
    """Counters per span name; a plain dict of dicts, so it pickles."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.stack: list[list] = []  # [name, seconds in child spans]

    def add(self, name: str, key: str, value: float):
        s = self.stats.setdefault(name, {})
        s[key] = s.get(key, 0) + value

    def merge(self, stats: dict):
        for name, counters in stats.items():
            for key, value in counters.items():
                self.add(name, key, value)


def _is_zero_channel(ch) -> bool:
    """D[o] vanishes identically iff the rate is 0 or o is a multiple of I."""
    if ch.rate == 0:
        return True
    m = ch.op.matrix.tocsr()
    off = m.copy()
    off.setdiag(0)
    off.eliminate_zeros()
    d = m.diagonal()
    return off.nnz == 0 and bool((abs(d - d[0]) == 0).all())


class Tracer:
    def __init__(self, catms):
        self.catms = catms
        self.spans = Spans()
        self._modules = [getattr(catms, m) for m in TRACED]

    def install(self):
        hooks = {
            "dynamics.propagate_piecewise": self._count_segments,
            "dynamics.evolve_density": self._count_channels,
            "protocols.run_single_qubit_gate": self._count_rk4,
        }
        for mod_name, names in TRACED.items():
            module = getattr(self.catms, mod_name)
            for fn_name in names:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(module, fn_name)
                if name == "cli.compute_record":
                    wrapped = self._record_wrapper(orig)
                elif name == "cli.run_experiment":
                    wrapped = self._experiment_wrapper(orig)
                else:
                    wrapped = self._span(name, orig, hooks.get(name))
                self._rebind(orig, wrapped)
        dyn = self.catms.dynamics
        self._rebind(dyn.solve_ivp, self._rhs_wrapper(dyn.solve_ivp))
        self._rebind(dyn._rk4_integrate, self._rhs_wrapper(dyn._rk4_integrate))

    def _rebind(self, orig, wrapped):
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapped)

    def _span(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            if hook is not None:
                hook(spans, fn, args, kwargs)
            spans.stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = spans.stack.pop()[1]
                if spans.stack:
                    spans.stack[-1][1] += dt
                spans.add(name, "calls", 1)
                spans.add(name, "s", dt)
                spans.add(name, "self_s", dt - child)
        return wrapper

    # --- counters taken from a call's arguments ------------------------------

    @staticmethod
    def _bound(fn, args, kwargs):
        b = inspect.signature(fn).bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    def _count_segments(self, spans, fn, args, kwargs):
        spans.add("dynamics.propagate_piecewise", "segments",
                  len(self._bound(fn, args, kwargs)["segments"]))

    def _count_channels(self, spans, fn, args, kwargs):
        channels = list(self._bound(fn, args, kwargs)["collapse_channels"])
        spans.add("dynamics.evolve_density", "channels", len(channels))
        spans.add("dynamics.evolve_density", "channels_zero",
                  sum(_is_zero_channel(ch) for ch in channels))

    def _count_rk4(self, spans, fn, args, kwargs):
        a = self._bound(fn, args, kwargs)
        xi_j = a["params"].xi_j
        if not a["use_h_add"] or xi_j == 0.0:
            return
        # the same step count run_single_qubit_gate derives from its arguments
        omega_c = a["omega_c"] if a["omega_c"] is not None else 800.0 * a["kerr"]
        dt = 2.0 * math.pi / (omega_c * a["n_steps_per_cycle"])
        spans.add("protocols.run_single_qubit_gate", "rk4_steps", math.ceil(a["t_gate"] / dt))
        if abs(xi_j) < TRIVIAL_XI_J:
            spans.add("protocols.run_single_qubit_gate", "trivial_josephson_rows", 1)

    # --- the right-hand side handed to the integrators -------------------------

    def _rhs_wrapper(self, integrator):
        """Count the calls of the right-hand side, the integrator's first argument."""
        @functools.wraps(integrator)
        def wrapper(rhs, *args, **kwargs):
            spans = self.spans
            in_prep = any(e[0] == "protocols.run_cat_prep" for e in spans.stack)
            calls = [0, 0.0]

            def counted(t, y):
                t0 = time.perf_counter()
                try:
                    return rhs(t, y)
                finally:
                    calls[0] += 1
                    calls[1] += time.perf_counter() - t0

            try:
                return integrator(counted, *args, **kwargs)
            finally:
                spans.add("dynamics.rhs", "calls", calls[0])
                spans.add("dynamics.rhs", "s", calls[1])
                if in_prep:
                    spans.add("protocols.run_cat_prep", "rhs_calls", calls[0])
        return wrapper

    # --- one grid point, possibly in a pool worker --------------------------------

    def _record_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self.spans = self.spans, Spans()
            t0 = time.perf_counter()
            try:
                rec = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner, self.spans = self.spans, outer
            inner.add("cli.compute_record", "calls", 1)
            inner.add("cli.compute_record", "s", dt)
            rec["_trace"] = inner.stats
            return rec
        return wrapper

    def _experiment_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(spec, workers=1):
            t0 = time.perf_counter()
            records = fn(spec, workers)
            span = time.perf_counter() - t0
            for rec in records:
                self.spans.merge(rec.pop("_trace"))
            pooled = workers if workers > 1 and len(records) > 1 else 1
            busy = sum(float(r["runtime_s"]) for r in records)
            self.spans.add("cli.run_experiment", "runtime_s", busy)
            self.spans.add("cli.run_experiment", "worker_span_s", pooled * span)
            self.spans.add("cli.run_experiment", "idle_s", span - busy / pooled)
            return records
        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        return layer_metrics(self.spans.stats)


def layer_metrics(stats: dict) -> dict[str, tuple[float, str]]:
    """(value, unit) of every per-layer metric; 0 for a layer that did not run."""
    def get(name, key):
        return float(stats.get(name, {}).get(key, 0.0))

    out = {}
    for name, keys in LAYER_METRICS.items():
        for key, unit in keys:
            out[f"{name}.{key}"] = (get(name, key), unit)
    rhs_calls = get("dynamics.rhs", "calls")
    out["dynamics.rhs.mean_us"] = (
        1e6 * get("dynamics.rhs", "s") / rhs_calls if rhs_calls else 0.0, "us")
    prep_rhs = get("protocols.run_cat_prep", "rhs_calls")
    out["protocols.cat_prep_hamiltonian.per_rhs"] = (
        get("protocols.cat_prep_hamiltonian", "calls") / prep_rhs if prep_rhs else 0.0,
        "ratio")
    out["gates.run_gate.self_s"] = (get("gates.run_gate", "self_s"), "s")
    out["cli.compute_record.peak_mb"] = (get("cli.compute_record", "peak_mb"), "MB")
    out["cli.pool_overhead_s"] = (get("cli.run_experiment", "idle_s"), "s")
    worker_span = get("cli.run_experiment", "worker_span_s")
    out["cli.pool_efficiency"] = (
        get("cli.run_experiment", "runtime_s") / worker_span if worker_span else 0.0, "ratio")
    return out


_CS = (("calls", "count"), ("s", "s"))
LAYER_METRICS = {
    "dynamics.expm_apply": _CS,
    "dynamics.propagate_piecewise": _CS + (("segments", "count"),),
    "dynamics.evolve_density": _CS + (("channels", "count"), ("channels_zero", "count")),
    "dynamics.evolve_state": _CS,
    "dynamics.rhs": _CS,
    "protocols.cat_prep_hamiltonian": _CS,
    "model.h_kerr_single": _CS,
    "protocols.run_cat_prep": _CS,
    "protocols.run_single_qubit_gate": _CS + (("rk4_steps", "count"),
                                              ("trivial_josephson_rows", "count")),
    "gates.run_gate": _CS,
    "model.kerr_level_isometry": _CS,
    "hilbert.tensor_embed": _CS,
    "gates.loop_trajectory": _CS,
    "noise.noisy_schedule": _CS,
    "gates.no_leakage": (("s", "s"),),
    "gates.output_fidelity": (("s", "s"),),
    "states.fidelity": _CS,
    "states.basis_state": _CS,
    "states.single_mode_cat_vector": _CS,
    "cli.load_spec": (("s", "s"),),
    "cli.estimate_resources": (("s", "s"),),
    "cli.compute_record": _CS,
}
