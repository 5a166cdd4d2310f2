"""Config-driven experiment runner: JSON recipe in, CSV records + manifest out.

Unit convention in configs: every physical rate/frequency may be written as a
bare number (already rad/us) or as {"value": v, "two_pi": true|false}; with
two_pi=true the value is interpreted as v MHz quoted "X/2pi = v MHz", i.e.
X = 2*pi*v rad/us. Grid values follow the same flag as their base parameter.

Exit codes: 0 success, 2 config error, 3 resource refusal,
4 a grid point failed (a numerical-tolerance breach or any other error that
is not a config error). A failed point still gets its CSV row, with the
exception in the `error` cell, and the other points are kept.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from math import prod
from pathlib import Path

import numpy as np

from . import gates, noise, protocols
from .model import GateConfig, Schedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4

CONFIG_VERSION = 1
DEFAULT_CEILING_BYTES = 8 * 1024**3
DENSITY_WORKING_SET = 6
"""Peak working set of a gate's density-matrix run, in copies of ρ.

A gate keeps ρ as its two parity blocks, each a quarter of ρ, so the flat
array of both is half a copy. Each segment is propagated by
dynamics._lindblad_series, which holds about 8 such arrays: the segment's
ρ0, the sub-step's input, the terms S_{k−1}, S_k and S_{k+1}, the sum and
the temporary of its update, and the map's output, besides the map's sparse
products in flight and its conjugate-transpose buffer. Up to dimension 256,
evolve_density then checks each block's eigenvalues. The metrics then
assemble ρ whole, one copy, and rotate it in place. tracemalloc measured
peaks of 5.4 × one copy over a whole run_gate, the metrics included, on the
dim-80 effective fig4_output_fidelity point at N = 2, 4.4 × on the dim-160
Kerr-level point of fig2a_bus_decoherence (kpo_levels 4, bus_rate 0.1) and
4.0 × on the dim-640 fig4_n2_full point; the fixed cost of the operators
weighs most at the smallest dimension.
"""
RAMP_WORKING_SET = 19
"""Peak working set of the lossy cat-prep ramp, in copies of ρ.

The ramp runs under dynamics.solve_ivp, which holds 9.5 copies throughout
(7 stage rows, y, f and half a copy for the error scale) and 3 more during
a step (the stage input y + dy, and y_new and f_new, which stay bound while
a rejected step is retried). The caller holds ρ0 and the flat copy that it
hands to the stepper, and the Lindblad right-hand side its
conjugate-transpose buffer and up to 3 temporaries, so 18.5 in all.
tracemalloc measured peaks of 22.1 × one copy over a whole run_cat_prep
(K = 1, α = 2, t0 = 1.7, κ = γ = 0.02) at dim 30, 19.5 × at dim 60 and
19.1 × at dim 90. 18.8 copies and a fixed 48 kB (the sparse operators and
small objects) fit all three within 0.1 copy, so 19 copies bound the large
dims where the guard can refuse a run.
"""

_GATE_KEYS = frozenset({"n_qubits", "kerr", "alpha", "omega_p", "j_coupling", "delta",
                        "m_loops", "kappa", "gamma", "kappa0", "gamma0", "bus_rate",
                        "bus_dim", "kpo_dim", "kpo_levels"})
GRID_KEYS = {
    "gate_fidelity_sweep": _GATE_KEYS,
    "decoherence_sweep": _GATE_KEYS,
    "noise_stochastic": _GATE_KEYS | {"eps_s"},
    "noise_systematic": _GATE_KEYS | {"eps_a"},
    "switch_demo": _GATE_KEYS | {"eps_a", "scheme"},
    "combined_fig4": _GATE_KEYS | {"eps_a"},
    "cat_prep": frozenset({"alpha", "t0", "initial_fock"}),
    "single_qubit": frozenset({"t_gate", "target", "use_h_add"}),
}
"""The grid keys that each kind's computation reads; `seed` is accepted by
every kind, since it fills the `seed` column."""
KINDS = tuple(GRID_KEYS)

METRIC_COLUMNS = ("t_g", "f_avg", "f_out", "p_c", "chi_residual", "beta_total",
                  "bus_top", "josephson_trunc", "leakage", "rotation_error", "ramp_margin",
                  "runtime_s", "seed", "error")


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _resolve_value(entry, key: str) -> float:
    """Bare number, or {"value": v, "two_pi": bool} -> rad/us."""
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return float(entry)
    if isinstance(entry, dict):
        try:
            v = float(entry["value"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{key}: expected a number in 'value'") from None
        return 2.0 * np.pi * v if _two_pi_flag(entry) else v
    raise ConfigError(f"{key}: expected a number or {{value, two_pi}} object")


def _two_pi_flag(entry) -> bool:
    return isinstance(entry, dict) and _as_bool(entry.get("two_pi", False), "two_pi")


def _as_bool(v, key: str) -> bool:
    """A JSON boolean; any other value (the string "false", 0, 1, null) is an error."""
    if type(v) is bool:
        return v
    raise ConfigError(f"{key}: expected true or false, got {v!r}")


def _as_int(v, key: str) -> int:
    """An integer entry; a float counts only when it is integral (2.0, not 2.5)."""
    if type(v) is int or (isinstance(v, float) and v.is_integer()):  # a bool is not an int
        return int(v)
    raise ConfigError(f"{key}: expected an integer, got {v!r}")


def _section(spec: ExperimentSpec, name: str) -> dict:
    """The recipe's `name` object, {} when the recipe has none."""
    section = spec.raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be an object")
    return section


@dataclass
class ExperimentSpec:
    kind: str
    mode: str
    output: str
    raw: dict
    grid: dict[str, list] = field(default_factory=dict)
    seed: int = 0
    ceiling_bytes: int = DEFAULT_CEILING_BYTES

    @property
    def grid_keys(self) -> list[str]:
        return sorted(self.grid)

    def grid_points(self):
        keys = self.grid_keys
        if not keys:
            return
        for combo in product(*(self.grid[k] for k in keys)):
            yield dict(zip(keys, combo))


def load_spec(path: str | Path, mode_override: str | None = None,
              seed_override: int | None = None) -> ExperimentSpec:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(f"{path}: missing or unsupported 'version' (expected {CONFIG_VERSION})")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"{path}: unknown kind {kind!r}; expected one of {KINDS}")
    mode = mode_override or doc.get("mode", "full")
    if mode not in ("full", "effective"):
        raise ConfigError(f"{path}: mode must be 'full' or 'effective'")
    grid = doc.get("grid", {})
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError(f"{path}: 'grid' must map parameter names to lists")
    unread = set(grid) - GRID_KEYS[kind] - {"seed"}
    base = doc.get("config")
    if "alpha" in grid or (isinstance(base, dict) and "alpha" in base):
        unread |= {"omega_p"} & set(grid)  # the drive follows from alpha
    if unread:
        raise ConfigError(f"{path}: grid keys {sorted(unread)} are not read by kind {kind!r}")
    seed = doc.get("seed", 0) if seed_override is None else seed_override
    spec = ExperimentSpec(
        kind=kind,
        mode=mode,
        output=doc.get("output", f"{kind}.csv"),
        raw=doc,
        grid={k: list(v) for k, v in grid.items()},
        seed=_as_int(seed, "seed"),
        ceiling_bytes=_as_int(doc.get("resource_ceiling_bytes", DEFAULT_CEILING_BYTES),
                              "resource_ceiling_bytes"),
    )
    # the base and every grid point are resolved as they will run, so that a
    # value the computation cannot take fails here, before any point runs
    resolve = _SINGLE_MODE_ARGS.get(kind, _gate_run)
    for point in [{}, *spec.grid_points()]:
        try:
            resolve(spec, point)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: point {point}: {exc}") from None
    return spec


def build_gate_config(spec: ExperimentSpec, overrides: dict | None = None) -> GateConfig:
    c = spec.raw.get("config")
    if not isinstance(c, dict):
        raise ConfigError("'config' section is required and must be an object")
    overrides = dict(overrides or {})
    # joint sweep alias: one grid key driving both bus decay and bus dephasing
    if "bus_rate" in overrides:
        v = float(overrides.pop("bus_rate"))
        overrides["kappa0"] = v
        overrides["gamma0"] = v

    def get(key, default=None):
        if key in overrides:
            v = float(overrides[key])
            return 2.0 * np.pi * v if _two_pi_flag(c.get(key)) else v
        if key in c:
            return _resolve_value(c[key], key)
        return default

    def get_int(key, default=None):
        v = overrides.get(key, c.get(key, default))
        return None if v is None else _as_int(v, key)

    try:
        n_qubits = get_int("n_qubits", 2)
        kerr = get("kerr")
        j = get("j_coupling")
        if kerr is None or j is None:
            raise ConfigError("config requires 'kerr' and 'j_coupling'")
        m_loops = get_int("m_loops", 1)
        kw = dict(
            kappa=get("kappa", 0.0),
            gamma=get("gamma", 0.0),
            kappa0=get("kappa0", 0.0),
            gamma0=get("gamma0", 0.0),
            bus_dim=get_int("bus_dim", 10),
            kpo_dim=get_int("kpo_dim", 25),
            kpo_levels=get_int("kpo_levels"),
        )
        if "alpha" in c or "alpha" in overrides:
            alpha = float(overrides.get("alpha", c.get("alpha")))
            delta = get("delta")
            return GateConfig.from_alpha(
                n_qubits, kerr, alpha, j, m_loops=m_loops, delta=delta, **kw
            )
        omega_p = get("omega_p")
        delta = get("delta")
        if omega_p is None or delta is None:
            raise ConfigError("config requires 'alpha' or both 'omega_p' and 'delta'")
        return GateConfig(
            n_qubits=n_qubits, kerr=kerr, omega_p=omega_p, j_coupling=j,
            delta=delta, m_loops=m_loops, **kw
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from None


# --- resource accounting --------------------------------------------------------


@dataclass(frozen=True)
class ResourceEstimate:
    bytes_required: int
    density: bool
    copies: int = 1  # the working set of the run, in copies of the state


def estimate_resources(spec: ExperimentSpec) -> ResourceEstimate:
    """State-storage estimate for the largest grid point (complex128 entries).

    Gate kinds are sized by the model that run_gate builds at each grid
    point, from arithmetic on the config alone; a point is a density-matrix
    run when any decay rate, including one the grid sets, is positive.

    bytes_required counts one copy of the state. `run` compares the working
    set of a density run, `copies` copies of it, with the ceiling: the
    DENSITY_WORKING_SET of the Chebyshev series for a gate, the
    RAMP_WORKING_SET of the Dormand–Prince stepper for the lossy cat-prep
    ramp.
    """
    if spec.kind == "cat_prep":
        args = _cat_prep_args(spec, {})
        density = args["kappa"] > 0 or args["gamma"] > 0
        return ResourceEstimate((args["dim"] ** 2 if density else args["dim"]) * 16, density,
                                RAMP_WORKING_SET if density else 1)
    if spec.kind == "single_qubit":
        # the Josephson path propagates the dim × dim identity
        return ResourceEstimate(_single_qubit_args(spec, {})["dim"] ** 2 * 16, False)
    estimates = []
    for point in list(spec.grid_points()) or [{}]:
        cfg = build_gate_config(spec, point)
        dim = prod(gates.model_dims(cfg, spec.mode))
        density = any(r > 0 for r in (cfg.kappa, cfg.gamma, cfg.kappa0, cfg.gamma0))
        estimates.append(ResourceEstimate((dim * dim if density else dim) * 16, density,
                                          DENSITY_WORKING_SET if density else 1))
    return max(estimates, key=lambda e: e.copies * e.bytes_required)


# --- per-kind record computation ----------------------------------------------


def _base_record(point: dict, seed: int) -> dict:
    rec = dict(point)
    rec.update({k: "" for k in METRIC_COLUMNS})
    rec["seed"] = point.get("seed", seed)
    return rec


def _gate_metrics(rec: dict, result) -> None:
    rec["t_g"] = result.t_end
    if result.f_avg is not None:
        rec["f_avg"] = result.f_avg
    if result.f_out is not None:
        rec["f_out"] = result.f_out
    if result.p_c is not None:
        rec["p_c"] = result.p_c
    rec["chi_residual"] = result.chi_residual
    rec["beta_total"] = result.beta_total
    rec["bus_top"] = result.bus_top


def compute_record(spec: ExperimentSpec, point: dict) -> dict:
    """The CSV record of one grid point.

    A ConfigError propagates and aborts the sweep. Any other exception is
    reported on stderr and written to the record's `error` cell as
    "Type: message", with the metric cells left empty, so that the sweep
    keeps its other points.
    """
    t_start = time.perf_counter()
    try:
        rec = _metrics_record(spec, point)
    except ConfigError:
        raise
    except Exception as exc:  # one failed point must not lose the sweep
        print(f"grid point {point} failed:", file=sys.stderr)
        traceback.print_exc()
        rec = _base_record(point, spec.seed)
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["runtime_s"] = round(time.perf_counter() - t_start, 6)
    return rec


def _gate_run(spec: ExperimentSpec, point: dict) -> tuple[GateConfig, Schedule | None]:
    """The config and schedule of one gate point; None runs run_gate's constant loop.

    run_gate runs the schedule to its end, so a gate-time error is a schedule
    of the shortened length.
    """
    cfg = build_gate_config(spec, point)
    n = _section(spec, "noise")
    if spec.kind == "combined_fig4" and spec.mode == "full" and cfg.n_qubits > 2:
        raise ConfigError("combined_fig4 in full mode is limited to n_qubits <= 2")
    if spec.kind == "noise_stochastic":
        ns = noise.StochasticNoiseSpec(
            eps_s=float(point.get("eps_s", n.get("eps_s", 0.0))),
            seed=_as_int(point.get("seed", spec.seed), "seed"),
            n_events=_as_int(n.get("n_events", 1000), "noise.n_events"),
            targets=tuple(n.get("targets", ["J"])),
        )
        return cfg, noise.noisy_schedule(cfg, ns, gates.gate_time(cfg))
    if spec.kind == "noise_systematic":
        targets = n.get("targets", {"t_g": -1})
        if not isinstance(targets, dict):
            raise ConfigError("noise.targets must map each target to its sign")
        targets = {k: _as_int(v, f"noise.targets.{k}") for k, v in targets.items()}
        eps_a = float(point.get("eps_a", n.get("eps_a", 0.0)))
        return noise.apply_systematic(cfg, noise.SystematicNoiseSpec(eps_a, targets))
    if spec.kind not in ("switch_demo", "combined_fig4"):
        return cfg, None
    eps_a = float(point.get("eps_a", n.get("eps_a", 0.05)))
    if spec.kind == "switch_demo" and point.get("scheme", "switched") == "fixed":
        return cfg, Schedule.constant(cfg.delta, cfg.j_coupling,
                                      gates.gate_time(cfg) * (1.0 - eps_a))
    m_after = _as_int(_section(spec, "switch").get("m_after", 1), "switch.m_after")
    sched = gates.plan_detuning_switch(cfg, eps_a, m_after)
    if spec.kind == "combined_fig4":
        sys_spec = noise.SystematicNoiseSpec(eps_a, {"J": -1, "delta": -1})
        sched = noise.perturb_schedule(sched, sys_spec)
    # a -eps_a gate-time error stops the run exactly at the switch time
    return cfg, sched.clipped(sched.times[1])


def _cat_prep_args(spec: ExperimentSpec, point: dict) -> dict:
    """The arguments of protocols.run_cat_prep at one cat_prep point."""
    c = _section(spec, "config")
    args = dict(
        kerr=_resolve_value(c.get("kerr", 1.0), "kerr"),
        alpha=float(point.get("alpha", c.get("alpha", 2.0))),
        t0=float(point.get("t0", c.get("t0", 1.7))),
        initial_fock=_as_int(point.get("initial_fock", c.get("initial_fock", 0)), "initial_fock"),
        kappa=_resolve_value(c.get("kappa", 0.0), "kappa"),
        gamma=_resolve_value(c.get("gamma", 0.0), "gamma"),
        dim=_as_int(c.get("dim", 30), "dim"),
    )
    if not (args["kerr"] > 0 and args["alpha"] > 0 and args["t0"] > 0):
        raise ConfigError("cat_prep: kerr, alpha and t0 must be positive")
    if not (args["kappa"] >= 0 and args["gamma"] >= 0):
        raise ConfigError("cat_prep: kappa and gamma must be non-negative")
    if args["initial_fock"] not in (0, 1) or args["dim"] < 2:
        raise ConfigError("cat_prep: initial_fock must be 0 or 1, and dim at least 2")
    return args


def _single_qubit_args(spec: ExperimentSpec, point: dict) -> dict:
    """The arguments of protocols.run_single_qubit_gate at one single_qubit point."""
    c = _section(spec, "config")
    kerr = _resolve_value(c.get("kerr", 1.0), "kerr")
    alpha = float(c.get("alpha", 2.0))
    if not (kerr > 0 and alpha > 0):
        raise ConfigError("single_qubit: kerr and alpha must be positive")
    t_gate = float(point.get("t_gate", c.get("t_gate", 5.0 / kerr)))
    dim = _as_int(c.get("dim", 40), "dim")
    if not (t_gate > 0 and dim >= 2):
        raise ConfigError("single_qubit: t_gate must be positive, and dim at least 2")
    use_h_add = _as_bool(point.get("use_h_add", c.get("use_h_add", False)), "use_h_add")
    params = protocols.design_single_qubit_drive(
        str(point.get("target", c.get("target", "hadamard"))), alpha, t_gate, use_h_add)
    return dict(kerr=kerr, omega_p=kerr * alpha**2, params=params, use_h_add=use_h_add,
                t_gate=t_gate, dim=dim)


_SINGLE_MODE_ARGS = {"cat_prep": _cat_prep_args, "single_qubit": _single_qubit_args}
"""One reader per single-mode kind: (spec, point) -> the protocol's arguments.

load_spec, estimate_resources and _metrics_record all read a point through
it, so a value the protocol cannot run is a config error before any point runs.
"""


def _metrics_record(spec: ExperimentSpec, point: dict) -> dict:
    rec = _base_record(point, spec.seed)
    if spec.kind == "cat_prep":
        res = protocols.run_cat_prep(**_cat_prep_args(spec, point))
        rec["f_out"] = res.fidelity
        rec["ramp_margin"] = res.margin
    elif spec.kind == "single_qubit":
        args = _single_qubit_args(spec, point)
        res = protocols.run_single_qubit_gate(**args)
        rec["t_g"] = args["t_gate"]
        rec["f_avg"] = res.fidelity
        rec["leakage"] = res.leakage
        rec["rotation_error"] = res.rotation_error
        if res.josephson_trunc is not None:
            rec["josephson_trunc"] = res.josephson_trunc
    else:
        cfg, sched = _gate_run(spec, point)
        _gate_metrics(rec, gates.run_gate(cfg, schedule=sched, mode=spec.mode))
    return rec


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[dict]:
    """One record per grid point, in the order of spec.grid_points()."""
    points = list(spec.grid_points())
    if workers > 1 and len(points) > 1:
        # under fork, the pool starts all max_workers processes at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
            return list(pool.map(compute_record, [spec] * len(points), points))
    return [compute_record(spec, p) for p in points]


def write_outputs(spec: ExperimentSpec, records: list[dict], out_dir: str | Path,
                  wall_time_s: float) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / spec.output
    columns = spec.grid_keys + [c for c in METRIC_COLUMNS if c not in spec.grid_keys]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec.get(c, "")) for c in columns])

    import scipy

    from . import __version__

    manifest = {
        "config": spec.raw,
        "kind": spec.kind,
        "mode": spec.mode,
        "seed": spec.seed,
        "rng_algorithm": noise.RNG_ALGORITHM,
        "n_records": len(records),
        "wall_time_s": round(wall_time_s, 3),
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(csv_path.with_suffix(".manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path


def _fmt(v):
    # float() first: under NumPy 2 the repr of a NumPy scalar is "np.float64(…)"
    if isinstance(v, float):
        return repr(float(v))
    return v


def run(config_path: str, out_dir: str, workers: int = 1,
        seed_override: int | None = None, mode_override: str | None = None) -> int:
    t0 = time.perf_counter()
    try:
        spec = load_spec(config_path, mode_override, seed_override)
        est = estimate_resources(spec)
        working_set = est.copies * est.bytes_required
        if est.density and working_set > spec.ceiling_bytes:
            print(
                f"resource refusal: density-matrix run needs about {working_set} bytes "
                f"({est.copies} copies of rho at {est.bytes_required} bytes; "
                f"> ceiling {spec.ceiling_bytes})",
                file=sys.stderr,
            )
            return EXIT_RESOURCE
        records = run_experiment(spec, workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    csv_path = write_outputs(spec, records, out_dir, time.perf_counter() - t0)
    print(f"wrote {len(records)} records to {csv_path}")
    return EXIT_NUMERIC if any(rec["error"] for rec in records) else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a cat-qubit gate experiment recipe (JSON in, CSV out).",
    )
    parser.add_argument("--config", required=True, help="path to the JSON recipe")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=["full", "effective"], default=None)
    args = parser.parse_args(argv)
    return run(args.config, args.out, args.workers, args.seed, args.mode)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
