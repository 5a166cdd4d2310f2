"""Stochastic and systematic parameter-imperfection machinery.

Randomness comes from a seeded counter-based generator (numpy Philox,
algorithm id "philox4x64"), so traces are reproducible bit-for-bit from
(seed, spec) alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import gate_time
from .model import GateConfig, Schedule

RNG_ALGORITHM = "philox4x64"

_STOCHASTIC_TARGETS = ("J", "delta")
_SYSTEMATIC_TARGETS = ("J", "delta", "alpha", "t_g")


@dataclass(frozen=True)
class StochasticNoiseSpec:
    """Fast parameter fluctuations: n_events equal-width random levels over the gate."""

    eps_s: float
    seed: int
    n_events: int = 1000
    targets: tuple[str, ...] = ("J",)

    def __post_init__(self):
        if self.eps_s < 0:
            raise ValueError("eps_s must be non-negative")
        if self.n_events < 1:
            raise ValueError("n_events must be >= 1")
        for t in self.targets:
            if t not in _STOCHASTIC_TARGETS:
                raise ValueError(f"unknown stochastic target {t!r}")


@dataclass(frozen=True)
class SystematicNoiseSpec:
    """Constant relative offsets: parameter -> parameter * (1 + sign * eps_a)."""

    eps_a: float
    targets: dict[str, int] = field(default_factory=dict)  # name -> sign (+1/-1)

    def __post_init__(self):
        if not abs(self.eps_a) < 1:
            raise ValueError("|eps_a| must be < 1")
        for name, sign in self.targets.items():
            if name not in _SYSTEMATIC_TARGETS:
                raise ValueError(f"unknown systematic target {name!r}")
            if sign not in (+1, -1):
                raise ValueError("target sign must be +1 or -1")


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def noisy_schedule(config: GateConfig, spec: StochasticNoiseSpec, t_g: float) -> Schedule:
    """Schedule with independent random levels on each target, fixed draw order.

    Draw order is the canonical target order (J, then delta) from a single
    generator, so joint-noise runs are reproducible.
    """
    rng = _generator(spec.seed)
    times = np.linspace(0.0, t_g, spec.n_events + 1)
    j_vals = np.full(spec.n_events, config.j_coupling)
    d_vals = np.full(spec.n_events, config.delta)
    for name in _STOCHASTIC_TARGETS:
        if name not in spec.targets:
            continue
        u = rng.uniform(-spec.eps_s, spec.eps_s, spec.n_events)
        if name == "J":
            j_vals = j_vals * (1.0 + u)
        else:
            d_vals = d_vals * (1.0 + u)
    return Schedule(times, d_vals, j_vals)


def apply_systematic(config: GateConfig, spec: SystematicNoiseSpec) -> tuple[GateConfig, Schedule]:
    """Perturbed copy of the config, and the constant loop that it runs.

    The loop runs at the perturbed (Δ, J) for the perturbed config's
    gate_time, which a t_g target scales by (1 + sign * eps_a). An alpha
    target scales the drive so that alpha itself scales by the factor.
    """
    kw = {}
    t_factor = 1.0
    for name, sign in spec.targets.items():
        factor = 1.0 + sign * spec.eps_a
        if factor <= 0:
            raise ValueError(f"perturbation drives {name} non-positive")
        if name == "J":
            kw["j_coupling"] = config.j_coupling * factor
        elif name == "delta":
            kw["delta"] = config.delta * factor
        elif name == "alpha":
            kw["omega_p"] = config.omega_p * factor**2
        elif name == "t_g":
            t_factor = factor
    out = config.replace(**kw)
    return out, Schedule.constant(out.delta, out.j_coupling, gate_time(out) * t_factor)


def perturb_schedule(schedule: Schedule, spec: SystematicNoiseSpec) -> Schedule:
    """Apply the J/delta systematic offsets to an explicit multi-segment schedule.

    t_g and alpha targets are not schedule-level quantities and are rejected.
    """
    for name in spec.targets:
        if name not in ("J", "delta"):
            raise ValueError(f"target {name!r} is not a schedule-level parameter")
    d = schedule.delta.copy()
    j = schedule.j_coupling.copy()
    if "delta" in spec.targets:
        d = d * (1.0 + spec.targets["delta"] * spec.eps_a)
    if "J" in spec.targets:
        j = j * (1.0 + spec.targets["J"] * spec.eps_a)
    return Schedule(schedule.times, d, j)
