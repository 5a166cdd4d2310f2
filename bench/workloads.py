"""The benchmark's workloads: recipe files generated from `configs/*.json`.

Each workload is a list of recipes. A recipe starts from one shipped config,
replaces its grid (and, for a variant, a few config entries) and is written
to a file that `catms.cli.run` reads. The workload seed only picks the
Philox keys of `noisy_sweep`; every other workload has the same inputs for
every seed, so that a run's cost does not depend on its seed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Recipe:
    name: str  # stem of the shipped config, of the recipe file and of its CSV
    grid: dict
    config: dict = field(default_factory=dict)
    workers: int = 1

    def document(self, configs_dir: Path) -> dict:
        doc = json.loads((configs_dir / f"{self.name}.json").read_text())
        doc["config"].update(self.config)
        doc["grid"] = self.grid
        doc["output"] = f"{self.name}.csv"
        return doc

    def points(self) -> list[dict]:
        """Grid points in the order `catms.cli` enumerates them (sorted keys)."""
        keys = sorted(self.grid)
        out = [{}]
        for k in keys:
            out = [{**p, k: v} for p in out for v in self.grid[k]]
        return out


# Why each workload, and what it stresses, is in README.md.
NOISE_SEEDS_PER_EPS = 2
NOISY_EPS = [0.05, 0.1]
NOISY_WORKERS = 2


def noise_seeds(seed: int) -> list[int]:
    """Philox keys of the noisy sweep, drawn from the workload seed."""
    return sorted(random.Random(seed).sample(range(1, 2**31), NOISE_SEEDS_PER_EPS))


def workload(name: str, seed: int) -> list[Recipe]:
    if name == "gate_coherent":
        return [
            Recipe("fig1a_fidelity_vs_coupling", {"j_coupling": [1.0]}),
            Recipe("fig3b_switch",
                   {"scheme": ["fixed", "switched"], "eps_a": [0.01, 0.02, 0.05]}),
        ]
    if name == "gate_lindblad":
        return [
            Recipe("fig4_output_fidelity", {"n_qubits": [2]}),
            Recipe("fig2a_bus_decoherence", {"bus_rate": [0.1]}, {"kpo_levels": 4}),
        ]
    if name == "single_kpo":
        return [
            Recipe("figs1_cat_prep", {"t0": [1.7], "initial_fock": [0]}),
            Recipe("figs2_single_qubit", {"target": ["hadamard", "not"],
                                          "use_h_add": [False, True], "t_gate": [0.5]}),
        ]
    if name == "noisy_sweep":
        grid = {"eps_s": NOISY_EPS, "seed": noise_seeds(seed)}
        return [
            Recipe("fig3a_stochastic_j", grid, workers=NOISY_WORKERS),
            Recipe("fig3a_stochastic_joint", grid, workers=NOISY_WORKERS),
        ]
    raise KeyError(name)


WORKLOADS = ("gate_coherent", "gate_lindblad", "single_kpo", "noisy_sweep")


def write_recipes(recipes: list[Recipe], configs_dir: Path, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for r in recipes:
        p = out_dir / f"{r.name}.json"
        p.write_text(json.dumps(r.document(configs_dir), indent=2, sort_keys=True))
        paths.append(p)
    return paths
