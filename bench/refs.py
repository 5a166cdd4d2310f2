"""Coherent references for `gate_coherent` and the fig2a point of `gate_lindblad`.

    python3 bench/refs.py          # recompute and write bench/refs.json

Run from the repository root. Each reference is made without catms: the
rotating-frame generator Δa0†a0 + Σ H_K,n + J Σ(a_n a0† + h.c.) is built
densely with NumPy (for a Kerr-level recipe, in each KPO's top `kpo_levels`
Kerr eigenstates), diagonalised with `numpy.linalg.eigh`, and the
computational columns are propagated to t_g = 2πm/Δ. refs.json stores the
recipe parameters each reference was made from; `Refs.lookup` refuses one
whose parameters no longer match the generated recipe.
"""
from __future__ import annotations

import json
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.integrate import trapezoid

import checks
import workloads

REFS_PATH = Path(__file__).with_name("refs.json")
REFERENCED = {"gate_coherent": ("fig1a_fidelity_vs_coupling",),
              "gate_lindblad": ("fig2a_bus_decoherence",)}


class StaleReference(RuntimeError):
    """refs.json does not hold a reference for the generated recipe."""


class Refs:
    def __init__(self, entries: list[dict]):
        self.entries = entries

    @classmethod
    def load(cls, path: Path = REFS_PATH) -> "Refs":
        return cls(json.loads(path.read_text())["entries"])

    def lookup(self, recipe: str, point: dict, params: dict) -> dict:
        for e in self.entries:
            if e["recipe"] == recipe and e["point"] == point:
                if e["inputs"] != params:
                    raise StaleReference(
                        f"{recipe} {point}: refs.json was made from {e['inputs']}, "
                        f"the recipe now gives {params}; run python3 bench/refs.py")
                return e
        raise StaleReference(f"{recipe} {point}: no reference; run python3 bench/refs.py")


def _kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def gate_model(p: dict):
    """(H, n0 diagonal, |C+>, |C->, KPO level count) of the rotating-frame generator."""
    n, bus, dim = p["n_qubits"], p["bus_dim"], p["kpo_dim"]
    hk = checks.kerr_hamiltonian(p["kerr"], p["kerr"] * p["alpha"] ** 2, dim)
    a = checks.destroy(dim)
    even, odd = checks.cat_vectors(dim, p["alpha"])
    if p["kpo_levels"] is not None:
        w, v = np.linalg.eigh(hk)
        top = np.argsort(w)[::-1][: p["kpo_levels"]]
        v = v[:, top]
        hk, a = np.diag(w[top]).astype(complex), v.conj().T @ a @ v
        even, odd = v.conj().T @ even, v.conj().T @ odd
        even, odd = even / np.linalg.norm(even), odd / np.linalg.norm(odd)
    levels = hk.shape[0]
    eye_k = np.eye(levels)
    a0 = checks.destroy(bus)
    n0 = np.arange(bus, dtype=float)
    h = p["delta"] * _kron_all([np.diag(n0)] + [eye_k] * n)
    for q in range(n):
        ops = [np.eye(bus)] + [eye_k] * n
        ops[q + 1] = hk
        h = h + _kron_all(ops)
        ops = [a0.conj().T] + [eye_k] * n
        ops[q + 1] = a
        cross = _kron_all(ops)
        h = h + p["j"] * (cross + cross.conj().T)
    n0_diag = np.repeat(n0, levels**n)
    return h, n0_diag, even, odd, levels


def basis_columns(p, even, odd) -> np.ndarray:
    """Computational columns |0>_bus ⊗ |C_p1> ⊗ ...; first qubit most significant,
    |C+> = 0."""
    bus = np.zeros(p["bus_dim"])
    bus[0] = 1.0
    cols = [_kron_all([bus[:, None]] + [(odd if b else even)[:, None] for b in bits])[:, 0]
            for bits in product((0, 1), repeat=p["n_qubits"])]
    return np.stack(cols, axis=1)


def ms_target(n_qubits: int) -> np.ndarray:
    """exp(+i(π/2)S_x²) on the 2^N qubit space."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    total = sum(_kron_all([sx if k == q else np.eye(2) for k in range(n_qubits)])
                for q in range(n_qubits)) / 2.0
    return scipy.linalg.expm(1j * (np.pi / 2.0) * (total @ total))


def coherent_reference(p: dict, n_grid: int = 2001) -> dict:
    h, n0, even, odd, levels = gate_model(p)
    t_g = 2.0 * np.pi * p["m_loops"] / p["delta"]
    w, v = np.linalg.eigh(h)
    cols = basis_columns(p, even, odd)
    unrotate = np.exp(1j * p["delta"] * t_g * n0)[:, None]
    final = unrotate * (v @ (np.exp(-1j * w * t_g)[:, None] * (v.conj().T @ cols)))
    target = ms_target(p["n_qubits"])
    out = {"f_avg": checks.average_fidelity(target.conj().T @ (cols.conj().T @ final))}
    if p["kappa0"] or p["gamma0"]:
        # input all-|C+>: F_out, P_C, and the bus-dissipation bound along σ(t)
        psi = final[:, 0]
        tgt = cols @ target[:, 0]
        out["f_out"] = float(abs(np.vdot(tgt, psi)) ** 2)
        cat_rows = np.stack([even.conj(), odd.conj()])
        amap = _kron_all([np.eye(p["bus_dim"])] + [cat_rows] * p["n_qubits"])
        out["p_c"] = float(np.linalg.norm(amap @ psi) ** 2)
        t = np.linspace(0.0, t_g, n_grid)
        c0 = v.conj().T @ cols[:, 0]
        states = v @ (np.exp(-1j * np.outer(w, t)) * c0[:, None])
        prob = np.abs(states) ** 2
        m1, m2, m4 = (n0 @ prob, n0**2 @ prob, n0**4 @ prob)
        rate = [checks.dissipation_rate(p["kappa0"], p["gamma0"], (a, b, c))
                for a, b, c in zip(m1, m2, m4)]
        out["bound"] = float(trapezoid(rate, t))
    return out


def main() -> int:
    root = Path.cwd()
    configs = root / "configs"
    if not configs.is_dir():
        print("run from the repository root (no configs/ here)", file=sys.stderr)
        return 2
    entries = []
    for wl, names in REFERENCED.items():
        for r in workloads.workload(wl, 0):
            if r.name not in names:
                continue
            doc = r.document(configs)
            for point in r.points():
                params = checks.gate_params(doc, point)
                t0 = time.perf_counter()
                values = coherent_reference(params)
                print(f"{r.name} {point}: {values} ({time.perf_counter() - t0:.1f} s)")
                entries.append({"recipe": r.name, "point": point, "inputs": params, **values})
    REFS_PATH.write_text(json.dumps({
        "method": "dense numpy.linalg.eigh of the rotating-frame generator; "
                  "see bench/refs.py",
        "numpy": np.__version__,
        "entries": entries,
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
