"""Cat-qubit basis labels, cat-state amplitudes and state metrics."""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .hilbert import displacement


class CatParity(enum.Enum):
    EVEN = "even"  # |C+>
    ODD = "odd"  # |C->

    @property
    def sign(self) -> int:
        return +1 if self is CatParity.EVEN else -1


@dataclass(frozen=True)
class QubitBasisState:
    """Computational basis label: one cat parity per qubit; the bus is in vacuum."""

    parities: tuple[CatParity, ...]

    @property
    def index(self) -> int:
        """Binary index with EVEN=0, ODD=1, first qubit most significant."""
        idx = 0
        for p in self.parities:
            idx = 2 * idx + (0 if p is CatParity.EVEN else 1)
        return idx


def all_basis_states(n_qubits: int) -> list[QubitBasisState]:
    out = []
    for k in range(2**n_qubits):
        bits = [(k >> (n_qubits - 1 - i)) & 1 for i in range(n_qubits)]
        out.append(QubitBasisState(tuple(CatParity.ODD if b else CatParity.EVEN for b in bits)))
    return out


def single_mode_cat_vector(dim: int, alpha: float, parity: CatParity) -> np.ndarray:
    """Amplitudes of the cat N±[D(α) ± D(−α)]|0⟩ on an isolated dim-level mode."""
    if alpha <= 0:
        raise ValueError("cat amplitude must be positive")
    # D(±α)|0⟩ is column 0 of D(±α)
    v = displacement(dim, alpha)[:, 0] + parity.sign * displacement(dim, -alpha)[:, 0]
    # enforce exact Fock-support parity (cancellation leaves ~1e-17 residue)
    if parity is CatParity.EVEN:
        v[1::2] = 0.0
    else:
        v[0::2] = 0.0
    return v / np.linalg.norm(v)


def basis_state(config, qbs: QubitBasisState) -> np.ndarray:
    """|0⟩_bus ⊗ |C_p1⟩ ⊗ … in the Fock basis of GateModel.fock(config).

    config provides bus_dim, kpo_dim, n_qubits and alpha; see model.GateConfig.
    """
    if len(qbs.parities) != config.n_qubits:
        raise ValueError("parity count does not match qubit count")
    full = np.zeros(config.bus_dim, dtype=complex)
    full[0] = 1.0
    for p in qbs.parities:
        full = np.kron(full, single_mode_cat_vector(config.kpo_dim, config.alpha, p))
    return full


def fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """|⟨φ|ψ⟩|² for a state vector ψ, ⟨φ|ρ|φ⟩ for a density matrix ρ; φ is the pure target."""
    if state.ndim == 1:
        return float(abs(np.vdot(state, target)) ** 2)
    return float(np.real(np.vdot(target, state @ target)))
