"""Cat-qubit basis labels, cat-state amplitudes and state metrics."""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityMatrix, StateVector, displacement, make_space


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
    sp1 = make_space([dim], ["a"])
    seed = np.zeros(dim, dtype=complex)
    seed[0] = 1.0
    dp = displacement(sp1, "a", alpha).matrix @ seed
    dm = displacement(sp1, "a", -alpha).matrix @ seed
    v = dp + parity.sign * dm
    # enforce exact Fock-support parity (cancellation leaves ~1e-17 residue)
    if parity is CatParity.EVEN:
        v[1::2] = 0.0
    else:
        v[0::2] = 0.0
    return v / np.linalg.norm(v)


def basis_state(config, qbs: QubitBasisState) -> StateVector:
    """Computational basis state |0>_bus ⊗ |C_p1> ⊗ ... on config.space.

    config provides .space (bus first) and .alpha; see model.GateConfig.
    """
    space = config.space
    if len(qbs.parities) != space.n_modes - 1:
        raise ValueError("parity count does not match qubit count")
    bus = np.zeros(space.mode_dims[0], dtype=complex)
    bus[0] = 1.0
    full = bus
    for k, p in enumerate(qbs.parities):
        v = single_mode_cat_vector(space.mode_dims[k + 1], config.alpha, p)
        full = np.kron(full, v)
    return StateVector(space, full)


def overlap(psi: StateVector, phi: StateVector) -> complex:
    """⟨psi|phi⟩."""
    if psi.space != phi.space:
        raise ValueError("state spaces do not match")
    return psi.dagger_dot(phi)


def fidelity(state, target: StateVector) -> float:
    """|⟨ψ|φ⟩|² for pure states, ⟨φ|ρ|φ⟩ for a density matrix against a pure target."""
    if state.space != target.space:
        raise ValueError("state spaces do not match")
    if isinstance(state, StateVector):
        return float(abs(overlap(state, target)) ** 2)
    if isinstance(state, DensityMatrix):
        v = target.amplitudes
        return float(np.real(np.vdot(v, state.entries @ v)))
    raise TypeError("state must be a StateVector or DensityMatrix")
