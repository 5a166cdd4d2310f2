"""Cat parities, cat-state amplitudes, computational basis states and state metrics."""
from __future__ import annotations

import enum
import warnings

import numpy as np

from .hilbert import annihilation


class CatParity(enum.Enum):
    EVEN = "even"  # |C+>
    ODD = "odd"  # |C->

    @property
    def sign(self) -> int:
        return +1 if self is CatParity.EVEN else -1


def single_mode_cat_vector(dim: int, alpha: float, parity: CatParity) -> np.ndarray:
    """Amplitudes of the cat N±[D(α) ± D(−α)]|0⟩ on an isolated dim-level mode.

    D(α)|0⟩ = exp(−iαp)|0⟩ with the Hermitian p = i(a† − a), from one eigh
    of p. The parity (−1)ⁿ maps a to −a, and so D(α) to D(−α), exactly in
    the truncated mode as well: D(α)|0⟩ ± D(−α)|0⟩ is twice the even (C+) or
    the odd (C−) Fock entries of D(α)|0⟩, which are kept and renormalised.
    """
    if alpha <= 0:
        raise ValueError("cat amplitude must be positive")
    a = annihilation((dim,), 0).toarray()
    if alpha > 0.5 * np.sqrt(dim):
        warnings.warn(f"displacement amplitude {alpha:.3g} is large for truncation {dim}",
                      stacklevel=2)
    w, vecs = np.linalg.eigh(1j * (a.conj().T - a))
    v = vecs @ (np.exp(-1j * alpha * w) * vecs[0].conj())  # D(α)|0⟩
    v[1 if parity is CatParity.EVEN else 0::2] = 0.0
    return v / np.linalg.norm(v)


def basis_state(bus_dim: int, cats: dict, n_qubits: int, k: int) -> np.ndarray:
    """|0⟩_bus ⊗ |C_p1⟩ ⊗ … ⊗ |C_pN⟩ of basis index k, with the bus leading.

    Qubit 1 is the most significant bit of k, and a set bit means |C−⟩.
    `cats` maps each CatParity to the KPO's amplitudes in its own basis.
    """
    if not 0 <= k < 2**n_qubits:
        raise ValueError("basis index out of range")
    v = np.zeros(bus_dim, dtype=complex)
    v[0] = 1.0
    for n in range(n_qubits - 1, -1, -1):
        v = np.kron(v, cats[CatParity.ODD if (k >> n) & 1 else CatParity.EVEN])
    return v


def fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """|⟨φ|ψ⟩|² for a state vector ψ, ⟨φ|ρ|φ⟩ for a density matrix ρ; φ is the pure target."""
    if state.ndim == 1:
        return float(abs(np.vdot(state, target)) ** 2)
    return float(np.real(np.vdot(target, state @ target)))
