"""Special-state constructors (coherent, cat, excited cat) and state metrics."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    DensityMatrix,
    HilbertSpace,
    SparseOperator,
    StateVector,
    apply,
    displacement,
)


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

    @classmethod
    def from_string(cls, s: str) -> "QubitBasisState":
        # e.g. "+-+" -> (EVEN, ODD, EVEN)
        table = {"+": CatParity.EVEN, "-": CatParity.ODD}
        return cls(tuple(table[c] for c in s))

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


def fock_state(space: HilbertSpace, multi) -> StateVector:
    v = np.zeros(space.dim, dtype=complex)
    v[space.flat_index(tuple(multi))] = 1.0
    return StateVector(space, v)


def coherent(space: HilbertSpace, mode, alpha: complex) -> StateVector:
    """|alpha> = D(alpha)|0> on one mode, vacuum elsewhere."""
    vac = fock_state(space, (0,) * space.n_modes)
    return apply(displacement(space, mode, alpha), vac).normalized()


def _single_mode_cat(dim: int, alpha: float, parity: CatParity, fock_seed: int) -> np.ndarray:
    """Amplitudes of N[D(a) ± D(-a)]|fock_seed> on a dim-level mode.

    For fock_seed=0 the ± sign is parity.sign (ground cats); for fock_seed=1
    the sign is flipped (displaced-Fock excited states).
    """
    from .hilbert import make_space

    sp1 = make_space([dim], ["a"])
    seed = np.zeros(dim, dtype=complex)
    seed[fock_seed] = 1.0
    dp = displacement(sp1, "a", alpha).matrix @ seed
    dm = displacement(sp1, "a", -alpha).matrix @ seed
    sign = parity.sign if fock_seed == 0 else -parity.sign
    v = dp + sign * dm
    # enforce exact Fock-support parity (cancellation leaves ~1e-17 residue)
    if parity is CatParity.EVEN:
        v[1::2] = 0.0
    else:
        v[0::2] = 0.0
    return v / np.linalg.norm(v)


def cat_state(space: HilbertSpace, mode, alpha: float, parity: CatParity) -> StateVector:
    """Even/odd cat state on one mode: N±[D(α) ± D(−α)]|0>, vacuum elsewhere."""
    if alpha <= 0:
        raise ValueError("cat amplitude must be positive")
    k = space.mode_index(mode)
    v = _single_mode_cat(space.mode_dims[k], alpha, parity, fock_seed=0)
    return _lift_single_mode(space, k, v)


def excited_cat(space: HilbertSpace, mode, alpha: float, parity: CatParity) -> StateVector:
    """First-excited manifold state N_e±[D(α) ∓ D(−α)]|ν=1>, vacuum elsewhere."""
    if alpha <= 0:
        raise ValueError("cat amplitude must be positive")
    k = space.mode_index(mode)
    v = _single_mode_cat(space.mode_dims[k], alpha, parity, fock_seed=1)
    return _lift_single_mode(space, k, v)


def _lift_single_mode(space: HilbertSpace, k: int, v: np.ndarray) -> StateVector:
    """Tensor a single-mode vector with vacuum on all other modes."""
    full = np.array([1.0 + 0j])
    for j, d in enumerate(space.mode_dims):
        if j == k:
            factor = v
        else:
            factor = np.zeros(d, dtype=complex)
            factor[0] = 1.0
        full = np.kron(full, factor)
    return StateVector(space, full)


def cat_normalization(alpha: float, parity: CatParity) -> float:
    """Closed-form N± = 1/sqrt(2(1 ± exp(-2α²)))."""
    return 1.0 / np.sqrt(2.0 * (1.0 + parity.sign * np.exp(-2.0 * alpha**2)))


def single_mode_cat_vector(dim: int, alpha: float, parity: CatParity) -> np.ndarray:
    """Normalized cat amplitudes on an isolated dim-level mode."""
    return _single_mode_cat(dim, alpha, parity, fock_seed=0)


def excited_cat_exact(space: HilbertSpace, mode, kerr_op: SparseOperator, parity: CatParity) -> StateVector:
    """Validation variant: first-excited eigenvector of a single-mode Kerr Hamiltonian.

    kerr_op must act on `space`; returns the eigenvector of matching photon
    parity closest below the cat manifold.
    """
    h = kerr_op.to_dense()
    w, vecs = np.linalg.eigh(h)
    k = space.mode_index(mode)
    dim = space.mode_dims[k]
    parity_sign = np.array([(-1) ** n for n in range(dim)])
    want = parity.sign
    # eigenvalues sorted ascending; cat manifold sits at the top (negative Kerr)
    idx = [i for i in range(len(w)) if _fock_parity(vecs[:, i], parity_sign) == want]
    # first excited of that parity = second from the top of the manifold ladder
    return StateVector(space, vecs[:, idx[-2]])


def _fock_parity(vec: np.ndarray, parity_sign: np.ndarray) -> int:
    p = np.sum(parity_sign * np.abs(vec) ** 2)
    return 1 if p > 0 else -1


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
        v = _single_mode_cat(space.mode_dims[k + 1], config.alpha, p, fock_seed=0)
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
