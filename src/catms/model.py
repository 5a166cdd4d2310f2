"""Gate configuration, schedules and Hamiltonians.

Units: all rates and angular frequencies are rad/us. A parameter quoted as
"X/2pi = v MHz" enters as X = 2*pi*v; a bare "kappa = v MHz" enters as
kappa = v (no 2*pi). The CLI config carries an explicit two_pi flag per
parameter so the convention is auditable.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .hilbert import (
    HilbertSpace,
    SparseOperator,
    annihilation,
    dagger,
    make_space,
    tensor_embed,
)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GateConfig:
    """All physical parameters of the multiqubit gate (rad/us units).

    alpha is derived from the drive: alpha = sqrt(omega_p / kerr).
    t_gate_factor scales the actual evolution horizon relative to the
    planned schedule (used for systematic gate-time imperfections).
    """

    n_qubits: int
    kerr: float  # K
    omega_p: float  # two-photon drive amplitude
    j_coupling: float  # J
    delta: float  # bus-KPO detuning
    m_loops: int = 1
    kappa0: float = 0.0
    gamma0: float = 0.0
    kappa: float = 0.0
    gamma: float = 0.0
    bus_dim: int = 10
    kpo_dim: int = 25
    kpo_levels: int | None = None
    t_gate_factor: float = 1.0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one KPO")
        for name in ("kerr", "omega_p", "j_coupling", "delta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("kappa0", "gamma0", "kappa", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.m_loops < 1:
            raise ValueError("m_loops must be >= 1")
        if self.kpo_levels is not None and not 2 <= self.kpo_levels <= self.kpo_dim:
            raise ValueError("kpo_levels must lie in [2, kpo_dim]")

    @classmethod
    def from_alpha(cls, n_qubits, kerr, alpha, j_coupling, m_loops=1, delta=None, **kw):
        """Build from the cat amplitude; delta defaults to the resonance value."""
        omega_p = kerr * alpha**2
        if delta is None:
            delta = 4.0 * np.sqrt(m_loops) * j_coupling * alpha
        return cls(
            n_qubits=n_qubits,
            kerr=kerr,
            omega_p=omega_p,
            j_coupling=j_coupling,
            delta=delta,
            m_loops=m_loops,
            **kw,
        )

    @property
    def alpha(self) -> float:
        return float(np.sqrt(self.omega_p / self.kerr))

    @cached_property
    def space(self) -> HilbertSpace:
        """Full space: bus first, then the N KPO modes."""
        dims = [self.bus_dim] + [self.kpo_dim] * self.n_qubits
        labels = ["a0"] + [f"a{n}" for n in range(1, self.n_qubits + 1)]
        return make_space(dims, labels)

    @cached_property
    def qubit_space(self) -> HilbertSpace:
        """Reduced space: bus mode plus one two-level system per KPO."""
        dims = [self.bus_dim] + [2] * self.n_qubits
        labels = ["a0"] + [f"q{n}" for n in range(1, self.n_qubits + 1)]
        return make_space(dims, labels)

    def replace(self, **kw) -> "GateConfig":
        out = replace(self, **kw)
        return out


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant detuning and coupling over [0, t_end] (times in us).

    The accumulated coupling phase is the integral of delta, so a detuning
    switch keeps the interaction phase continuous across the breakpoint.
    """

    times: np.ndarray  # breakpoints, length M+1, times[0] == 0
    delta: np.ndarray  # per-segment detuning, length M
    j_coupling: np.ndarray  # per-segment coupling, length M

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        j = np.asarray(self.j_coupling, dtype=float)
        if t.ndim != 1 or len(t) < 2 or t[0] != 0.0:
            raise ValueError("breakpoints must start at 0 and contain >= 2 entries")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(d) != len(t) - 1 or len(j) != len(t) - 1:
            raise ValueError("per-segment arrays must have len(times) - 1 entries")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "j_coupling", j)

    @classmethod
    def constant(cls, delta: float, j_coupling: float, t_end: float) -> "Schedule":
        return cls(np.array([0.0, t_end]), np.array([delta]), np.array([j_coupling]))

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @cached_property
    def _phase_bp(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.delta * np.diff(self.times))])

    def phase(self, t: float) -> float:
        """Accumulated coupling phase integral of delta over [0, t]."""
        k = self.segment_index(t)
        return float(self._phase_bp[k] + self.delta[k] * (t - self.times[k]))

    def segment_index(self, t: float) -> int:
        if t < 0 or t > self.t_end + 1e-12:
            raise ValueError("time outside schedule span")
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(k, 0), len(self.delta) - 1)

    def segments(self):
        """Yield (t0, t1, delta, j, phase_at_t0) per segment."""
        for k in range(len(self.delta)):
            yield (
                float(self.times[k]),
                float(self.times[k + 1]),
                float(self.delta[k]),
                float(self.j_coupling[k]),
                float(self._phase_bp[k]),
            )

    def clipped(self, t_end: float) -> "Schedule":
        """Restrict (or extend the last segment) to a new end time."""
        if t_end <= 0:
            raise ValueError("t_end must be positive")
        if t_end >= self.t_end:
            times = self.times.copy()
            times[-1] = t_end
            return Schedule(times, self.delta, self.j_coupling)
        k = self.segment_index(t_end)
        if t_end <= self.times[k]:
            # t_end falls exactly on a breakpoint: drop the later segments
            return Schedule(self.times[: k + 1].copy(),
                            self.delta[:k], self.j_coupling[:k])
        times = np.concatenate([self.times[: k + 1], [t_end]])
        return Schedule(times, self.delta[: k + 1], self.j_coupling[: k + 1])


@dataclass(frozen=True)
class CollapseChannel:
    """Lindblad channel: contributes rate * D[op] to the master equation."""

    rate: float
    op: SparseOperator


# --- Hamiltonian builders ----------------------------------------------------


def h_kerr_single(kerr: float, omega_p: float, dim: int) -> SparseOperator:
    """-K a†²a² + Ωp(a² + a†²) on an isolated mode."""
    space = make_space([dim], ["a"])
    a = annihilation(space, "a")
    a2 = a @ a
    return (-kerr) * (dagger(a2) @ a2) + omega_p * (a2 + dagger(a2))


def kerr_level_isometry(kerr: float, omega_p: float, dim: int, n_levels: int):
    """(energies, isometry) of the n_levels highest single-KPO eigenstates.

    The cat manifold sits at the top of the Kerr spectrum, so the columns
    start with the two cat states and continue down the excited manifolds.
    The isometry maps the reduced level basis back into the Fock basis.
    """
    if not 2 <= n_levels <= dim:
        raise ValueError("n_levels must lie in [2, dim]")
    hk = h_kerr_single(kerr, omega_p, dim).to_dense()
    w, v = np.linalg.eigh(hk)
    order = np.argsort(w)[::-1][:n_levels]
    return w[order].copy(), np.ascontiguousarray(v[:, order])


# --- qubit-level (cat-manifold) operators ------------------------------------

_SX = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
_SY = sp.csr_matrix(np.array([[0, 1j], [-1j, 0]], dtype=complex))
_SZ = sp.csr_matrix(np.array([[-1, 0], [0, 1]], dtype=complex))
# basis convention: index 0 = |C+>, index 1 = |C->; sigma+ = |C-><C+|.


def pauli(space: HilbertSpace, n: int, which: str) -> SparseOperator:
    """Pauli operator of qubit n (1-based) embedded in a qubit-level space."""
    mat = {"x": _SX, "y": _SY, "z": _SZ}[which]
    single = SparseOperator(make_space([2], ["q"]), mat)
    return tensor_embed(single, space, f"q{n}")


def sx_total(config: GateConfig) -> SparseOperator:
    """S_x = (1/2) Σ_n σ_n^x on the qubit-level space."""
    space = config.qubit_space
    out = None
    for n in range(1, config.n_qubits + 1):
        p = pauli(space, n, "x")
        out = p if out is None else out + p
    return 0.5 * out


def h_eff_spin_boson(config: GateConfig, t: float, phase: float | None = None) -> SparseOperator:
    """Cat-manifold effective Hamiltonian 2Jα S_x (a0 e^{-iΔt} + a0† e^{iΔt})."""
    ph = config.delta * t if phase is None else phase
    space = config.qubit_space
    a0 = annihilation(space, "a0")
    bus = np.exp(-1j * ph) * a0 + np.exp(1j * ph) * dagger(a0)
    return (2.0 * config.j_coupling * config.alpha) * (sx_total(config) @ bus)
