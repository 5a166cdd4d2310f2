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

from .hilbert import SparseOperator, annihilation


@dataclass(frozen=True)
class GateConfig:
    """All physical parameters of the multiqubit gate (rad/us units).

    alpha is derived from the drive: alpha = sqrt(omega_p / kerr).
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
        if self.bus_dim < 2 or self.kpo_dim < 2:
            raise ValueError("bus_dim and kpo_dim must be >= 2")
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

    def replace(self, **kw) -> "GateConfig":
        return replace(self, **kw)


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
        """The schedule cut at t_end, which must lie in (0, self.t_end]."""
        if not 0 < t_end <= self.t_end:
            raise ValueError("t_end must lie in (0, schedule end]")
        k = self.segment_index(t_end)
        if t_end <= self.times[k]:
            # t_end falls exactly on a breakpoint: drop the later segments
            return Schedule(self.times[: k + 1].copy(),
                            self.delta[:k], self.j_coupling[:k])
        times = np.concatenate([self.times[: k + 1], [t_end]])
        return Schedule(times, self.delta[: k + 1], self.j_coupling[: k + 1])


@dataclass(frozen=True)
class CollapseChannel:
    """Lindblad channel: contributes rate * D[op.matrix] to the master equation."""

    rate: float
    op: SparseOperator


# --- Hamiltonian builders ----------------------------------------------------


def h_kerr_single(kerr: float, omega_p: float, dim: int) -> sp.csr_matrix:
    """-K a†²a² + Ωp(a² + a†²) on an isolated mode."""
    a = annihilation((dim,), 0)
    a2 = a @ a
    a2d = a2.conj().T.tocsr()
    return (-kerr) * (a2d @ a2) + omega_p * (a2 + a2d)


def kerr_level_isometry(kerr: float, omega_p: float, dim: int, n_levels: int):
    """(energies, isometry) of the n_levels highest single-KPO eigenstates.

    The cat manifold sits at the top of the Kerr spectrum, so the columns
    start with the two cat states and continue down the excited manifolds.
    The isometry maps the reduced level basis back into the Fock basis.

    The Hamiltonian conserves photon-number parity, so its even and odd Fock
    blocks are diagonalised apart and every level lies in one parity. One
    eigh over the whole matrix would mix the parities through the nearly
    degenerate cat pair (split by 2.0e-7 K at α = 2 in 22 Fock levels).
    """
    if not 2 <= n_levels <= dim:
        raise ValueError("n_levels must lie in [2, dim]")
    hk = h_kerr_single(kerr, omega_p, dim).toarray()
    w = np.empty(dim)
    v = np.zeros((dim, dim), dtype=complex)
    for parity in (0, 1):
        block = np.ix_(range(parity, dim, 2), range(parity, dim, 2))
        w[parity::2], v[block] = np.linalg.eigh(hk[block])
    order = np.argsort(w)[::-1][:n_levels]
    return w[order], np.ascontiguousarray(v[:, order])
