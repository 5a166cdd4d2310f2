"""Closed-form MS-gate geometry, detuning-switch planning, gate runs and metrics."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np
import scipy.sparse as sp

from .dynamics import evolve_density, propagate_piecewise
from .hilbert import SparseOperator, annihilation, number_op, tensor_embed
from .model import CollapseChannel, GateConfig, Schedule, h_kerr_single, kerr_level_isometry
from .states import CatParity, basis_state, fidelity, single_mode_cat_vector


# --- closed-form loop geometry ------------------------------------------------


def chi(t: float, config: GateConfig) -> complex:
    """Bus displacement χ(t) = (2iJα/Δ)(1 − e^{iΔt})."""
    d = config.delta
    return (2j * config.j_coupling * config.alpha / d) * (1.0 - np.exp(1j * d * t))


def beta(t: float, config: GateConfig) -> float:
    """Geometric phase β(t) = (2Jα/Δ)²(sin Δt − Δt)."""
    d = config.delta
    r = 2.0 * config.j_coupling * config.alpha / d
    return float(r**2 * (np.sin(d * t) - d * t))


def gate_time(config: GateConfig) -> float:
    """t_g = 2mπ/Δ (us)."""
    return 2.0 * np.pi * config.m_loops / config.delta


def loop_trajectory(schedule: Schedule, alpha: float, t: float) -> tuple[complex, float]:
    """(χ, β) at time t for a piecewise-constant (Δ, J) schedule.

    χ follows dχ/dt = 2J(t)α e^{iφ(t)} with the accumulated phase φ = ∫Δ;
    β is the exact double-integral geometric phase, accumulated analytically
    per segment. Every segment that starts before t adds its closed-form
    increments, computed for all segments at once; the sums run in segment
    order (np.cumsum), as a loop over the segments would add them.
    """
    k = int(np.searchsorted(schedule.times[:-1], t, side="left"))  # segments with t0 < t
    u = np.minimum(t, schedule.times[1:k + 1]) - schedule.times[:k]
    g = 2.0 * schedule.j_coupling[:k] * alpha * np.exp(1j * schedule._phase_bp[:k])
    flat = np.abs(schedule.delta[:k]) < 1e-14
    d = np.where(flat, 1.0, schedule.delta[:k])  # Δ = 0 takes the u-linear forms
    chi_acc = np.cumsum(np.concatenate(
        [[0j], np.where(flat, g * u, g * (np.exp(1j * d * u) - 1.0) / (1j * d))]))
    chi_prev = chi_acc[:-1]  # χ at the start of each segment
    cross = np.where(flat, np.imag(np.conj(g) * chi_prev) * u,
                     np.imag(np.conj(g) * chi_prev * (1.0 - np.exp(-1j * d * u)) / (1j * d)))
    own = np.where(flat, 0.0, (np.abs(g) ** 2 / d) * (np.sin(d * u) / d - u))
    beta_acc = np.cumsum(np.concatenate([[0.0], np.column_stack([cross, own]).ravel()]))
    return complex(chi_acc[-1]), float(beta_acc[-1])


# --- S_x blocks and closed-form propagators ----------------------------------------


def sx_blocks(n_qubits: int) -> list[tuple[float, np.ndarray]]:
    """(s, P_s) for each eigenvalue s = N/2, N/2 − 1, …, −N/2 of S_x = (1/2)Σσx_n.

    P_s projects the 2^N qubit space onto S_x = s. The Hadamard transform
    H^{⊗N} diagonalises every σx_n, with σx_n = −1 on the columns whose bit n
    is set, so S_x = N/2 − k on the columns with k bits set.
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    hn = np.ones((1, 1))
    for _ in range(n_qubits):
        hn = np.kron(hn, h)
    ones = np.array([bin(k).count("1") for k in range(2**n_qubits)])
    return [(n_qubits / 2.0 - k, hn[:, ones == k] @ hn[:, ones == k].T)
            for k in range(n_qubits + 1)]


def ms_target_matrix(n_qubits: int) -> np.ndarray:
    """Ideal gate on the 2^N computational subspace: exp(+i (π/2) S_x²)."""
    return sum(np.exp(1j * (np.pi / 2.0) * s**2) * p for s, p in sx_blocks(n_qubits))


def ms_unitary(config: GateConfig, chi_val: complex, beta_val: float) -> np.ndarray:
    """exp(−i[χ a0† S_x + h.c.]) · exp(−iβ S_x²) on the qubit-level space.

    Built block-wise over sx_blocks: on the S_x = s subspace the first factor
    is the bus displacement-type exponential of s·(χa0†+h.c.) and the second
    is the phase e^{−iβs²}. Returns a dense matrix: every block is dense, so a
    sparse format only slows the products built from it.
    """
    a = annihilation((config.bus_dim,), 0).toarray()
    gen = chi_val * a.conj().T + np.conj(chi_val) * a
    g, q = np.linalg.eigh(gen)
    return sum(np.kron((q * np.exp(-1j * s * g)) @ q.conj().T,
                       np.exp(-1j * beta_val * s**2) * p)
               for s, p in sx_blocks(config.n_qubits))


# Segments per batched eigh in sx_block_columns: the stack holds at most
# _SEGMENT_CHUNK·⌊(N+1)/2⌋ matrices of bus_dim × bus_dim, whatever the
# number of segments.
_SEGMENT_CHUNK = 256


def sx_block_columns(config: GateConfig, schedule: Schedule) -> np.ndarray:
    """Π_k exp(−iH_k dt_k) applied to the columns |0⟩_bus ⊗ |q⟩ of GateModel.effective.

    Every segment generator Δ·n0 + 2Jα S_x(a0 + a0†) commutes with S_x, so on
    the S_x = s subspace it is the real-symmetric bus block
    H_s = Δ·n + 2Jα s(a + a†) of size bus_dim (Sørensen & Mølmer, PRA 62,
    022311 (2000)), and the columns, in basis-state order, are
    Σ_s (U_s|0⟩) ⊗ P_s with U_s the product of the blocks' propagators.

    Only the blocks with s > 0 are propagated. The bus parity P = (−1)^n
    commutes with n and anticommutes with a + a†, so P·H_s·P = H_{−s} and
    U_{−s} = P·U_s·P; as P|0⟩ = |0⟩, U_{−s}|0⟩ = P·U_s|0⟩. The s = 0 block
    Δ·n is diagonal and gives the vacuum the eigenvalue 0, so U_0|0⟩ = |0⟩.

    One np.linalg.eigh diagonalises the positive blocks of _SEGMENT_CHUNK
    segments at a time, and their vacua are chained through the segments as
    ψ ← v·(e^{−iw·dt}·(vᵀψ)). The result is exact in the truncated bus.
    """
    dim = config.bus_dim
    x = annihilation((dim,), 0).toarray().real
    n = np.diag(np.arange(float(dim)))
    blocks = sx_blocks(config.n_qubits)
    spins = [s for s, _ in blocks if s > 0]
    coupling = (2.0 * config.alpha) * np.array(spins)[:, None, None] * (x + x.T)
    dt = np.diff(schedule.times)
    psi = np.zeros((len(spins), dim, 1), dtype=complex)
    psi[:, 0] = 1.0
    for start in range(0, len(dt), _SEGMENT_CHUNK):
        seg = slice(start, start + _SEGMENT_CHUNK)
        h = (schedule.delta[seg, None, None, None] * n
             + schedule.j_coupling[seg, None, None, None] * coupling)
        w, v = np.linalg.eigh(h)
        for vk, phase in zip(v, np.exp(-1j * dt[seg, None, None] * w)):
            psi = vk @ (phase[:, :, None] * (vk.transpose(0, 2, 1) @ psi))
    vacuum = np.zeros((dim, 1), dtype=complex)
    vacuum[0] = 1.0
    parity = (-1.0) ** np.arange(dim)[:, None]
    cols = {0.0: vacuum}
    for s, col in zip(spins, psi):
        cols[s], cols[-s] = col, parity * col
    return sum(np.kron(cols[s], p) for s, p in blocks)


# --- fidelity and leakage metrics -------------------------------------------------


def average_gate_fidelity(m: np.ndarray) -> float:
    """F̄ = (Tr(MM†) + |Tr M|²) / (D² + D); global-phase insensitive."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("M must be square")
    d = m.shape[0]
    return float((np.trace(m @ m.conj().T).real + abs(np.trace(m)) ** 2) / (d**2 + d))


def output_fidelity(state: np.ndarray, model: GateModel, input_state: int) -> float:
    """F_out = ⟨ψ_out|ρ|ψ_out⟩ against the ideal output U_MS(t_g)|input_state⟩ (β = −π/2)."""
    n_qubits = len(model.dims) - 1
    col = ms_target_matrix(n_qubits)[:, input_state]
    amps = np.zeros(prod(model.dims), dtype=complex)
    for k in range(2**n_qubits):
        if abs(col[k]) > 0:
            amps += col[k] * model.basis_vector(k)
    return fidelity(state, amps)


def no_leakage(state: np.ndarray, model: GateModel) -> float:
    """P_C: population left in the joint cat manifold (no KPO has leaked).

    It is the weight of the state under the map I_bus ⊗ C ⊗ … ⊗ C, where the
    rows of C are the ⟨C±| bras of one KPO in the model's KPO basis.
    """
    rows = sp.csr_matrix(np.stack([model.cats[p].conj() for p in CatParity]))
    amap = sp.identity(model.dims[0], dtype=complex, format="csr")
    for _ in range(len(model.dims) - 1):
        amap = sp.kron(amap, rows, format="csr")
    if state.ndim == 2:
        proj = amap @ state @ amap.conj().T.tocsr()
        return float(np.real(np.trace(proj)))
    w = amap @ state
    return float(np.real(np.vdot(w, w)))


# --- error bias -----------------------------------------------------------------


def verify_error_bias(config: GateConfig, tau_err: float, qubit: int,
                      bus_dim: int = 40) -> float:
    """Max-entry distance ‖U(t_g←τ) σx U(τ←0) − σx U_MS(t_g)‖ from closed forms.

    σx is the bit flip of KPO `qubit` (1-based) on the qubit-level space.

    Both segment propagators are built independently from the loop integrals,
    so this checks the bias identity rather than assuming it.
    """
    t_g = gate_time(config)
    if not 0.0 < tau_err < t_g:
        raise ValueError("tau_err must lie strictly inside (0, t_g)")
    cfg = config.replace(bus_dim=bus_dim)
    sched = Schedule.constant(cfg.delta, cfg.j_coupling, t_g)

    chi1, beta1 = loop_trajectory(sched, cfg.alpha, tau_err)
    u1 = ms_unitary(cfg, chi1, beta1)
    # propagator of the remaining arc, integrated from scratch: its coupling
    # phase starts at φ0 = Δτ, and a common phase e^{iφ0} maps (χ, β) to
    # (χ·e^{iφ0}, β)
    tail = Schedule.constant(cfg.delta, cfg.j_coupling, t_g - tau_err)
    chi2, beta2 = loop_trajectory(tail, cfg.alpha, t_g - tau_err)
    u2 = ms_unitary(cfg, chi2 * np.exp(1j * cfg.delta * tau_err), beta2)

    chit, betat = loop_trajectory(sched, cfg.alpha, t_g)
    utot = ms_unitary(cfg, chit, betat)

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    err = np.kron(np.eye(bus_dim * 2 ** (qubit - 1)),
                  np.kron(sx, np.eye(2 ** (cfg.n_qubits - qubit))))
    return float(np.abs(u2 @ err @ u1 - err @ utot).max())


# --- detuning switch ---------------------------------------------------------------


def plan_detuning_switch(config: GateConfig, eps_a: float, m_after: int = 1) -> Schedule:
    """The schedule [0, τ, T] robust to a gate-time imperfection ε_a, at J = config.j_coupling.

    Δ = 4√m Jα/√(1−ε_a) until τ = 2πm/Δ, then Δ' = 4√m' Jα/√ε_a until T.
    Total geometric phase is −π/2 and χ vanishes at both τ and T.
    """
    if not 0.0 < eps_a < 1.0:
        raise ValueError("eps_a must lie in (0, 1)")
    if m_after < 1 or m_after > config.m_loops:
        raise ValueError("need 1 <= m_after <= m_loops")
    j, alpha, m = config.j_coupling, config.alpha, config.m_loops
    d_before = 4.0 * np.sqrt(m) * j * alpha / np.sqrt(1.0 - eps_a)
    tau = 2.0 * np.pi * m / d_before
    d_after = 4.0 * np.sqrt(m_after) * j * alpha / np.sqrt(eps_a)
    t_total = tau + 2.0 * np.pi * m_after / d_after
    sched = Schedule(np.array([0.0, tau, t_total]), np.array([d_before, d_after]),
                     np.array([j, j]))
    chi_tau, _ = loop_trajectory(sched, alpha, tau)
    chi_end, beta_end = loop_trajectory(sched, alpha, t_total)
    if abs(chi_tau) > 1e-10 or abs(chi_end) > 1e-10:
        raise AssertionError("switch plan leaves a residual displacement")
    if abs(beta_end + np.pi / 2.0) > 1e-10:
        raise AssertionError("switch plan does not accumulate β = −π/2")
    return sched


# --- gate models and runner ---------------------------------------------------------


@dataclass
class GateRunResult:
    t_end: float
    f_avg: float | None = None
    f_out: float | None = None
    p_c: float | None = None
    chi_residual: float = 0.0
    beta_total: float = 0.0
    bus_top: float | None = None  # population left in the top bus Fock level
    propagator: np.ndarray | None = None
    final_state: np.ndarray | None = None


def model_dims(config: GateConfig, mode: str) -> tuple[int, ...]:
    """Mode dimensions of the GateModel that run_gate builds for `mode`.

    The bus keeps bus_dim Fock levels. Each KPO keeps its two cat states in
    effective mode, else its kpo_levels highest Kerr levels when that is set,
    else its kpo_dim Fock levels.
    """
    if mode == "effective":
        kpo = 2
    else:
        kpo = config.kpo_dim if config.kpo_levels is None else config.kpo_levels
    return (config.bus_dim,) + (kpo,) * config.n_qubits


class GateModel:
    """Segment generator Δ·n0 + h_rest + J·c on the layout `dims`, with Lindblad `channels`.

    The bus keeps its Fock basis and its loss (κ0) and dephasing (γ0)
    channels. Every KPO is one single-mode description, embedded at each KPO
    position: its Hamiltonian h1, its coupling operator k1, which enters as
    J(k_n a0† + h.c.), its channels (rate, op), and `cats`, the |C±⟩
    amplitudes in its basis. `leaks` is False when that basis is the cat
    manifold itself, where P_C ≡ 1 measures nothing.

    `kpo_odd` marks the KPO basis states of odd photon-number parity, and
    `parity` is the total parity (−1)^{n0+Σn_k} of each basis index, as 0
    (even) or 1 (odd): the XOR over the modes of bus Fock n mod 2 and the
    KPOs' kpo_odd. The generator keeps it; of the channels, dephasing keeps
    it and every loss or flip swaps it. `sectors` holds the even and the odd
    indices, the sectors (dynamics._sectors) that run_gate propagates apart.

    n0, h_rest, c and channels are built on first use: a coherent effective
    run (sx_block_columns) reads none of them.
    """

    def __init__(self, config: GateConfig, mode: str, h1, k1, kpo_channels, cats, kpo_odd):
        self.dims = dims = model_dims(config, mode)
        self.cats = cats
        self.leaks = mode != "effective"
        self._config, self._h1, self._k1, self._kpo_channels = config, h1, k1, kpo_channels
        self._kpos = range(1, config.n_qubits + 1)
        self.parity = np.arange(dims[0]) % 2
        for _ in self._kpos:
            self.parity = (self.parity[:, None] ^ np.asarray(kpo_odd, dtype=int)).ravel()
        self.sectors = [np.flatnonzero(self.parity == p) for p in (0, 1)]

    @cached_property
    def n0(self) -> sp.csr_matrix:
        return number_op(self.dims, 0)

    @cached_property
    def h_rest(self) -> sp.csr_matrix:
        return sum(tensor_embed(self._h1, self.dims, n) for n in self._kpos).tocsr()

    @cached_property
    def c(self) -> sp.csr_matrix:
        a0 = annihilation(self.dims, 0)
        crosses = [tensor_embed(self._k1, self.dims, n) @ a0.conj().T for n in self._kpos]
        return sum(x + x.conj().T for x in crosses).tocsr()

    @cached_property
    def channels(self) -> list[CollapseChannel]:
        cfg, dims = self._config, self.dims
        bus = [(cfg.kappa0, annihilation(dims, 0)), (cfg.gamma0, self.n0)]
        return [CollapseChannel(r, SparseOperator(op)) for r, op in bus if r > 0] + [
            CollapseChannel(r, SparseOperator(tensor_embed(op, dims, n)))
            for n in self._kpos for r, op in self._kpo_channels if r > 0
        ]

    @classmethod
    def effective(cls, config: GateConfig) -> GateModel:
        """Qubit-level model: each KPO is its cat manifold (|C+⟩, |C−⟩).

        k_n = α σx_n, and photon loss becomes the biased flip σx + i·e^{−2α²}σy
        at rate κα²/√(1 − e^{−4α²}). KPO dephasing would enter as γα⁴·D[I],
        which vanishes identically, so it has no channel.
        """
        alpha = config.alpha
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, 1j], [-1j, 0]], dtype=complex)
        flip = sx + (1j * np.exp(-2.0 * alpha**2)) * sy
        rate = config.kappa * alpha**2 / np.sqrt(1.0 - np.exp(-4.0 * alpha**2))
        eye = np.eye(2, dtype=complex)
        cats = {CatParity.EVEN: eye[0], CatParity.ODD: eye[1]}
        return cls(config, "effective", np.zeros((2, 2)), alpha * sx, [(rate, flip)], cats,
                   [0, 1])

    @classmethod
    def fock(cls, config: GateConfig) -> GateModel:
        """Full model in the kpo_dim Fock levels of each KPO (kpo_levels unset)."""
        a, n = annihilation((config.kpo_dim,), 0), number_op((config.kpo_dim,), 0)
        h1 = h_kerr_single(config.kerr, config.omega_p, config.kpo_dim)
        cats = {p: single_mode_cat_vector(config.kpo_dim, config.alpha, p) for p in CatParity}
        return cls(config, "full", h1, a, [(config.kappa, a), (config.gamma, n)], cats,
                   np.arange(config.kpo_dim) % 2)

    @classmethod
    def kerr_levels(cls, config: GateConfig) -> GateModel:
        """Full model in the kpo_levels highest Kerr eigenlevels of each KPO.

        The cat manifold tops the Kerr spectrum, so keeping the highest
        eigenstates preserves the gate dynamics while shrinking both the
        dimension and the spectral spread that limits the integrator step
        size. With V the level isometry, the KPO operators are diag(E), V†aV
        and V†nV, and the cats are V†|C±⟩, renormalised. Each level comes
        from one parity block of kerr_level_isometry, so it is odd exactly
        when its odd Fock rows are not all 0.
        """
        levels = config.kpo_levels
        if levels is None:
            raise ValueError("config.kpo_levels is not set")
        energies, v = kerr_level_isometry(config.kerr, config.omega_p, config.kpo_dim, levels)
        a1 = annihilation((config.kpo_dim,), 0).toarray()
        a_red = v.conj().T @ a1 @ v
        n_red = v.conj().T @ (a1.conj().T @ a1) @ v
        cats = {}
        for parity in CatParity:
            red = v.conj().T @ single_mode_cat_vector(config.kpo_dim, config.alpha, parity)
            norm = np.linalg.norm(red)
            if norm < 1.0 - 1e-6:
                raise ValueError(
                    f"cat state loses {1 - norm:.2e} weight in {levels} levels"
                )
            cats[parity] = red / norm
        return cls(config, "full", np.diag(energies), a_red,
                   [(config.kappa, a_red), (config.gamma, n_red)], cats,
                   np.abs(v[1::2]).sum(axis=0) > 0)

    def generators(self, schedule: Schedule) -> list:
        """(Δ·n0 + h_rest + J·c, dt) of every segment of `schedule`, as CSR matrices."""
        return [((d * self.n0 + self.h_rest + j * self.c).tocsr(), t1 - t0)
                for t0, t1, d, j, _ in schedule.segments()]

    def basis_vector(self, k: int) -> np.ndarray:
        """Basis state k (states.basis_state) on the layout `dims`."""
        return basis_state(self.dims[0], self.cats, len(self.dims) - 1, k)


def run_gate(config: GateConfig, schedule: Schedule | None = None,
             input_state: int | None = None, mode: str = "full") -> GateRunResult:
    """Run the gate over `schedule`, to its end, and compute its metrics.

    The default schedule is the config's constant loop, run for gate_time.
    Mode "effective" runs GateModel.effective; mode "full" runs
    GateModel.kerr_levels when config.kpo_levels is set, else GateModel.fock.
    Coherent runs (all decay rates zero) propagate the full computational basis
    as one block of columns and report the average gate fidelity. In
    effective mode the generator commutes with S_x, so sx_block_columns
    propagates the bus vacuum of each S_x = s > 0 block, from which the
    s ≤ 0 columns follow; in full mode propagate_piecewise applies each
    segment's exponential by its Chebyshev expansion, to each basis column
    under the block of its own parity sector (GateModel.sectors), which has
    half the rows. Dissipative runs evolve the density matrix of basis state
    `input_state`, an index (default 0: all qubits in |C+>), and report F_out
    and, in full mode, the no-leakage probability P_C. They take the Lindblad
    path in both modes: the σy part of the effective model's flip channel
    does not commute with S_x, so it mixes the S_x blocks. It keeps the
    parity sectors, though: ρ stays their direct sum ρ₊ ⊕ ρ₋, is propagated
    as those two blocks, and is assembled whole only for the metrics. Both
    report bus_top, a witness of bus truncation: the
    population left in the top bus Fock level at the end (the largest over the
    columns, or the trace of ρ's top-level block). The final state, when the
    run has one (a dissipative run, or a coherent run given `input_state`), is
    kept as final_state.
    """
    if mode not in ("full", "effective"):
        raise ValueError("mode must be 'full' or 'effective'")
    if schedule is None:
        schedule = Schedule.constant(config.delta, config.j_coupling, gate_time(config))
    t_end = schedule.t_end

    chi_res, beta_tot = loop_trajectory(schedule, config.alpha, t_end)
    result = GateRunResult(t_end=t_end, chi_residual=abs(chi_res), beta_total=beta_tot)

    if mode == "effective":
        model = GateModel.effective(config)
    elif config.kpo_levels is None:
        model = GateModel.fock(config)
    else:
        model = GateModel.kerr_levels(config)
    n = config.n_qubits
    # the bus is the leading mode: basis index i has i // rest bus photons, and
    # the top Fock level is the last `rest` rows
    rest = prod(model.dims[1:])
    unrotate = np.exp(1j * schedule.phase(t_end) * (np.arange(prod(model.dims)) // rest))

    decohering = any(
        r > 0 for r in (config.kappa0, config.gamma0, config.kappa, config.gamma)
    )
    if not decohering:
        b = np.stack([model.basis_vector(k) for k in range(2**n)], axis=1)
        if mode == "effective":
            u = sx_block_columns(config, schedule)
        else:
            # the bus vacuum and |C+⟩ are even and |C−⟩ is odd, so column k
            # lies in the sector of the parity of k's number of set bits
            odd = np.array([bin(k).count("1") % 2 for k in range(2**n)])
            u = np.zeros_like(b)
            cols = [(idx, b[idx][:, odd == p]) for p, idx in enumerate(model.sectors)]
            for p, (idx, c) in enumerate(propagate_piecewise(model.generators(schedule), cols)):
                u[np.ix_(idx, odd == p)] = c
        u = unrotate[:, None] * u
        m = ms_target_matrix(n).conj().T @ (b.conj().T @ u)
        result.propagator = m
        result.f_avg = average_gate_fidelity(m)
        result.bus_top = float((np.abs(u[-rest:]) ** 2).sum(axis=0).max())
        if input_state is None:
            return result
        state = u[:, input_state]
    else:
        input_state = 0 if input_state is None else input_state
        v = model.basis_vector(input_state)
        rho = [(idx, np.outer(v[idx], v[idx].conj())) for idx in model.sectors]
        for h, dt in model.generators(schedule):
            rho = evolve_density(h, model.channels, rho, (0.0, dt))
        state = np.zeros((len(v), len(v)), dtype=complex)
        for idx, block in rho:
            state[np.ix_(idx, idx)] = block
        state *= unrotate[:, None]
        state *= unrotate.conj()[None, :]
        result.bus_top = float(np.trace(state[-rest:, -rest:]).real)
    result.f_out = output_fidelity(state, model, input_state)
    if model.leaks:
        result.p_c = no_leakage(state, model)
    result.final_state = state
    return result
