"""Closed-form MS-gate geometry, detuning-switch planning, gate runs and metrics."""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.sparse as sp

from .dynamics import IntegratorSettings, evolve_density, propagate_piecewise
from .hilbert import SparseOperator, annihilation, number_op, tensor_embed
from .model import CollapseChannel, GateConfig, Schedule, h_kerr_single, kerr_level_isometry
from .states import (
    CatParity,
    QubitBasisState,
    all_basis_states,
    fidelity,
    single_mode_cat_vector,
)


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
    per segment.
    """
    chi_acc = 0.0 + 0.0j
    beta_acc = 0.0
    for t0, t1, d, j, phi0 in schedule.segments():
        if t <= t0:
            break
        u = min(t, t1) - t0
        g = 2.0 * j * alpha * np.exp(1j * phi0)
        if abs(d) < 1e-14:
            beta_acc += float(np.imag(np.conj(g) * chi_acc)) * u
            chi_acc = chi_acc + g * u
        else:
            beta_acc += float(
                np.imag(np.conj(g) * chi_acc * (1.0 - np.exp(-1j * d * u)) / (1j * d))
            )
            beta_acc += (abs(g) ** 2 / d) * (np.sin(d * u) / d - u)
            chi_acc = chi_acc + g * (np.exp(1j * d * u) - 1.0) / (1j * d)
    return complex(chi_acc), float(beta_acc)


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


def sx_block_columns(config: GateConfig, schedule: Schedule) -> np.ndarray:
    """Π_k exp(−iH_k dt_k) applied to the columns |0⟩_bus ⊗ |q⟩ of GateModel.effective.

    Every segment generator Δ·n0 + 2Jα S_x(a0 + a0†) commutes with S_x, so on
    the S_x = s subspace it is the real-symmetric bus block
    H_s = Δ·n + 2Jα s(a + a†) of size bus_dim (Sørensen & Mølmer, PRA 62,
    022311 (2000)). Each segment diagonalises the N+1 blocks together and
    propagates their bus vacua; the columns, in basis-state order, are
    Σ_s (U_s|0⟩) ⊗ P_s. The result is exact in the truncated bus.
    """
    dim = config.bus_dim
    x = annihilation((dim,), 0).toarray().real
    n = np.diag(np.arange(float(dim)))
    blocks = sx_blocks(config.n_qubits)
    coupling = (2.0 * config.alpha) * np.array([s for s, _ in blocks])[:, None, None] * (x + x.T)
    psi = np.zeros((len(blocks), dim, 1), dtype=complex)
    psi[:, 0] = 1.0
    for t0, t1, d, j, _ in schedule.segments():
        w, v = np.linalg.eigh(d * n + j * coupling)
        psi = v @ (np.exp(-1j * (t1 - t0) * w)[:, :, None] * (v.transpose(0, 2, 1) @ psi))
    return sum(np.kron(col, p) for col, (_, p) in zip(psi, blocks))


# --- fidelity and leakage metrics -------------------------------------------------


def average_gate_fidelity(m: np.ndarray) -> float:
    """F̄ = (Tr(MM†) + |Tr M|²) / (D² + D); global-phase insensitive."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("M must be square")
    d = m.shape[0]
    return float((np.trace(m @ m.conj().T).real + abs(np.trace(m)) ** 2) / (d**2 + d))


def output_fidelity(state: np.ndarray, model: GateModel, input_state: QubitBasisState) -> float:
    """F_out = ⟨ψ_out|ρ|ψ_out⟩ against the ideal output U_MS(t_g)|input⟩ (β = −π/2)."""
    n_qubits = len(model.dims) - 1
    col = ms_target_matrix(n_qubits)[:, input_state.index]
    amps = np.zeros(prod(model.dims), dtype=complex)
    for k, b in enumerate(all_basis_states(n_qubits)):
        if abs(col[k]) > 0:
            amps += col[k] * model.basis_vector(b)
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


@dataclass(frozen=True)
class SwitchPlan:
    """Two-segment detuning plan robust to gate-time imperfection ε_a."""

    tau: float
    delta_before: float
    delta_after: float
    m_loops: int
    m_after: int
    t_total: float

    def to_schedule(self, j_coupling: float) -> Schedule:
        return Schedule(
            np.array([0.0, self.tau, self.t_total]),
            np.array([self.delta_before, self.delta_after]),
            np.array([j_coupling, j_coupling]),
        )


def plan_detuning_switch(config: GateConfig, eps_a: float, m_after: int = 1) -> SwitchPlan:
    """Δ = 4√m Jα/√(1−ε_a) until τ = 2πm/Δ, then Δ' = 4√m' Jα/√ε_a.

    Total geometric phase is −π/2 and χ vanishes at both τ and the end.
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
    plan = SwitchPlan(tau, d_before, d_after, m, m_after, t_total)
    sched = plan.to_schedule(j)
    chi_tau, _ = loop_trajectory(sched, alpha, tau)
    chi_end, beta_end = loop_trajectory(sched, alpha, t_total)
    if abs(chi_tau) > 1e-10 or abs(chi_end) > 1e-10:
        raise AssertionError("switch plan leaves a residual displacement")
    if abs(beta_end + np.pi / 2.0) > 1e-10:
        raise AssertionError("switch plan does not accumulate β = −π/2")
    return plan


# --- gate models and runner ---------------------------------------------------------


@dataclass
class GateRunResult:
    mode: str
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
    """

    def __init__(self, config: GateConfig, mode: str, h1, k1, kpo_channels, cats):
        self.dims = dims = model_dims(config, mode)
        self.cats = cats
        self.leaks = mode != "effective"
        a0, self.n0 = annihilation(dims, 0), number_op(dims, 0)
        kpos = range(1, config.n_qubits + 1)
        self.h_rest = sum(tensor_embed(h1, dims, n) for n in kpos).tocsr()
        crosses = [tensor_embed(k1, dims, n) @ a0.conj().T for n in kpos]
        self.c = sum(x + x.conj().T for x in crosses).tocsr()
        bus = [(config.kappa0, a0), (config.gamma0, self.n0)]
        self.channels = [CollapseChannel(r, SparseOperator(op)) for r, op in bus if r > 0] + [
            CollapseChannel(r, SparseOperator(tensor_embed(op, dims, n)))
            for n in kpos for r, op in kpo_channels if r > 0
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
        return cls(config, "effective", np.zeros((2, 2)), alpha * sx, [(rate, flip)], cats)

    @classmethod
    def fock(cls, config: GateConfig) -> GateModel:
        """Full model in the kpo_dim Fock levels of each KPO (kpo_levels unset)."""
        a, n = annihilation((config.kpo_dim,), 0), number_op((config.kpo_dim,), 0)
        h1 = h_kerr_single(config.kerr, config.omega_p, config.kpo_dim)
        cats = {p: single_mode_cat_vector(config.kpo_dim, config.alpha, p) for p in CatParity}
        return cls(config, "full", h1, a, [(config.kappa, a), (config.gamma, n)], cats)

    @classmethod
    def kerr_levels(cls, config: GateConfig) -> GateModel:
        """Full model in the kpo_levels highest Kerr eigenlevels of each KPO.

        The cat manifold tops the Kerr spectrum, so keeping the highest
        eigenstates preserves the gate dynamics while shrinking both the
        dimension and the spectral spread that limits the integrator step
        size. With V the level isometry, the KPO operators are diag(E), V†aV
        and V†nV, and the cats are V†|C±⟩, renormalised.
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
                   [(config.kappa, a_red), (config.gamma, n_red)], cats)

    def generators(self, schedule: Schedule) -> list:
        """(Δ·n0 + h_rest + J·c, dt) of every segment of `schedule`, as CSR matrices."""
        return [((d * self.n0 + self.h_rest + j * self.c).tocsr(), t1 - t0)
                for t0, t1, d, j, _ in schedule.segments()]

    def basis_vector(self, qbs: QubitBasisState) -> np.ndarray:
        """|0⟩_bus ⊗ |C_p1⟩ ⊗ … ⊗ |C_pN⟩ on the layout `dims`."""
        v = np.zeros(self.dims[0], dtype=complex)
        v[0] = 1.0
        for parity in qbs.parities:
            v = np.kron(v, self.cats[parity])
        return v


def run_gate(config: GateConfig, schedule: Schedule | None = None,
             input_state: QubitBasisState | None = None, mode: str = "full") -> GateRunResult:
    """Simulate the gate to the end of the schedule and compute its metrics.

    Mode "effective" runs GateModel.effective; mode "full" runs
    GateModel.kerr_levels when config.kpo_levels is set, else GateModel.fock.
    Coherent runs (all decay rates zero) propagate the full computational basis
    as one block of columns and report the average gate fidelity. In
    effective mode the generator commutes with S_x, so sx_block_columns
    propagates N+1 bus blocks; in full mode propagate_piecewise applies each
    segment's exponential by its Chebyshev expansion. Dissipative runs evolve
    the density matrix of `input_state` (default: all qubits in |C+>) and report
    F_out and, in full mode, the no-leakage probability P_C. They take the
    Lindblad path in both modes: the σy part of the effective model's flip
    channel does not commute with S_x, so it mixes the blocks.
    Both report bus_top, a witness of bus truncation: the population left in
    the top bus Fock level at the end (the largest over the columns, or the
    trace of ρ's top-level block). The final state, when the run has one (a
    dissipative run, or a coherent run given `input_state`), is kept as
    final_state.
    """
    if mode not in ("full", "effective"):
        raise ValueError("mode must be 'full' or 'effective'")
    if schedule is None:
        schedule = Schedule.constant(config.delta, config.j_coupling, gate_time(config))
    t_end = schedule.t_end * config.t_gate_factor
    sched = schedule.clipped(t_end)

    chi_res, beta_tot = loop_trajectory(sched, config.alpha, t_end)
    result = GateRunResult(mode=mode, t_end=t_end,
                           chi_residual=abs(chi_res), beta_total=beta_tot)

    if mode == "effective":
        model = GateModel.effective(config)
    elif config.kpo_levels is None:
        model = GateModel.fock(config)
    else:
        model = GateModel.kerr_levels(config)
    unrotate = np.exp(1j * sched.phase(t_end) * model.n0.diagonal().real)
    n = config.n_qubits
    # the bus is the leading mode, so its top Fock level is the last `rest` rows
    rest = prod(model.dims[1:])

    decohering = any(
        r > 0 for r in (config.kappa0, config.gamma0, config.kappa, config.gamma)
    )
    if not decohering:
        b = np.stack([model.basis_vector(q) for q in all_basis_states(n)], axis=1)
        if mode == "effective":
            u = sx_block_columns(config, sched)
        else:
            u = propagate_piecewise(model.generators(sched), b)
        u = unrotate[:, None] * u
        m = ms_target_matrix(n).conj().T @ (b.conj().T @ u)
        result.propagator = m
        result.f_avg = average_gate_fidelity(m)
        result.bus_top = float((np.abs(u[-rest:]) ** 2).sum(axis=0).max())
        if input_state is None:
            return result
        state = u[:, input_state.index]
    else:
        if input_state is None:
            input_state = QubitBasisState((CatParity.EVEN,) * n)
        v = model.basis_vector(input_state)
        rho = np.outer(v, v.conj())
        settings = IntegratorSettings(rtol=1e-7, atol=1e-9)
        for h, dt in model.generators(sched):
            rho = evolve_density(h, model.channels, rho, (0.0, dt), settings,
                                 check_positivity=False)
        state = (unrotate[:, None] * rho) * unrotate.conj()[None, :]
        result.bus_top = float(np.trace(state[-rest:, -rest:]).real)
    result.f_out = output_fidelity(state, model, input_state)
    if model.leaks:
        result.p_c = no_leakage(state, model)
    result.final_state = state
    return result
