"""Single-KPO protocols: adiabatic cat-state preparation and single-qubit gates.

Both protocols act on one isolated KPO (the bus is decoupled), so every
simulation here is a single-mode problem.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_laguerre, gammaln

from .dynamics import _rk4_integrate, evolve_density, evolve_state
from .gates import average_gate_fidelity
from .hilbert import SparseOperator, annihilation, number_op
from .model import CollapseChannel, h_kerr_single
from .states import CatParity, fidelity, single_mode_cat_vector


# --- cat-state preparation ------------------------------------------------------


@dataclass(frozen=True)
class CatPrepSchedule:
    """Linear amplitude ramp with a sinusoidal counter-detuning on t in [-t0, 0]."""

    t0: float
    alpha: float

    def __post_init__(self):
        if self.t0 <= 0 or self.alpha <= 0:
            raise ValueError("t0 and alpha must be positive")

    def alpha_t(self, t: float) -> float:
        """alpha * (t + t0) / t0; zero at -t0, alpha at 0."""
        self._check(t)
        return self.alpha * (t + self.t0) / self.t0

    def delta_q(self, t: float, kerr: float) -> float:
        """-K sin(pi (t + t0) / t0); zero at both endpoints, -K at midpoint."""
        self._check(t)
        return -kerr * np.sin(np.pi * (t + self.t0) / self.t0)

    def _check(self, t: float):
        if t < -self.t0 - 1e-12 or t > 1e-12:
            raise ValueError("time outside the ramp [-t0, 0]")


def cat_prep_hamiltonian(kerr: float, schedule: CatPrepSchedule,
                         dim: int = 30) -> list:
    """Ramp Hamiltonian Ωp(t)(a†²+a²) − Ka†²a² + Δq(t)a†a as a term list.

    Three static operators with scalar coefficients, for dynamics.evolve_*:
    −Ka†²a², then a² + a†² with Ωp(t) = K α_t² (so the instantaneous cat
    amplitude is α_t), then a†a with Δq(t).
    """
    a = annihilation((dim,), 0)
    a2 = a @ a
    return [
        (h_kerr_single(kerr, 0.0, dim), None),
        (a2 + a2.conj().T, lambda t: kerr * schedule.alpha_t(t) ** 2),
        (number_op((dim,), 0), lambda t: schedule.delta_q(t, kerr)),
    ]


_MARGIN_SAMPLES = 101
"""The number of sample points of ramp_margin."""


def ramp_margin(kerr: float, schedule: CatPrepSchedule) -> float:
    """Dimensionless adiabaticity margin of the displaced-frame condition.

    The displaced-frame generator cannot change the photon number when the
    effective level spacing |Δq − 4Kα_t²| dominates both the cubic coefficient
    2Kα_t and the residual drive sqrt((α_t Δq)² + α̇_t²). Returns the minimum
    ratio over _MARGIN_SAMPLES interior sample points, the midpoints of equal
    parts of the ramp (the boundary t = −t0 is excluded, where the spacing
    vanishes identically).
    """
    t0 = schedule.t0
    ts = -t0 + (np.arange(_MARGIN_SAMPLES) + 0.5) * t0 / _MARGIN_SAMPLES
    alpha_dot = schedule.alpha / t0
    worst = np.inf
    for t in ts:
        a_t = schedule.alpha_t(t)
        dq = schedule.delta_q(t, kerr)
        spacing = abs(dq - 4.0 * kerr * a_t**2)
        drive = max(2.0 * kerr * a_t, np.hypot(a_t * dq, alpha_dot))
        worst = min(worst, spacing / drive)
    return float(worst)


@dataclass
class CatPrepResult:
    target_parity: CatParity
    fidelity: float
    margin: float


def run_cat_prep(kerr: float, alpha: float, t0: float, initial_fock: int = 0,
                 kappa: float = 0.0, gamma: float = 0.0, dim: int = 30) -> CatPrepResult:
    """Ramp from -t0 to 0 and report the fidelity to the target cat state.

    initial_fock = 0 targets |C+>, initial_fock = 1 targets |C->.
    """
    if initial_fock not in (0, 1):
        raise ValueError("initial state must be Fock |0> or |1>")
    schedule = CatPrepSchedule(t0, alpha)
    psi0 = np.zeros(dim, dtype=complex)
    psi0[initial_fock] = 1.0
    h = cat_prep_hamiltonian(kerr, schedule, dim)

    parity = CatParity.EVEN if initial_fock == 0 else CatParity.ODD
    target = single_mode_cat_vector(dim, alpha, parity)

    if kappa > 0 or gamma > 0:
        channels = []
        if kappa > 0:
            channels.append(CollapseChannel(kappa, SparseOperator(annihilation((dim,), 0))))
        if gamma > 0:
            channels.append(CollapseChannel(gamma, SparseOperator(number_op((dim,), 0))))
        final = evolve_density(h, channels, np.outer(psi0, psi0.conj()), (-t0, 0.0))
    else:
        final = evolve_state(h, psi0, (-t0, 0.0))
    return CatPrepResult(parity, fidelity(final, target), ramp_margin(kerr, schedule))


# --- single-qubit gates -----------------------------------------------------------


@dataclass(frozen=True)
class SingleQubitParams:
    """Drive parameters of one KPO: single-photon drive, detuning, Josephson term."""

    xi_p: complex = 0.0
    delta_q: float = 0.0
    xi_j: float = 0.0

    def __post_init__(self):
        if self.xi_j != 0.0 and self.delta_q != 0.0:
            raise ValueError("the Josephson path requires delta_q = 0")


def josephson_splitting(alpha: float) -> float:
    """⟨C+|Ō|C+⟩ − ⟨C−|Ō|C−⟩ for the carrier-averaged Josephson drive Ō.

    Averaging cos[2α(a e^{−iω_c t} + h.c.)] over the carrier keeps only its
    Fock-diagonal elements, Ō_nn = e^{−2α²} L_n(4α²). The cat populations are
    Poisson weights e^{−α²}α^{2n}/n! on even (C+) or odd (C−) n, renormalized
    by 1 ± e^{−2α²}. The large-α asymptote of the splitting is 1/(α√(2π)).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a2 = alpha**2
    # Poisson(α²) weight beyond α² + 12α + 40 is below double precision
    n = np.arange(int(np.ceil(a2 + 12.0 * alpha + 40.0)))
    poisson = np.exp(-a2 + 2.0 * n * np.log(alpha) - gammaln(n + 1))
    overlap = np.exp(-2.0 * a2)
    weight = np.where(n % 2 == 0, 2.0 / (1.0 + overlap), -2.0 / (1.0 - overlap))
    return float(np.sum(weight * poisson * overlap * eval_laguerre(n, 4.0 * a2)))


def effective_single_qubit(params: SingleQubitParams, alpha: float):
    """Cat-subspace parameters (Δ̃_q, Ω_1, φ) of the single-KPO drive.

    Δ̃_q = Δ_q α²(coth α² − tanh α²), plus −ξ_J·josephson_splitting(α) from
    the Josephson term; Ω_1 e^{−iφ} = ξ_p α √tanh α² + ξ_p* α √coth α².

    The Josephson sign follows the cycle average of the displacement drive:
    ⟨C+|Ō|C+⟩ exceeds ⟨C−|Ō|C−⟩, so a positive ξ_J lowers |C+⟩ relative to
    |C−⟩, i.e. contributes −σ_z.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a2 = alpha**2
    dtilde = params.delta_q * a2 * (1.0 / np.tanh(a2) - np.tanh(a2))
    if params.xi_j != 0.0:
        dtilde -= params.xi_j * josephson_splitting(alpha)
    z = params.xi_p * alpha * np.sqrt(np.tanh(a2)) + np.conj(params.xi_p) * alpha * np.sqrt(
        1.0 / np.tanh(a2)
    )
    omega_1 = abs(z)
    phi = float(-np.angle(z)) if omega_1 > 0 else 0.0
    return float(dtilde), float(omega_1), phi


def rotation_parameters(dtilde_q: float, omega_1: float):
    """(Ξ, θ_rot) with Ξ = sqrt(Δ̃_q²/4 + Ω_1²) and θ_rot = arctan(2Ω_1/Δ̃_q)."""
    xi = np.sqrt(dtilde_q**2 / 4.0 + omega_1**2)
    theta_rot = np.arctan2(2.0 * omega_1, dtilde_q)
    return float(xi), float(theta_rot)


def u1_closed_form(xi: float, theta_rot: float, phi: float, t: float) -> np.ndarray:
    """Closed-form cat-qubit rotation, ordered (|C−>, |C+>) so σ_z = diag(1, −1).

    exp(−it[Δ̃_q σ_z/2 + Ω_1 e^{−iφ}σ⁻ + h.c.]) with Δ̃_q = 2Ξ cos θ_rot and
    Ω_1 = Ξ sin θ_rot.
    """
    c, s = np.cos(xi * t), np.sin(xi * t)
    ct, st = np.cos(theta_rot), np.sin(theta_rot)
    return np.array(
        [
            [c - 1j * s * ct, -1j * np.exp(-1j * phi) * s * st],
            [-1j * np.exp(1j * phi) * s * st, c + 1j * s * ct],
        ]
    )


def design_single_qubit_drive(target: str, alpha: float, t_gate: float,
                              use_h_add: bool) -> SingleQubitParams:
    """Drive parameters realizing a Hadamard or NOT gate at the given time.

    Solves Ξ t = π/2 with θ_rot = π/4 (Hadamard) or π/2 (NOT), then inverts
    the cat-subspace parameter map of effective_single_qubit for a real
    single-photon drive; the Josephson path divides by josephson_splitting(α).
    """
    # (sin θ_rot, cos θ_rot); NOT needs cos(π/2) = 0 exactly, where np.cos gives 6e-17
    sin_cos = {"hadamard": (np.sin(np.pi / 4.0), np.cos(np.pi / 4.0)), "not": (1.0, 0.0)}
    if target not in sin_cos:
        raise ValueError("target must be 'hadamard' or 'not'")
    sin_t, cos_t = sin_cos[target]
    xi = np.pi / (2.0 * t_gate)
    omega_1 = xi * sin_t
    dtilde = 2.0 * xi * cos_t
    a2 = alpha**2
    xi_p = omega_1 / (alpha * (np.sqrt(np.tanh(a2)) + np.sqrt(1.0 / np.tanh(a2))))
    if dtilde == 0.0:
        return SingleQubitParams(xi_p=xi_p)
    if use_h_add:
        return SingleQubitParams(xi_p=xi_p, xi_j=-dtilde / josephson_splitting(alpha))
    return SingleQubitParams(
        xi_p=xi_p, delta_q=dtilde / (a2 * (1.0 / np.tanh(a2) - np.tanh(a2)))
    )


@dataclass
class SingleQubitResult:
    fidelity: float
    propagator: np.ndarray  # 2x2 in the (|C->, |C+>) ordering
    target: np.ndarray
    t_gate: float
    # Josephson path only: the relative mismatch of the cat splitting of the
    # truncated carrier average with josephson_splitting(α), a truncation witness
    josephson_trunc: float | None = None

    @property
    def leakage(self) -> float:
        """ℓ = 1 − Tr(M†M)/2: population lost from the cat manifold."""
        m = self.propagator
        return float(1.0 - np.trace(m.conj().T @ m).real / 2.0)

    @property
    def rotation_error(self) -> float:
        """1 − F̄ of the propagator rescaled by 1/√(1 − ℓ).

        Splits the infidelity exactly: 1 − F̄ = ℓ + (1 − ℓ)·rotation_error.
        """
        m = self.target.conj().T @ self.propagator / np.sqrt(1.0 - self.leakage)
        return 1.0 - average_gate_fidelity(m)


def run_single_qubit_gate(kerr: float, omega_p: float, params: SingleQubitParams,
                          use_h_add: bool = False, t_gate: float = 1.0,
                          omega_c: float | None = None, dim: int = 40,
                          n_steps_per_cycle: int = 320) -> SingleQubitResult:
    """Full single-KPO simulation of a cat-qubit rotation vs its closed form.

    Without the Josephson term (xi_j = 0) the Hamiltonian h0 is static, and
    exp(−ih0·t) comes from one eigh of the dense h0 (not from expm_apply,
    whose cost grows with the Gershgorin width of h0 times t, and Δ_q·a†a
    makes that width large). A nonzero xi_j needs use_h_add, which puts the
    drive into H: the closed-form target always has it, so a run without it
    would be measured against the wrong gate and is refused. With the drive,
    the explicitly oscillating displacement drive cos[φ_a(a e^{−iω_c t} +
    a† e^{iω_c t})] (φ_a = 2α) makes H(t) periodic with T = 2π/ω_c.
    Fixed-step RK4, n_steps_per_cycle steps per period, integrates the
    propagator over one period and over the remainder r = t − nT, and
    U(t) = U(r)·U(T)^n (Shirley, Phys. Rev. 138, B979 (1965)). In the Fock
    basis the drive is C∘e^{iω_c t(n_i − n_j)}, with C = cos(φ_a(a + a†))
    from one eigh, so each right-hand-side call forms the dense
    −iH(t) = −i·h0 + (−iξ_J)·C∘e^{iω_c t(n_i − n_j)} and applies it to the
    propagator's columns in one matrix product.

    The Josephson path also reports josephson_trunc, |s/s_∞ − 1| for the
    splitting s = Σ Ō_nn(|C+_n|² − |C−_n|²) of the truncated carrier average
    Ō = diag cos(φ_a(a + a†)) between the truncated cats, and s_∞ =
    josephson_splitting(α). A dim too small for α cuts off the Laguerre
    tail of Ō_nn: at α = 3 it reads 0.74 at dim 40, where the gate misses
    its rotation by 1 − F̄ = 0.26 with a leakage of only 4e-5, and 1e-9
    at dim 80.
    """
    if params.xi_j != 0.0 and not use_h_add:
        raise ValueError("a nonzero xi_j needs use_h_add")
    alpha = float(np.sqrt(omega_p / kerr))
    a = annihilation((dim,), 0)
    ad = a.conj().T.tocsr()
    h0 = h_kerr_single(kerr, omega_p, dim)
    h0 = h0 + params.delta_q * number_op((dim,), 0)
    h0 = h0 + params.xi_p * a + np.conj(params.xi_p) * ad

    # columns ordered (|C->, |C+>) to match the closed-form matrix convention
    basis = np.stack(
        [
            single_mode_cat_vector(dim, alpha, CatParity.ODD),
            single_mode_cat_vector(dim, alpha, CatParity.EVEN),
        ],
        axis=1,
    )

    josephson_trunc = None
    if params.xi_j == 0.0:
        w, vecs = np.linalg.eigh(h0.toarray())
        cols = vecs @ (np.exp(-1j * t_gate * w)[:, None] * (vecs.conj().T @ basis))
    else:
        if omega_c is None:
            omega_c = 800.0 * kerr
        if omega_c <= 10.0 * abs(params.xi_j):
            raise ValueError("omega_c must dominate xi_j for the drive to average")
        phi_a = 2.0 * alpha
        x = phi_a * (a + ad).toarray()
        w, vecs = np.linalg.eigh(x)
        cos_x = (vecs * np.cos(w)) @ vecs.conj().T  # cos(phi_a (a + a†))
        n_diag = np.arange(dim)
        k0 = -1j * h0.toarray()
        k_j = (-1j * params.xi_j) * cos_x

        def rhs(t, y):
            # −iH(t) = −i·h0 + (−iξ_J)·C∘e^{iω_c t(n_i − n_j)}, applied in one product
            rot = np.exp(1j * omega_c * t * n_diag)
            k = np.multiply.outer(rot, rot.conj())
            k *= k_j
            k += k0
            return k @ y

        period = 2.0 * np.pi / omega_c
        dt = period / n_steps_per_cycle
        n_periods, rest = divmod(t_gate, period)
        eye = np.eye(dim, dtype=complex)
        u = np.linalg.matrix_power(_rk4_integrate(rhs, eye, 0.0, period, dt), int(n_periods))
        if rest > 0:
            u = _rk4_integrate(rhs, eye, 0.0, rest, dt) @ u
        cols = u @ basis
        pops = np.abs(basis) ** 2
        split = cos_x.diagonal().real @ (pops[:, 1] - pops[:, 0])
        josephson_trunc = abs(split / josephson_splitting(alpha) - 1.0)

    dtilde, omega_1, phi = effective_single_qubit(params, alpha)
    xi, theta_rot = rotation_parameters(dtilde, omega_1)
    target = u1_closed_form(xi, theta_rot, phi, t_gate)
    u = basis.conj().T @ cols
    return SingleQubitResult(average_gate_fidelity(target.conj().T @ u), u,
                             target, t_gate, josephson_trunc)
