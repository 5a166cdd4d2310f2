"""Time integration of Schrödinger and Lindblad dynamics.

evolve_state and evolve_density integrate with SciPy's adaptive embedded
Runge-Kutta (RK45). States are NumPy arrays: evolve_state takes and returns a
state vector, evolve_density a dense density matrix, each at the end of the
span.
_rk4_integrate is a classical fixed-step RK4 loop over a given right-hand
side; the Josephson path of the single-qubit gate runs through it.

For piecewise-constant generators there is also an exact propagator: SciPy's
expm_multiply applies each segment's exponential to a vector or to a block of
columns. The gate runner propagates the computational basis of a coherent
full-mode gate with it. A coherent effective-mode gate does not use it: its
generator commutes with S_x, so gates.sx_block_columns propagates it as N+1
small bus blocks.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

from .hilbert import SparseOperator


class ToleranceBreach(RuntimeError):
    """Raised when an integration result violates a declared tolerance."""


class StiffSegment(RuntimeError):
    """Raised when the adaptive integrator underflows its step size."""


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances of the adaptive RK45 integrator.

    The step cap is derived, not set: span/1000 for a time-dependent
    generator and none for a static one.
    """

    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


def _terms(h) -> list:
    """(matrix, f) pairs of H(t) = Σ f_k(t)·H_k; f_k is None for a static term.

    h is a term list [(H_k, f_k), …] of SparseOperators and scalar functions
    of t, or a bare SparseOperator, which is one static term.
    """
    if isinstance(h, SparseOperator):
        h = [(h, None)]
    return [(op.matrix, f) for op, f in h]


def _term_sum(terms, t, apply):
    """Σ f_k(t)·apply(H_k); apply must return a fresh array."""
    total = None
    for m, f in terms:
        v = apply(m)
        if f is not None:
            v *= f(t)
        if total is None:
            total = v
        else:
            total += v
    return total


def evolve_state(h, psi0: np.ndarray, t_span,
                 settings: IntegratorSettings | None = None) -> np.ndarray:
    """Integrate i dψ/dt = H(t) ψ from the vector psi0 and return ψ at the end of t_span.

    h is a SparseOperator or a term list (see _terms). A norm drift above
    1e-6 is warned about.
    """
    settings = settings or IntegratorSettings()
    terms = _terms(h)

    def rhs(t, y):
        return -1j * _term_sum(terms, t, lambda m: m @ y)

    v = _integrate(rhs, psi0, t_span, settings,
                   time_dependent=any(f is not None for _, f in terms))
    drift = abs(np.linalg.norm(v) - 1.0)
    if drift > 1e-6:
        warnings.warn(f"state norm drifted by {drift:.2e}; tighten tolerances", stacklevel=2)
    return v


def evolve_density(h, collapse_channels, rho0: np.ndarray, t_span,
                   settings: IntegratorSettings | None = None,
                   check_positivity: bool | None = None) -> np.ndarray:
    """Integrate the Lindblad equation with D[o]ρ = oρo† − (o†oρ + ρo†o)/2.

    rho0 is a dense square matrix; returns ρ at the end of t_span, made
    Hermitian. h is a SparseOperator or a term list (see _terms), and each
    collapse channel contributes ch.rate·D[ch.op]. A trace drift above 1e-6
    is warned about; a result with an eigenvalue below −1e-6 raises
    ToleranceBreach (checked by default up to dimension 256).
    """
    settings = settings or IntegratorSettings()
    terms = _terms(h)
    dim = rho0.shape[0]

    ops = []
    for ch in collapse_channels:
        o = ch.op.matrix
        ops.append((ch.rate, o, o.getH().tocsr(), (o.getH() @ o).tocsr()))

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        out = -1j * _term_sum(terms, t, lambda m: m @ rho - rho @ m)
        for rate, o, od, oo in ops:
            out += rate * ((o @ rho) @ od - 0.5 * (oo @ rho + rho @ oo))
        return out.ravel()

    v = _integrate(rhs, rho0.ravel(), t_span, settings,
                   time_dependent=any(f is not None for _, f in terms))
    m = v.reshape(dim, dim)
    rho = (m + m.conj().T) / 2  # enforce Hermiticity
    tr_drift = abs(np.trace(rho) - 1.0)
    if tr_drift > 1e-6:
        warnings.warn(f"trace drifted by {tr_drift:.2e}; tighten tolerances", stacklevel=2)
    if check_positivity is None:
        check_positivity = dim <= 256
    if check_positivity:
        w = np.linalg.eigvalsh(rho)
        if w.min() < -1e-6:
            raise ToleranceBreach(f"min eigenvalue {w.min():.2e} below -1e-6")
    return rho


def _integrate(rhs, y0, t_span, settings: IntegratorSettings, time_dependent: bool):
    """y(t1) by RK45, read from the dense output at t1.

    t_eval also asks for t0, which is dropped. That is for speed, not
    accuracy: it builds the dense output of the first step (an n×4 array),
    and once that block is freed glibc's malloc raises its mmap threshold, so
    the n-entry temporaries of every later step are reused from the heap
    instead of being mapped afresh. With t_eval=[t1] alone, a dim-160 Lindblad
    gate (n = 25,600) took 1.9× as long on a 2-vCPU x86-64 Linux host, with
    1.09 M minor page faults instead of 26 K.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    # a static generator needs no step cap; a time-dependent one must not
    # skate over features of H(t)
    max_step = max((t1 - t0) / 1000.0, 1e-12) if time_dependent else np.inf
    sol = solve_ivp(
        rhs, (t0, t1), np.asarray(y0, dtype=complex), method="RK45",
        t_eval=[t0, t1], rtol=settings.rtol, atol=settings.atol, max_step=max_step,
    )
    if not sol.success:
        raise StiffSegment(f"adaptive integrator failed: {sol.message}")
    return sol.y[:, -1].copy()


def _rk4_integrate(rhs, y0, t0, t1, dt):
    """y(t1) by classical RK4 on the even grid of the fewest steps no longer than dt."""
    n = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
    grid = np.linspace(t0, t1, n + 1)
    y = np.asarray(y0, dtype=complex)
    for k in range(n):
        h = grid[k + 1] - grid[k]
        t = grid[k]
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


# --- exact propagation for piecewise-constant generators ----------------------


def expm_apply(matrix, block: np.ndarray, coeff: complex) -> np.ndarray:
    """exp(coeff * A) @ block, by SciPy's expm_multiply (Al-Mohy & Higham 2011).

    block is a vector or a 2-D block of columns; A is a sparse or dense matrix.
    """
    return expm_multiply(coeff * matrix, block)


def propagate_piecewise(segments, block: np.ndarray) -> np.ndarray:
    """Apply Π_k exp(-i H_k dt_k) to block; segments are (H, dt) with H a sparse matrix.

    block is a vector or a 2-D block of columns, propagated together.
    """
    y = np.asarray(block, dtype=complex)
    for h, dt in segments:
        y = expm_apply(h, y, -1j * dt)
    return y
