"""Time integration of Schrödinger and Lindblad dynamics.

Two integrator families:
  - rk4_fixed: classical fixed-step RK4 (used for convergence checks),
  - rkf45_adaptive: adaptive embedded Runge-Kutta via scipy's RK45.

For piecewise-constant generators there is also an exact propagator: SciPy's
expm_multiply applies each segment's exponential to a vector or to a block of
columns, which is how the gate runner propagates the computational basis.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

from .hilbert import DensityMatrix, SparseOperator, StateVector


class ToleranceBreach(RuntimeError):
    """Raised when an integration result violates a declared tolerance."""


class StiffSegment(RuntimeError):
    """Raised when the adaptive integrator underflows its step size."""


@dataclass(frozen=True)
class IntegratorSettings:
    method: str = "rkf45_adaptive"  # or "rk4_fixed"
    dt: float | None = None  # required for rk4_fixed
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float | None = None  # default t_span/1000 for time-dependent H, else unbounded

    def __post_init__(self):
        if self.method not in ("rk4_fixed", "rkf45_adaptive"):
            raise ValueError(f"unknown integrator {self.method!r}")
        if self.method == "rk4_fixed" and (self.dt is None or self.dt <= 0):
            raise ValueError("rk4_fixed requires a positive dt")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class EvolutionResult:
    times: np.ndarray
    states: list  # StateVector or DensityMatrix per output time
    observables: dict[str, np.ndarray] | None = None

    @property
    def final(self):
        return self.states[-1]


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


def _rk4_steps(t0: float, t1: float, dt: float):
    n = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
    return np.linspace(t0, t1, n + 1)


def _output_times(t_span, t_eval):
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        return np.array([t0, t1])
    te = np.asarray(t_eval, dtype=float)
    if np.any(np.diff(te) <= 0):
        raise ValueError("t_eval must be strictly increasing")
    return te


def evolve_state(h, psi0: StateVector, t_span, settings: IntegratorSettings | None = None,
                 t_eval=None) -> EvolutionResult:
    """Integrate i dψ/dt = H(t) ψ.  h is a SparseOperator or a term list (see _terms)."""
    settings = settings or IntegratorSettings()
    terms = _terms(h)
    times = _output_times(t_span, t_eval)

    def rhs(t, y):
        return -1j * _term_sum(terms, t, lambda m: m @ y)

    states_raw = _integrate(rhs, psi0.amplitudes, t_span, times, settings,
                            time_dependent=any(f is not None for _, f in terms))
    drift = max(abs(np.linalg.norm(v) - 1.0) for v in states_raw)
    if drift > 1e-6:
        warnings.warn(f"state norm drifted by {drift:.2e}; tighten tolerances", stacklevel=2)
    states = [StateVector(psi0.space, v) for v in states_raw]
    return EvolutionResult(times, states)


def evolve_density(h, collapse_channels, rho0: DensityMatrix, t_span,
                   settings: IntegratorSettings | None = None, t_eval=None,
                   check_positivity: bool | None = None) -> EvolutionResult:
    """Integrate the Lindblad equation with D[o]ρ = oρo† − (o†oρ + ρo†o)/2.

    h is a SparseOperator or a term list (see _terms).
    """
    settings = settings or IntegratorSettings()
    terms = _terms(h)
    times = _output_times(t_span, t_eval)
    dim = rho0.space.dim

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

    states_raw = _integrate(rhs, rho0.entries.ravel(), t_span, times, settings,
                            time_dependent=any(f is not None for _, f in terms))
    states = []
    for v in states_raw:
        m = v.reshape(dim, dim)
        m = (m + m.conj().T) / 2  # enforce Hermiticity at output times
        states.append(DensityMatrix(rho0.space, m))
    tr_drift = max(abs(s.trace() - 1.0) for s in states)
    if tr_drift > 1e-6:
        warnings.warn(f"trace drifted by {tr_drift:.2e}; tighten tolerances", stacklevel=2)
    if check_positivity is None:
        check_positivity = dim <= 256
    if check_positivity:
        w = np.linalg.eigvalsh(states[-1].entries)
        if w.min() < -1e-6:
            raise ToleranceBreach(f"min eigenvalue {w.min():.2e} below -1e-6")
    return EvolutionResult(times, states)


def _integrate(rhs, y0, t_span, out_times, settings: IntegratorSettings,
               time_dependent: bool = True):
    t0, t1 = float(t_span[0]), float(t_span[1])
    if settings.method == "rk4_fixed":
        return _rk4_integrate(rhs, y0, t0, t1, out_times, settings.dt)
    max_step = settings.max_step
    if max_step is None:
        # a static generator needs no step cap; a time-dependent one must not
        # skate over features of H(t)
        max_step = max((t1 - t0) / 1000.0, 1e-12) if time_dependent else np.inf
    sol = solve_ivp(
        rhs, (t0, t1), np.asarray(y0, dtype=complex), method="RK45",
        t_eval=out_times, rtol=settings.rtol, atol=settings.atol, max_step=max_step,
    )
    if not sol.success:
        raise StiffSegment(f"adaptive integrator failed: {sol.message}")
    return [sol.y[:, k].copy() for k in range(sol.y.shape[1])]


def _rk4_integrate(rhs, y0, t0, t1, out_times, dt):
    y = np.asarray(y0, dtype=complex).copy()
    out = []
    t_prev = t0
    for t_out in out_times:
        if t_out < t_prev - 1e-15:
            raise ValueError("output times must be within the span and increasing")
        grid = _rk4_steps(t_prev, t_out, dt) if t_out > t_prev else [t_prev]
        for k in range(len(grid) - 1):
            h = grid[k + 1] - grid[k]
            t = grid[k]
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y.copy())
        t_prev = t_out
    return out


# --- exact propagation for piecewise-constant generators ----------------------


def expm_apply(matrix, block: np.ndarray, coeff: complex) -> np.ndarray:
    """exp(coeff * A) @ block, by SciPy's expm_multiply (Al-Mohy & Higham 2011).

    block is a vector or a 2-D block of columns; A is sparse, dense or a
    SparseOperator.
    """
    if isinstance(matrix, SparseOperator):
        matrix = matrix.matrix
    return expm_multiply(coeff * matrix, block)


def propagate_piecewise(segments, block: np.ndarray) -> np.ndarray:
    """Apply Π_k exp(-i H_k dt_k) to block; segments are (H, dt) with H sparse/operator.

    block is a vector or a 2-D block of columns, propagated together.
    """
    y = np.asarray(block, dtype=complex)
    for h, dt in segments:
        y = expm_apply(h, y, -1j * dt)
    return y
