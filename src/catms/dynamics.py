"""Time integration of Schrödinger and Lindblad dynamics.

evolve_state and evolve_density integrate with SciPy's adaptive embedded
Runge-Kutta (RK45). A Hamiltonian is a CSR matrix or a term list
[(H_k, f_k), …] of CSR matrices and scalar functions of t. States are NumPy
arrays: evolve_state takes and returns a state vector, evolve_density a dense
density matrix, each at the end of the span.
_rk4_integrate is a classical fixed-step RK4 loop over a given right-hand
side; the Josephson path of the single-qubit gate runs through it.

For piecewise-constant Hermitian generators there is also an exact
propagator: expm_apply applies each segment's exponential to a vector or to a
block of columns by its Chebyshev expansion. The gate runner propagates the
computational basis of a coherent full-mode gate with it. A coherent
effective-mode gate does not use it: its generator commutes with S_x, so
gates.sx_block_columns propagates it as N+1 small bus blocks.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.special import jv


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

    h is a term list [(H_k, f_k), …] of CSR matrices and scalar functions of
    t, or a bare CSR matrix, which is one static term.
    """
    return [(h, None)] if sp.issparse(h) else list(h)


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

    h is a CSR matrix or a term list (see _terms). A norm drift above
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
    Hermitian. h is a CSR matrix or a term list (see _terms), and each
    collapse channel contributes ch.rate·D[o] with o = ch.op.matrix. A trace
    drift above 1e-6 is warned about; a result with an eigenvalue below −1e-6
    raises ToleranceBreach (checked by default up to dimension 256).
    """
    settings = settings or IntegratorSettings()
    terms = _terms(h)
    dim = rho0.shape[0]

    ops = []
    for ch in collapse_channels:
        o = ch.op.matrix
        od = o.conj().T
        ops.append((ch.rate, o, od.tocsr(), (od @ o).tocsr()))

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


_CHEBYSHEV_TAIL = 1e-16
"""The expansion stops at the first order k > w·dt with |J_k(w·dt)| below this."""


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """(2 − δ_k0)(−i)^k J_k(z) for k = 0, 1, … up to the stop order, excluded.

    The stop order is the first k > z with |J_k(z)| < _CHEBYSHEV_TAIL, or 2 if
    that is smaller. Past k ≈ z, J_k(z) falls off in an Airy tail of width
    ~z^(1/3), and the stop order lies below z + 12·z^(1/3) + 40 (from z + 1 at
    z = 0 to z + 10.3·z^(1/3) at z = 1e5), so the orders up to there suffice.
    """
    k = np.arange(int(z + 12 * np.cbrt(z)) + 40)
    jk = jv(k, z)
    stop = np.flatnonzero((k > z) & (np.abs(jk) < _CHEBYSHEV_TAIL))[0]
    coef = 2 * np.array([1, -1j, -1, 1j])[k % 4] * jk  # (−i)^k exactly
    coef[0] /= 2
    return coef[:max(stop, 2)]


def expm_apply(h, block: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) @ block for a Hermitian CSR matrix H, by its Chebyshev expansion.

    block is a vector or a 2-D block of columns. H must be Hermitian: the
    expansion assumes a real spectrum. Gershgorin's discs give an interval
    [c − w, c + w] that contains it, and with H̃ = (H − c)/w, whose spectrum
    lies in [−1, 1],

        exp(-i H dt) = e^{-icdt} Σ_k (2 − δ_k0)(−i)^k J_k(w·dt) T_k(H̃)

    (the Jacobi–Anger expansion; Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)). The T_k(H̃)·block come from the three-term recurrence T_{k+1} =
    2H̃T_k − T_{k−1}, one sparse product each; about w·dt + 11(w·dt)^(1/3)
    of them are needed (see _chebyshev_coefficients).
    """
    block = np.asarray(block, dtype=complex)
    d = h.diagonal().real
    r = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(d)
    lo, hi = (d - r).min(), (d + r).max()
    c, w = (hi + lo) / 2, (hi - lo) / 2
    phase = np.exp(-1j * c * dt)
    if w == 0:  # H = c·I
        return phase * block
    coef = phase * _chebyshev_coefficients(w * dt)
    two_h = (2 / w) * (h - c * sp.identity(h.shape[0], format="csr"))  # 2H̃
    prev, cur = block, 0.5 * (two_h @ block)
    out = coef[0] * prev + coef[1] * cur
    for ck in coef[2:]:
        nxt = two_h @ cur
        nxt -= prev
        prev, cur = cur, nxt
        out += ck * cur
    return out


def propagate_piecewise(segments, block: np.ndarray) -> np.ndarray:
    """Apply Π_k exp(-i H_k dt_k) to block; segments are (H, dt) with H a Hermitian CSR matrix.

    block is a vector or a 2-D block of columns, propagated together.
    """
    y = np.asarray(block, dtype=complex)
    for h, dt in segments:
        y = expm_apply(h, y, dt)
    return y
