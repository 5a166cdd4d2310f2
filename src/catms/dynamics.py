"""Time integration of Schrödinger and Lindblad dynamics.

A Hamiltonian is a CSR matrix (static) or a term list [(H_k, f_k), …] of CSR
matrices and scalar functions of t. States are NumPy arrays: evolve_state
takes and returns a state vector, evolve_density a dense density matrix, each
at the end of the span.

Static and time-dependent generators take different paths:
- A static generator is propagated exactly. expm_apply applies exp(−iH·dt)
  to a vector or a block of columns, and _lindblad_series applies exp(𝓛·dt)
  to a density matrix; both sum the Chebyshev (Jacobi–Anger) series of one
  kernel, _chebyshev_series. evolve_density sends a bare CSR matrix to
  _lindblad_series. The gate runner propagates a coherent full-mode gate with
  expm_apply and every segment of a dissipative gate with evolve_density. A
  coherent effective-mode gate needs neither: its generator commutes with
  S_x, so gates.sx_block_columns propagates it as N+1 small bus blocks.
- A term list (the cat-prep ramp) is integrated by Dormand–Prince 5(4),
  SciPy's RK45 rules, in `dynamics` (solve_ivp), under IntegratorSettings:
  evolve_state for a pure state, evolve_density for a lossy ramp.
Both Lindblad paths apply 𝓛 in the same left-products form (_left_products).
_rk4_integrate is a classical fixed-step RK4 loop over a given right-hand
side; the Josephson path of the single-qubit gate runs through it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import jv


class ToleranceBreach(RuntimeError):
    """Raised when an integration result violates a declared tolerance."""


class StiffSegment(RuntimeError):
    """Raised when the adaptive integrator underflows its step size."""


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances of the adaptive integrator, solve_ivp.

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

    v = solve_ivp(rhs, psi0, t_span, settings,
                  time_dependent=any(f is not None for _, f in terms))
    drift = abs(np.linalg.norm(v) - 1.0)
    if drift > 1e-6:
        warnings.warn(f"state norm drifted by {drift:.2e}; tighten tolerances", stacklevel=2)
    return v


def evolve_density(h, collapse_channels, rho0: np.ndarray, t_span,
                   settings: IntegratorSettings | None = None,
                   check_positivity: bool | None = None) -> np.ndarray:
    """Propagate the Lindblad equation with D[o]ρ = oρo† − (o†oρ + ρo†o)/2.

    rho0 is a dense Hermitian matrix; returns ρ at the end of t_span, made
    Hermitian. Each collapse channel contributes ch.rate·D[o] with
    o = ch.op.matrix. A static h (a CSR matrix) is propagated exactly, by the
    Chebyshev series of exp(𝓛·dt) (_lindblad_series); a term list (see _terms)
    is integrated by solve_ivp under `settings`, which only term lists read. A
    trace drift above 1e-6 is warned about; a result with an eigenvalue below
    −1e-6 raises ToleranceBreach (checked by default up to dimension 256).
    """
    dim = rho0.shape[0]
    rho0 = np.asarray(rho0, dtype=complex)
    if sp.issparse(h):
        m = _lindblad_series(h, collapse_channels, rho0, float(t_span[1]) - float(t_span[0]))
    else:
        terms = _terms(h)
        decay, finish = _left_products(collapse_channels, 1.0, dim)
        terms.append((decay, None))

        def rhs(t, y):
            rho = y.reshape(dim, dim)
            p = _term_sum(terms, t, lambda m: m @ rho)
            p *= -1j
            return finish(p, rho).ravel()

        v = solve_ivp(rhs, rho0.ravel(), t_span, settings or IntegratorSettings(),
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


def _left_products(collapse_channels, scale: float, dim: int):
    """The channel terms of scale·𝓛 in left-products form, for Hermitian ρ.

    With H_eff = H − (i/2)Σ r_k o_k†o_k and X = H_eff·ρ,

        𝓛ρ = −iX + (−iX)† + Σ r_k o_k(o_kρ)†,

    which needs no product ρ·o from the right. The form is right only for a
    Hermitian ρ, where (o_kρ)† = ρo_k†. Returns (decay, finish): decay is the
    CSR matrix −(i/2)Σ r_k o_k†o_k, the anti-Hermitian part of H_eff, and
    finish(p, rho) takes p = −i·scale·X (a fresh array it may overwrite) and
    returns scale·𝓛ρ. It adds the jump terms as P = p + Σ (scale·r_k/2)·
    o_k(o_kρ)† and returns P + P†, so the jump terms come out symmetrised and
    the result is Hermitian to the last bit. Both integrators feed each result
    back into the map, so it keeps getting the Hermitian input it needs.
    """
    decay = sp.csr_matrix((dim, dim), dtype=complex)
    jumps = []
    for ch in collapse_channels:
        o = ch.op.matrix
        decay = decay + (-0.5j * ch.rate) * (o.conj().T @ o)
        jumps.append((np.sqrt(scale * ch.rate / 2) * o).tocsr())
    tmp = np.empty((dim, dim), dtype=complex)

    def finish(p, rho):
        for o in jumps:
            np.conjugate((o @ rho).T, out=tmp)
            p += o @ tmp
        np.conjugate(p.T, out=tmp)
        p += tmp
        return p

    return decay.tocsr(), finish


# Dormand–Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980)):
# nodes, stage weights, fifth-order weights, and E = fourth- minus fifth-order
# weights over the seven stages, the last of which is f at the new point.
# These are the coefficients of SciPy's RK45.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, t0, y0, f0, t1, max_step, rtol, atol) -> float:
    """The first step of Hairer, Nørsett & Wanner (Solving ODEs I, Sec. II.4), for order 4."""
    span = t1 - t0
    if span == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = _rms((rhs(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span, max_step)


def solve_ivp(rhs, y0, t_span, settings: IntegratorSettings, time_dependent: bool):
    """y(t1) by the Dormand–Prince 5(4) pair with SciPy RK45's step-size rules.

    The rules, and so the steps, are those of SciPy's RK45: the error of a
    step is the RMS norm of its estimate over atol + max(|y|, |y_new|)·rtol;
    a step is accepted when that is below 1, and the next step is the last
    one times 0.9·err^(−1/5), held in [0.2, 10] and at most 1 after a
    rejection; the first step comes from _initial_step. A step below 10 ulp
    of t raises StiffSegment, as does a right-hand side that returns NaN.
    y(t1) is the end point of the last step; SciPy's solve_ivp reads it from
    its dense output instead, so the two agree to rounding.

    The name is SciPy's because the benchmark's tracer (bench/tracer.py)
    rebinds dynamics.solve_ivp to count the calls of its first argument, the
    right-hand side; a rename has to change the tracer with it.
    """
    t, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t:
        raise ValueError("t_span must not run backwards")
    rtol, atol = settings.rtol, settings.atol
    # a static generator needs no step cap; a time-dependent one must not
    # skate over features of H(t)
    max_step = max((t1 - t) / 1000.0, 1e-12) if time_dependent else np.inf
    y = np.array(y0, dtype=complex)
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t1, max_step, rtol, atol)
    k = np.empty((7, y.size), dtype=complex)
    while t < t1:
        min_step = 10 * abs(np.nextafter(t, np.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a NaN step
                raise StiffSegment(f"step size fell below {min_step:.1e} at t = {t}")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = h
            k[0] = f
            for s in range(1, 6):
                k[s] = rhs(t + _DP_C[s] * h, y + np.dot(k[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(k[:6].T, _DP_B)
            f_new = k[6] = rhs(t_new, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(k.T, _DP_E) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)  # a NaN err gives 0.2
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y


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
"""The series stops at the first order k > z whose bound on its term is below this."""


def _chebyshev_series(two_x, y0: np.ndarray, z: float, margin: float = 0.0,
                      bound: float = 1.0, phase: complex = 1.0,
                      real: bool = False) -> np.ndarray:
    """phase·exp(−izX)·y0 by the Jacobi–Anger expansion, from the map two_x.

    exp(−izX) = Σ_k (2 − δ_k0)(−i)^k J_k(z) T_k(X) (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967 (1984)), with T_k(X)·y0 from the three-term
    recurrence, one application of two_x each, in one of two forms:
    - real=False: two_x applies 2X, the terms are T_k(X)·y0 and
      T_{k+1} = 2X·T_k − T_{k−1};
    - real=True, for X = iB: two_x applies 2B, the terms are
      S_k = (−i)^k T_k(X)·y0 and S_{k+1} = 2B·S_k + S_{k−1}. The powers of −i
      leave the coefficients, which are then the real (2 − δ_k0)J_k(z), so a
      B that maps Hermitian matrices to Hermitian ones gives Hermitian terms
      and a Hermitian sum.

    The truncation error after N terms is at most Σ_{k≥N} 2|J_k(z)|·‖T_k(X)‖
    ·‖y0‖. The caller bounds ‖T_k(X)‖ ≤ bound·e^{margin·k} (bound 1 and
    margin 0 when X is Hermitian with its spectrum in [−1, 1]), and the sum
    stops at the first order N > z with bound·|J_N(z)|·e^{margin·N} below
    _CHEBYSHEV_TAIL, or at 2 if that is smaller. Past k ≈ z, J_k(z) falls off
    faster than any geometric sequence, so the neglected tail is of the size
    of its first term. The orders are searched up to z + 12·z^(1/3) + 40
    first, which holds the stop order of a Hermitian X up to z = 1e5 at least,
    and then in ranges twice as long until it is found.

    two_x must return a fresh array: the loop adds to it in place.
    """
    n = int(z + 12 * np.cbrt(z)) + 40
    while True:
        k = np.arange(n)
        jk = jv(k, z)
        with np.errstate(over="ignore", invalid="ignore"):
            term = bound * np.abs(jk) * np.exp(margin * k)
        hits = np.flatnonzero((k > z) & (term < _CHEBYSHEV_TAIL))
        if hits.size:
            break
        n *= 2
    k = k[:max(hits[0], 2)]
    rot = 1 if real else np.array([1, -1j, -1, 1j])[k % 4]  # (−i)^k exactly
    coef = 2 * rot * jk[k]
    coef[0] /= 2
    coef = phase * coef
    prev, cur = y0, 0.5 * two_x(y0)
    out = coef[0] * prev + coef[1] * cur
    for ck in coef[2:]:
        nxt = two_x(cur)
        if real:
            nxt += prev
        else:
            nxt -= prev
        prev, cur = cur, nxt
        out += ck * cur
    return out


def _gershgorin(h) -> tuple[float, float]:
    """(lo, hi): an interval that holds the spectrum of the Hermitian matrix h."""
    d = h.diagonal().real
    r = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(d)
    return (d - r).min(), (d + r).max()


def expm_apply(h, block: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) @ block for a Hermitian CSR matrix H, by its Chebyshev expansion.

    block is a vector or a 2-D block of columns. H must be Hermitian: the
    expansion assumes a real spectrum. Gershgorin's discs give an interval
    [c − w, c + w] that contains it, and with H̃ = (H − c)/w, whose spectrum
    lies in [−1, 1],

        exp(-i H dt) = e^{-icdt} exp(−i·w·dt·H̃),

    which _chebyshev_series sums with margin 0: one sparse product by 2H̃
    per order, and about w·dt + 11(w·dt)^(1/3) orders.
    """
    block = np.asarray(block, dtype=complex)
    lo, hi = _gershgorin(h)
    c, w = (hi + lo) / 2, (hi - lo) / 2
    phase = np.exp(-1j * c * dt)
    if w == 0:  # H = c·I
        return phase * block
    two_h = (2 / w) * (h - c * sp.identity(h.shape[0], format="csr"))  # 2H̃
    return _chebyshev_series(two_h.__matmul__, block, w * dt, phase=phase)


def _lindblad_series(h, collapse_channels, rho0: np.ndarray, dt: float) -> np.ndarray:
    """exp(𝓛·dt)·ρ0 for a static Lindbladian, by its Chebyshev series.

    h is a Hermitian CSR matrix, rho0 a dense Hermitian matrix, and the
    channels are those of evolve_density. 𝓛 is applied in left-products form
    (_left_products), and _chebyshev_series sums exp(z·B) = exp(−izX) with
    B = 𝓛/w, X = iB and z = w·dt, in its real form. Its terms S_k are real
    polynomials in 𝓛 applied to ρ0, so they are Hermitian, as the
    left-products form needs.

    Interval, margin and bound. Take norms on the matrices under the
    Frobenius inner product, and two numbers:
    - W = hi − lo of H's Gershgorin interval. The eigenvalues of H lie in
      [lo, hi], so the commutator [H, ·], a Hermitian superoperator, has its
      spectrum {λ_i − λ_j} in [−W, W].
    - G = Σ r_k‖o_k†o_k‖_∞ (the largest row sum, which bounds the spectral
      norm of the Hermitian o_k†o_k). ρ ↦ oρo† and ρ ↦ {o†o, ρ}/2 both have
      norm at most ‖o†o‖, so the dissipator 𝓓 = 𝓛 + i[H, ·] has ‖𝓓‖ ≤ 2G.
    Then X = iB = Y + Δ, with Y = [H, ·]/w Hermitian and its spectrum in
    [−a, a], a = W/w, and ‖Δ‖ = ‖𝓓‖/w ≤ δ = 2G/w. Let w = W + 4G, so that
    a + 2δ = 1. The Bernstein ellipse E_η (foci ±1, semi-axes cosh η and
    sinh η) lies at least sinh η·√(1 − a²) from [−a, a] (the distance from
    the end a, the nearest point of the segment, while a·cosh η ≤ 1, and a
    lower bound on it beyond), and the margin η = asinh(2δ/√(1 − a²)) makes
    that 2δ. On E_η, ‖(ζ − X)^{-1}‖ ≤ 1/(2δ − δ) (a Neumann series about the
    Hermitian Y) and |T_k(ζ)| ≤ cosh(kη), and E_η is at most 2π·cosh η long.
    The Cauchy integral T_k(X) = (2πi)^{-1}∮ T_k(ζ)(ζ − X)^{-1}dζ over E_η
    then gives ‖T_k(X)‖ ≤ bound·e^{kη} with bound = cosh(η)/δ.

    Sub-steps. The bound lets the terms grow as e^{ηk} before they cancel,
    and that growth is real for components of ρ near the ends of [H, ·]'s
    spectrum: rounding in the sum scales with it. dt is split into the
    fewest equal sub-steps with η·z ≤ ln 100 each, so e^{ηk} stays near 100
    or below over the orders k ≲ z where |J_k(z)| is not yet negligible.
    The prefactor bound, about w/(2G), is the price of the contour's
    closeness to the spectrum, not a growth, and adds a few orders only.

    With no channels (G = 0), X = Y: margin 0, bound 1 and one step, as in
    expm_apply; when 𝓛 = 0 as well, ρ0 is returned.
    """
    dim = rho0.shape[0]
    lo, hi = _gershgorin(h)
    g = sum(ch.rate * abs(ch.op.matrix.conj().T @ ch.op.matrix).sum(axis=1).max()
            for ch in collapse_channels)
    w = (hi - lo) + 4 * g
    if w == 0:  # H = c·I and no channels: 𝓛 = 0
        return rho0.copy()
    margin, bound = 0.0, 1.0
    if g > 0:
        a, delta = (hi - lo) / w, 2 * g / w
        margin = np.arcsinh(2 * delta / np.sqrt(1 - a * a))
        bound = np.cosh(margin) / delta
    n_sub = max(1, int(np.ceil(margin * w * dt / np.log(100))))
    decay, finish = _left_products(collapse_channels, 2 / w, dim)
    k_eff = ((-2j / w) * (h + decay)).tocsr()  # −(2i/w)·H_eff

    def two_b(s):
        return finish(k_eff @ s, s)

    rho = rho0
    for _ in range(n_sub):
        rho = _chebyshev_series(two_b, rho, w * dt / n_sub, margin, bound, real=True)
    return rho


def propagate_piecewise(segments, block: np.ndarray) -> np.ndarray:
    """Apply Π_k exp(-i H_k dt_k) to block; segments are (H, dt) with H a Hermitian CSR matrix.

    block is a vector or a 2-D block of columns, propagated together.
    """
    y = np.asarray(block, dtype=complex)
    for h, dt in segments:
        y = expm_apply(h, y, dt)
    return y
