"""Time integration of Schrödinger and Lindblad dynamics.

A Hamiltonian is a CSR matrix (static) or a term list [(H_k, f_k), …] of CSR
matrices and scalar functions of t. States are NumPy arrays: evolve_state
takes and returns a state vector, evolve_density a dense density matrix, each
at the end of the span.

Static and time-dependent generators take different paths:
- A static Hermitian H (expm_apply, on a vector or a block of columns) and a
  static Lindbladian 𝓛 (evolve_density, through _lindblad_series) are
  propagated exactly, by one Chebyshev (Jacobi–Anger) series: one
  recurrence, _chebyshev_series, and one set-up rule, _chebyshev_propagate,
  which takes the interval of the generator's Hermitian part and a bound on
  its dissipator; each caller only builds its map. The gate runner
  propagates a coherent full-mode gate with propagate_piecewise and every
  segment of a dissipative gate with evolve_density. A coherent
  effective-mode gate needs neither: its generator commutes with S_x, so
  gates.sx_block_columns propagates it as small bus blocks, one per
  S_x = s > 0.
- A term list (the cat-prep ramp), and a bare CSR matrix given to
  evolve_state (which need not be Hermitian), are integrated by
  Dormand–Prince 5(4), SciPy's RK45 rules, in `dynamics` (solve_ivp), at
  the tolerances RTOL and ATOL: evolve_state for a pure state,
  evolve_density for a lossy ramp. Both hold −i·H(t), with the decay
  −(i/2)Σ r_k o_k†o_k as one more static term of a lossy ramp, as one CSR
  matrix per sector (_term_operator), whose entries each right-hand-side
  call rewrites for its t: one sparse product per sector and call, whatever
  the number of terms.
Both Lindblad paths apply 𝓛 through one map, the left-products form of
_left_products, each handing it its blocks of −i·H_eff.
_rk4_integrate is a classical fixed-step RK4 loop over a given right-hand
side; the Josephson path of the single-qubit gate runs through it.

Sectors. propagate_piecewise, evolve_density and _lindblad_series also take
a state as its sectors (_sectors): the gate's two total photon-number
parities, or, for a two-KPO density matrix, the total parity × exchange
parity sectors of the exchange-adapted basis that ρ can reach
(gates.GateModel.exchange_frame). Each operator maps every sector to exactly
one sector (_sector_blocks), each sector holds only its own block, and the
cross blocks, which stay exactly 0, are never formed. A bare array is the
one-sector case of the same code.
"""
from __future__ import annotations

import itertools
import math
import operator
import warnings

import numpy as np
import scipy.sparse as sp


class ToleranceBreach(RuntimeError):
    """Raised when an integration result violates a declared tolerance."""


class StiffSegment(RuntimeError):
    """Raised when the adaptive integrator underflows its step size."""


# The relative and absolute tolerances of the adaptive integrator, solve_ivp.
# Its step cap is derived, not set: span/1000 for a time-dependent generator
# and none for a static one.
RTOL = 1e-9
ATOL = 1e-11


def _terms(h) -> list:
    """(matrix, f) pairs of H(t) = Σ f_k(t)·H_k; f_k is None for a static term.

    h is a term list [(H_k, f_k), …] of CSR matrices and scalar functions of
    t, or a bare CSR matrix, which is one static term. The integrators do not
    sum the terms' products: _term_operator stacks the terms into one CSR
    matrix per sector, so a right-hand side makes one product per sector.
    """
    return [(h, None)] if sp.issparse(h) else list(h)


def _term_operator(terms, sectors):
    """at(t) -> [Σ f_k(t)·H_k[I_s, I_s] for each sector s], one CSR matrix each.

    Each sector's matrix is built once, on the union of the terms' sparsity
    patterns in its block (_generator_blocks), and row k of its array D holds
    the entries of term k at those positions, 0 where the term has none.
    at(t) writes f(t)·D, with f_k = 1 for a static term, into the matrices'
    data and returns them, so a product with H(t) costs one sparse product
    per sector whatever the number of terms. The matrices are rewritten in
    place by the next call.
    """
    fs = [f for _, f in terms]
    blocks = [_generator_blocks(m, sectors) for m, _ in terms]
    mats, ds = [], []
    for s, idx in enumerate(sectors):
        n = len(idx)
        coos = [b[s].tocoo() for b in blocks]
        keys = [c.row.astype(np.int64) * n + c.col for c in coos]  # row-major positions
        union = np.unique(np.concatenate(keys))
        d = np.zeros((len(terms), union.size), dtype=complex)
        for row, c, key in zip(d, coos, keys):
            np.add.at(row, np.searchsorted(union, key), c.data)
        rows, cols = np.divmod(union, n)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        mats.append(sp.csr_matrix((d[0].copy(), cols, indptr), shape=(n, n)))
        ds.append(d)

    def at(t):
        coef = np.array([1.0 if f is None else f(t) for f in fs])
        for m, d in zip(mats, ds):
            np.matmul(coef, d, out=m.data)
        return mats

    return at


def evolve_state(h, psi0: np.ndarray, t_span) -> np.ndarray:
    """Integrate i dψ/dt = H(t) ψ from the vector psi0 and return ψ at the end of t_span.

    h is a CSR matrix or a term list (see _terms); −i·H(t) is one CSR matrix
    (_term_operator). A norm drift above 1e-6 is warned about.
    """
    terms = _terms(h)
    generator = _term_operator([(-1j * m, f) for m, f in terms], [np.arange(len(psi0))])

    def rhs(t, y):
        return generator(t)[0] @ y

    v = solve_ivp(rhs, psi0, t_span, time_dependent=any(f is not None for _, f in terms))
    drift = abs(np.linalg.norm(v) - 1.0)
    if drift > 1e-6:
        warnings.warn(f"state norm drifted by {drift:.2e}", stacklevel=2)
    return v


def evolve_density(h, collapse_channels, rho0, t_span):
    """Propagate the Lindblad equation with D[o]ρ = oρo† − (o†oρ + ρo†o)/2.

    rho0 is a dense Hermitian matrix, or a block-diagonal one given as its
    sectors (_sectors); returns ρ at the end of t_span in the same form, made
    Hermitian. Each collapse channel contributes ch.rate·D[o] with
    o = ch.op.matrix, on the whole space. A static h (a CSR matrix) is
    propagated exactly, by the Chebyshev series of exp(𝓛·dt)
    (_lindblad_series); a term list (see _terms) is integrated by solve_ivp.
    A trace drift above 1e-6 is warned about; a result of dimension up to 256
    with an eigenvalue below −1e-6 raises ToleranceBreach.
    """
    blocks = _sectors(rho0)
    sectors = [idx for idx, _ in blocks]
    if sp.issparse(h):
        blocks = _lindblad_series(h, collapse_channels, blocks,
                                  float(t_span[1]) - float(t_span[0]))
    else:
        terms = _terms(h)
        decay, apply = _left_products(collapse_channels, _decay_products(collapse_channels),
                                      1.0, sectors)
        # −i·H_eff(t), the decay as one more static term
        generator = _term_operator([(-1j * m, f) for m, f in terms + [(decay, None)]], sectors)
        v = solve_ivp(lambda t, y: apply(generator(t), y), _flat(blocks), t_span,
                      time_dependent=any(f is not None for _, f in terms))
        blocks = list(zip(sectors, _views(v, sectors)))
    blocks = [(idx, (m + m.conj().T) / 2) for idx, m in blocks]  # enforce Hermiticity
    tr_drift = abs(sum(np.trace(m) for _, m in blocks) - 1.0)
    if tr_drift > 1e-6:
        warnings.warn(f"trace drifted by {tr_drift:.2e}", stacklevel=2)
    if sum(map(len, sectors)) <= 256:
        # ρ is block-diagonal, so its spectrum is the union of its blocks'
        w = min(np.linalg.eigvalsh(m).min() for _, m in blocks)
        if w < -1e-6:
            raise ToleranceBreach(f"min eigenvalue {w:.2e} below -1e-6")
    return blocks if isinstance(rho0, list) else blocks[0][1]


def _sectors(x) -> list:
    """x as a list of (indices, block) pairs over sectors I_s that partition the basis.

    Every operator maps each sector to exactly one sector. A block-diagonal ρ
    is held as its blocks ρ[I_s, I_s], a block of columns as the rows I_s of the
    columns that lie in sector s. A bare array is one sector, the whole space.
    """
    if isinstance(x, list):
        return x
    x = np.asarray(x, dtype=complex)
    return [(np.arange(x.shape[0]), x)]


def _sector_blocks(m, sectors) -> list:
    """(s, t, m[I_t, I_s]) for each sector s: the one nonzero block of m that leaves s.

    m must map each sector s to exactly one sector t, which its nonzero
    entries in the columns I_s name (t = s when those columns hold none): a
    parity-keeping H or dephasing has t = s on the parity pair, a loss
    t = s ^ 1, and on the four exchange sectors of gates.GateModel the
    antisymmetric part o₋ of a KPO loss t = s ^ 3. An m that sends a sector
    into two sectors, or sectors that leave a basis index out, raise
    ValueError. Each block keeps the entries of its rows in their order, so a
    product with it sums what the whole-space product sums, in the same
    order.
    """
    label, local = np.full(m.shape[0], -1), np.empty(m.shape[0], dtype=int)
    for s, idx in enumerate(sectors):
        label[idx], local[idx] = s, np.arange(len(idx))
    if (label < 0).any():
        raise ValueError("the sectors leave a basis index out")
    c = m.tocoo()
    row, col = label[c.row], label[c.col]
    nz = c.data != 0
    hit = np.zeros((len(sectors),) * 2, dtype=bool)  # hit[s, t]: an entry leads from s to t
    hit[col[nz], row[nz]] = True
    blocks = []
    for s, idx in enumerate(sectors):
        ts = np.flatnonzero(hit[s])
        if ts.size > 1:
            raise ValueError("operator has entries both within and across the sectors" if s in ts
                             else f"operator maps sector {s} into sectors {ts.tolist()}")
        t = int(ts[0]) if ts.size else s
        at = (col == s) & (row == t)
        blocks.append((s, t, sp.csr_matrix(
            (c.data[at], (local[c.row[at]], local[c.col[at]])), shape=(len(sectors[t]), len(idx)))))
    return blocks


def _generator_blocks(h, sectors) -> list:
    """The diagonal blocks H[I_s, I_s] of a generator, which must keep every sector."""
    blocks = _sector_blocks(h, sectors)
    if any(s != t for s, t, _ in blocks):
        raise ValueError("the generator swaps the sectors")
    return [m for _, _, m in blocks]


def _flat(blocks) -> np.ndarray:
    """The square blocks of a list of (indices, block) pairs, raveled and concatenated."""
    return np.concatenate([np.asarray(m, dtype=complex).ravel() for _, m in blocks])


def _views(y: np.ndarray, sectors) -> list:
    """The square blocks, one per sector, that _flat concatenated into y, as views."""
    views, start = [], 0
    for idx in sectors:
        n = len(idx)
        views.append(y[start:start + n * n].reshape(n, n))
        start += n * n
    return views


def _decay_products(collapse_channels) -> list:
    """o_k†o_k of every channel, o_k = ch.op.matrix, as CSR matrices."""
    return [ch.op.matrix.conj().T @ ch.op.matrix for ch in collapse_channels]


def _left_products(collapse_channels, products, scale: float, sectors):
    """The Lindblad map scale·𝓛 in left-products form, for Hermitian ρ.

    With H_eff = H − (i/2)Σ r_k o_k†o_k and X = H_eff·ρ,

        𝓛ρ = −iX + (−iX)† + Σ r_k o_k(o_kρ)†,

    which needs no product ρ·o from the right. The form is right only for a
    Hermitian ρ, where (o_kρ)† = ρo_k†. `products` holds the o_k†o_k
    (_decay_products), which the caller forms once.

    ρ is block-diagonal over `sectors`, and each o_k maps every sector s to
    exactly one sector t (_sector_blocks): the same one or its partner on the
    parity pair, any of the four on the exchange sectors of a two-KPO gate.
    So o_k†o_k keeps them, the jump term takes ρ_s to
    o_k[I_t, I_s]·ρ_s·o_k[I_t, I_s]† in sector t, and 𝓛ρ is block-diagonal
    again. A block with no entries adds nothing and is left out. Returns
    (decay, apply): decay is the CSR matrix −(i/2)Σ r_k o_k†o_k,
    the anti-Hermitian part of H_eff, on the whole space, and apply(ks, y)
    takes the blocks ks[s] of −i·scale·H_eff (the caller adds H to decay and
    splits the sum, _generator_blocks) and ρ in the flat form of _flat, and
    returns scale·𝓛ρ in the same form. It forms P_s = ks[s]·ρ_s, adds the
    jump terms as P += Σ (scale·r_k/2)·o_k(o_kρ)† and returns P + P†, so the
    jump terms come out symmetrised and the result is Hermitian to the last
    bit. Both integrators feed each result back into the map, so it keeps
    getting the Hermitian input it needs.
    """
    dim = sum(len(idx) for idx in sectors)
    decay = sp.csr_matrix((dim, dim), dtype=complex)
    jumps, bufs = [], {}
    for ch, odo in zip(collapse_channels, products):
        decay = decay + (-0.5j * ch.rate) * odo
        for s, t, block in _sector_blocks(np.sqrt(scale * ch.rate / 2) * ch.op.matrix, sectors):
            if block.count_nonzero():
                jumps.append((s, t, block))
                bufs.setdefault(block.shape[::-1], np.empty(block.shape[::-1], dtype=complex))
    size = sum(len(idx) ** 2 for idx in sectors)

    def apply(ks, y):
        rhos = _views(y, sectors)
        ps = [k @ rho for k, rho in zip(ks, rhos)]
        for s, t, o in jumps:
            tmp = bufs[o.shape[::-1]]
            np.conjugate((o @ rhos[s]).T, out=tmp)
            ps[t] += o @ tmp
        out = np.empty(size, dtype=complex)
        for p, v in zip(ps, _views(out, sectors)):
            np.conjugate(p.T, out=v)
            v += p
        return out

    return decay.tocsr(), apply


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


def _initial_step(rhs, t0, y0, f0, t1, max_step) -> float:
    """The first step of Hairer, Nørsett & Wanner (Solving ODEs I, Sec. II.4), for order 4."""
    span = t1 - t0
    if span == 0.0:
        return 0.0
    scale = ATOL + np.abs(y0) * RTOL
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = _rms((rhs(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span, max_step)


def solve_ivp(rhs, y0, t_span, time_dependent: bool):
    """y(t1) by the Dormand–Prince 5(4) pair with SciPy RK45's step-size rules.

    The rules, and so the steps, are those of SciPy's RK45: the error of a
    step is the RMS norm of its estimate over ATOL + max(|y|, |y_new|)·RTOL;
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
    # a static generator needs no step cap; a time-dependent one must not
    # skate over features of H(t)
    max_step = max((t1 - t) / 1000.0, 1e-12) if time_dependent else np.inf
    y = np.array(y0, dtype=complex)
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t1, max_step)
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
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
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


def _bessel_j(n: int, z: float) -> np.ndarray:
    """J_0(z), …, J_{n−1}(z) for z ≥ 0, by Miller's backward recurrence.

    J_{k−1} = (2k/z)·J_k − J_{k+1} is stable downwards, where J is the
    minimal solution (Gautschi, SIAM Rev. 9, 24 (1967); Abramowitz & Stegun
    §9.12). It starts at an order M with J_{M+1} = 0, J_M = 1, and the result
    is normalised by J_0 + 2ΣJ_2k = 1 (A&S 9.1.46), the sum taken with
    math.fsum.

    Start order. From m0 = max(n, ⌊z⌋ + 1), the forward recurrence seeded
    with 0 and 1 grows like Y_m, and M is the order where it passes 1e17.
    The start's relative error at an order k ≤ m0 is about (Y_k/Y_M)² ≤ 1e-34,
    and J_M is about 1e-17·J_{m0}, so the orders past M, left out of the
    normalisation, are negligible.

    Scaling. Above k0 = ⌊z⌋ the recurrence runs on the ratios
    r_k = J_k/J_{k−1} = z/(2k − z·r_{k+1}), which stay in (0, 1) for k > z;
    that is the recurrence rescaled at every step. The values there are the
    products J_{k0}·r_{k0+1}···r_k, which underflow to 0 where J_k is below
    double range. Below k0 the recurrence runs on the values, from
    J_{k0} = 1. J_{k0}(z) lies at the turning point, where |J_k(z)| is near
    its largest (about 0.45·z^(−1/3) against at most 0.79·z^(−1/3)), so the
    values stay of order 1. No intermediate overflows, whatever z and n.
    z = 0 gives δ_k0.
    """
    if z == 0.0:
        out = np.zeros(n)
        out[0] = 1.0
        return out
    k0 = int(z)
    m = max(n, k0 + 1)
    y_prev, y = 0.0, 1.0
    while y < 1e17:
        y_prev, y = y, (2 * m / z) * y - y_prev
        m += 1
    r, ratios = 0.0, []
    for k in range(m, k0, -1):
        r = z / (2 * k - z * r)
        ratios.append(r)
    ratios.reverse()  # r_{k0+1}, …, r_M
    j, cur, nxt = [1.0], 1.0, ratios[0]
    for k in range(k0, 0, -1):
        cur, nxt = (2 * k / z) * cur - nxt, cur
        j.append(cur)
    j.reverse()
    j += itertools.accumulate(ratios, operator.mul)  # J_0, …, J_M up to one factor
    return np.array(j[:n]) / (j[0] + 2 * math.fsum(j[2::2]))


def _chebyshev_series(two_b, y0: np.ndarray, z: float, margin: float = 0.0,
                      bound: float = 1.0) -> np.ndarray:
    """exp(zB)·y0 by the Jacobi–Anger expansion, from the map two_b = 2B.

    With X = iB, exp(zB) = exp(−izX) = Σ_k (2 − δ_k0)(−i)^k J_k(z) T_k(X)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)). The terms are
    S_k = (−i)^k T_k(X)·y0, from the three-term recurrence
    S_{k+1} = 2B·S_k + S_{k−1}, one application of two_b each. The powers of
    −i leave the coefficients, which are the real (2 − δ_k0)J_k(z), so a B
    that maps Hermitian matrices to Hermitian ones gives Hermitian terms and
    a Hermitian sum. The J_k(z) come from Miller's backward recurrence
    (_bessel_j), which holds them to about 2e-16 absolute and, past k = z,
    to a few 1e-15 relative.

    The truncation error after N terms is at most Σ_{k≥N} 2|J_k(z)|·‖T_k(X)‖
    ·‖y0‖. The caller bounds ‖T_k(X)‖ ≤ bound·e^{margin·k} (bound 1 and
    margin 0 when X is Hermitian with its spectrum in [−1, 1]), and the sum
    stops at the first order N > z with bound·|J_N(z)|·e^{margin·N} below
    _CHEBYSHEV_TAIL, or at 2 if that is smaller. Past k ≈ z, J_k(z) falls off
    faster than any geometric sequence, so the neglected tail is of the size
    of its first term. The orders are searched up to z + 12·z^(1/3) + 40
    first, which holds the stop order of a Hermitian X up to z = 1e5 at least,
    and then in ranges twice as long until it is found. z = 0 returns y0.

    two_b must return a fresh array: the loop adds to it in place.
    """
    n = int(z + 12 * np.cbrt(z)) + 40
    while True:
        k = np.arange(n)
        jk = _bessel_j(n, z)
        with np.errstate(over="ignore", invalid="ignore"):
            term = bound * np.abs(jk) * np.exp(margin * k)
        hits = np.flatnonzero((k > z) & (term < _CHEBYSHEV_TAIL))
        if hits.size:
            break
        n *= 2
    coef = 2 * jk[:max(hits[0], 2)]
    coef[0] /= 2
    prev, cur = y0, 0.5 * two_b(y0)
    out = coef[0] * prev + coef[1] * cur
    for ck in coef[2:]:
        nxt = two_b(cur)
        nxt += prev
        prev, cur = cur, nxt
        out += ck * cur
    return out


def _chebyshev_propagate(lo: float, hi: float, d: float, build, y: np.ndarray,
                         dt: float) -> np.ndarray:
    """exp(𝓖·dt)·y for a static generator 𝓖 = −iA + 𝓓, by _chebyshev_series.

    A is a Hermitian map with its spectrum in [lo, hi] and 𝓓 a map with
    ‖𝓓‖ ≤ d: A = H and d = 0 for a state, A = [H, ·] and 𝓓 the dissipator
    for a density matrix. With the centre c = (lo + hi)/2,
    the half-width r = (hi − lo)/2 and the width w = r + 2d,

        exp(𝓖·dt) = e^{−icdt} exp(z·B),   B = (𝓖 + ic)/w,   z = w·dt,

    and build(c, w) returns the map 2B, as a function that returns a fresh
    array. When w = 0, 𝓖 = −ic and only the phase is applied.

    Margin and bound. X = iB = Y + Δ, with Y = (A − c)/w Hermitian and its
    spectrum in [−a, a], a = r/w, and ‖Δ‖ = ‖𝓓‖/w ≤ δ = d/w, so a + 2δ = 1.
    The Bernstein ellipse E_η (foci ±1, semi-axes cosh η and sinh η) lies at
    least sinh η·√(1 − a²) from [−a, a] (the distance from the end a, the
    nearest point of the segment, while a·cosh η ≤ 1, and a lower bound on it
    beyond), and the margin η = asinh(2δ/√(1 − a²)) makes that 2δ. On E_η,
    ‖(ζ − X)^{-1}‖ ≤ 1/(2δ − δ) (a Neumann series about the Hermitian Y) and
    |T_k(ζ)| ≤ cosh(kη), and E_η is at most 2π·cosh η long. The Cauchy
    integral T_k(X) = (2πi)^{-1}∮ T_k(ζ)(ζ − X)^{-1}dζ over E_η then gives
    ‖T_k(X)‖ ≤ bound·e^{kη} with bound = cosh(η)/δ. With d = 0, X = Y has
    its spectrum in [−1, 1]: margin 0 and bound 1.

    Sub-steps. The bound lets the terms grow as e^{ηk} before they cancel,
    and that growth is real for components of y near the ends of A's
    spectrum: rounding in the sum scales with it. dt is split into the
    fewest equal sub-steps with η·z ≤ ln 100 each, so e^{ηk} stays near 100
    or below over the orders k ≲ z where |J_k(z)| is not yet negligible.
    The prefactor bound, about w/d, is the price of the contour's closeness
    to the spectrum, not a growth, and adds a few orders only. With d = 0
    there is one step.
    """
    c, r = (lo + hi) / 2, (hi - lo) / 2
    w = r + 2 * d
    phase = np.exp(-1j * c * dt)
    if w == 0:
        return phase * y
    margin, bound = 0.0, 1.0
    if d > 0:
        a, delta = r / w, d / w
        margin = np.arcsinh(2 * delta / np.sqrt(1 - a * a))
        bound = np.cosh(margin) / delta
    n_sub = max(1, int(np.ceil(margin * w * dt / np.log(100))))
    two_b = build(c, w)
    for _ in range(n_sub):
        y = _chebyshev_series(two_b, y, w * dt / n_sub, margin, bound)
    return phase * y


def _gershgorin(h) -> tuple[float, float]:
    """(lo, hi): an interval that holds the spectrum of the Hermitian matrix h."""
    d = h.diagonal().real
    r = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(d)
    return (d - r).min(), (d + r).max()


def expm_apply(h, block: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) @ block for a Hermitian CSR matrix H, by its Chebyshev expansion.

    block is a vector or a 2-D block of columns. H must be Hermitian: the
    expansion assumes a real spectrum. Gershgorin's discs give an interval
    [lo, hi] that contains it, and _chebyshev_propagate sums the series with
    d = 0 and 2B = −(2i/w)(H − c): one sparse product per order, and about
    w·dt + 11(w·dt)^(1/3) orders.
    """
    eye = sp.identity(h.shape[0], format="csr")
    return _chebyshev_propagate(*_gershgorin(h), 0.0,
                                lambda c, w: ((-2j / w) * (h - c * eye)).__matmul__,
                                np.asarray(block, dtype=complex), dt)


def _lindblad_series(h, collapse_channels, rho0, dt: float):
    """exp(𝓛·dt)·ρ0 for a static Lindbladian, by its Chebyshev series.

    h is a Hermitian CSR matrix and the channels are those of evolve_density,
    both on the whole space; rho0 is a dense Hermitian matrix or its sectors
    (_sectors), and the result has the same form. 𝓛 = −i[H, ·] + 𝓓 is
    applied in left-products form (_left_products), and
    _chebyshev_propagate sums the series with 2B = (2/w)𝓛. Its terms S_k are
    real polynomials in 𝓛 applied to ρ0, so they are Hermitian, as the
    left-products form needs.

    Interval and norm bound. Take norms on the matrices under the Frobenius
    inner product, and two numbers:
    - W = hi − lo of H's Gershgorin interval. The eigenvalues of H lie in
      [lo, hi], so the commutator [H, ·], a Hermitian superoperator, has its
      spectrum {λ_i − λ_j} in [−W, W], which gives the centre c = 0.
    - G = Σ r_k‖o_k†o_k‖_∞ (the largest row sum, which bounds the spectral
      norm of the Hermitian o_k†o_k). ρ ↦ oρo† and ρ ↦ {o†o, ρ}/2 both have
      norm at most ‖o†o‖, so the dissipator has ‖𝓓‖ ≤ d = 2G.
    With no channels (G = 0) the series is that of expm_apply: margin 0,
    bound 1 and one step; when 𝓛 = 0 as well, ρ0 is returned.

    Sectors. H keeps each sector and every o_k maps each sector to exactly
    one sector, so 𝓛 maps a block-diagonal ρ to a block-diagonal one, and so
    does every S_k: the series runs on the diagonal blocks alone, with the
    blocks of H_eff and of the o_k (_sector_blocks), and the cross blocks,
    exactly 0 throughout, are never formed. Each block entry is the same
    sum, term by term and in the same order, as in the whole-space series. W and G, and so
    the margin, bound and sub-steps, are those of the whole space: H's
    Gershgorin discs are row by row, and each row of H (and of o_k†o_k) lies
    in one sector, so the sectors' intervals have the whole space's as their
    union. The whole space is the one-sector case.
    """
    blocks = _sectors(rho0)
    sectors = [idx for idx, _ in blocks]
    lo, hi = _gershgorin(h)
    products = _decay_products(collapse_channels)
    g = sum(ch.rate * abs(odo).sum(axis=1).max() for ch, odo in zip(collapse_channels, products))

    def build(c, w):
        decay, apply = _left_products(collapse_channels, products, 2 / w, sectors)
        k_eff = _generator_blocks((-2j / w) * (h + decay), sectors)  # −(2i/w)·H_eff
        return lambda y: apply(k_eff, y)

    y = _chebyshev_propagate(lo - hi, hi - lo, 2 * g, build, _flat(blocks), dt)
    out = list(zip(sectors, _views(y, sectors)))
    return out if isinstance(rho0, list) else out[0][1]


def propagate_piecewise(segments, block):
    """Apply Π_k exp(-i H_k dt_k) to block; segments are (H, dt) with H a Hermitian CSR matrix.

    block is a vector or a 2-D block of columns, propagated together, or its
    sectors (_sectors): then every H must keep them, and each sector's
    columns are propagated under that sector's block of H, by expm_apply
    with the block's own Gershgorin interval. The result has block's form.
    """
    blocks = _sectors(block)
    sectors = [idx for idx, _ in blocks]
    ys = [np.asarray(y, dtype=complex) for _, y in blocks]
    for h, dt in segments:
        ys = [expm_apply(hs, y, dt) for hs, y in zip(_generator_blocks(h, sectors), ys)]
    return list(zip(sectors, ys)) if isinstance(block, list) else ys[0]
