import inspect
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp

from catms import dynamics, protocols
from catms.dynamics import (
    _CHEBYSHEV_TAIL,
    StiffSegment,
    ToleranceBreach,
    _bessel_j,
    _chebyshev_series,
    _decay_products,
    _gershgorin,
    _generator_blocks,
    _left_products,
    _lindblad_series,
    _rk4_integrate,
    evolve_density,
    evolve_state,
    expm_apply,
    propagate_piecewise,
)
from catms.hilbert import SparseOperator, annihilation, number_op
from catms.model import CollapseChannel, h_kerr_single


def _two_level_rabi():
    h = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    return h, np.array([1.0, 0.0], dtype=complex)


def test_rk4_fourth_order_convergence():
    h, psi0 = _two_level_rabi()
    t = 1.3
    exact = scipy.linalg.expm(-1j * t * h.toarray()) @ psi0
    errs = []
    for dt in (0.1, 0.05, 0.025):
        y = _rk4_integrate(lambda _, y: -1j * (h @ y), psi0, 0.0, t, dt)
        errs.append(np.linalg.norm(y - exact))
    # halving dt should shrink the error by ~2^4
    assert errs[0] / errs[1] > 12
    assert errs[1] / errs[2] > 12


def test_adaptive_matches_closed_form():
    h, psi0 = _two_level_rabi()
    t = 2.0
    exact = scipy.linalg.expm(-1j * t * h.toarray()) @ psi0
    psi = evolve_state(h, psi0, (0.0, t))
    assert np.abs(psi - exact).max() < 1e-8
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-8


T = 1.5


def _phase_problem():
    # H(t) = (1 + t) sigma_z as a static term plus a term with coefficient t:
    # the phase accumulated by t is t + t^2/2 (T = 1.5: a dropped or misapplied
    # coefficient would give 2T or T^2 instead)
    sz = sp.csr_matrix(np.diag([1.0, -1.0]).astype(complex))
    h = [(sz, None), (sz, lambda t: t)]
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    phase = T + T**2 / 2.0
    expected = np.array([np.exp(-1j * phase), np.exp(1j * phase)]) / np.sqrt(2.0)
    return h, psi0, expected



def test_time_dependent_hamiltonian_phase():
    h, psi0, expected = _phase_problem()
    psi = evolve_state(h, psi0, (0.0, T))
    assert np.abs(psi - expected).max() < 1e-7


def test_time_dependent_hamiltonian_phase_density():
    h, psi0, expected = _phase_problem()
    rho = evolve_density(h, [], np.outer(psi0, psi0.conj()), (0.0, T))
    assert np.abs(rho - np.outer(expected, expected.conj())).max() < 1e-7


def test_lindblad_cavity_decay_rate():
    dim = 8
    h = sp.csr_matrix((dim, dim), dtype=complex)
    kappa = 0.7
    chan = [CollapseChannel(kappa, SparseOperator(annihilation((dim,), 0)))]
    v = np.zeros(dim, dtype=complex)
    v[3] = 1.0
    rho0 = np.outer(v, v.conj())
    t = 0.9
    rho = evolve_density(h, chan, rho0, (0.0, t))
    n_final = np.real(np.trace(number_op((dim,), 0).toarray() @ rho))
    assert n_final == pytest.approx(3.0 * np.exp(-kappa * t), rel=1e-6)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
    assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_lindblad_dephasing_preserves_populations():
    dim = 4
    h = sp.csr_matrix((dim, dim), dtype=complex)
    chan = [CollapseChannel(0.5, SparseOperator(number_op((dim,), 0)))]
    v = np.ones(dim, dtype=complex) / 2.0
    rho = evolve_density(h, chan, np.outer(v, v.conj()), (0.0, 1.0))
    pops = np.real(np.diag(rho))
    assert np.abs(pops - 0.25).max() < 1e-8
    # coherences decay as exp(-rate (m-n)^2 t / 2)
    c01 = abs(rho[0, 1])
    assert c01 == pytest.approx(0.25 * np.exp(-0.5 * 0.5), rel=1e-5)


def _random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def test_expm_apply_matches_scipy():
    rng = np.random.default_rng(2)
    dim = 40
    m = _random_hermitian(rng, dim)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    a = sp.csr_matrix(m)
    u_ref = scipy.linalg.expm(-1j * 0.37 * m)
    out = expm_apply(a, v, 0.37)
    assert np.abs(out - u_ref @ v).max() < 1e-9
    # a block of columns gives the column-by-column results
    w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    block = expm_apply(a, np.stack([v, w], axis=1), 0.37)
    assert block.shape == (dim, 2)
    assert np.abs(block[:, 0] - out).max() < 1e-12
    assert np.abs(block[:, 1] - expm_apply(a, w, 0.37)).max() < 1e-12
    assert np.abs(block - u_ref @ np.stack([v, w], axis=1)).max() < 1e-10


def test_expm_apply_long_span_matches_eigh():
    # a span of over 500 half-widths needs hundreds of Chebyshev terms; the
    # shifted spectrum, centred far from 0 (c ≫ w), puts the weight on the phase
    rng = np.random.default_rng(7)
    dim = 60
    m = _random_hermitian(rng, dim)
    evals, vecs = np.linalg.eigh(m)
    dt = 500.0 / ((evals[-1] - evals[0]) / 2) * 1.1
    for shift in (0.0, 40.0 * (evals[-1] - evals[0])):
        u_ref = (vecs * np.exp(-1j * dt * (evals + shift))) @ vecs.conj().T
        u = expm_apply(sp.csr_matrix(m + shift * np.eye(dim)), np.eye(dim, dtype=complex), dt)
        assert np.abs(u - u_ref).max() < 1e-10, shift
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-11, shift


def test_expm_apply_multiple_of_identity_is_a_phase():
    rng = np.random.default_rng(8)
    block = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    h = sp.identity(5, dtype=complex, format="csr") * 2.5
    out = expm_apply(h, block, 0.7)
    assert np.abs(out - np.exp(-1j * 2.5 * 0.7) * block).max() < 1e-15


def test_expm_apply_empty_or_negligible_segment_keeps_block():
    rng = np.random.default_rng(9)
    dim = 6
    block = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    tiny = sp.csr_matrix(1e-18 * _random_hermitian(rng, dim))
    for h, dt in [(sp.csr_matrix((dim, dim), dtype=complex), 1.0), (tiny, 1.0),
                  (sp.csr_matrix(_random_hermitian(rng, dim)), 0.0)]:
        assert np.abs(expm_apply(h, block, dt) - block).max() < 1e-15


def test_propagate_piecewise_unitary_and_composed():
    rng = np.random.default_rng(4)
    dim = 12
    h1 = sp.csr_matrix(_random_hermitian(rng, dim))
    h2 = sp.csr_matrix(_random_hermitian(rng, dim))
    segments = [(h1, 0.3), (h2, 0.5)]
    u_ref = scipy.linalg.expm(-1j * 0.5 * h2.toarray()) @ scipy.linalg.expm(
        -1j * 0.3 * h1.toarray())
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    out = propagate_piecewise(segments, v)
    assert np.abs(out - u_ref @ v).max() < 1e-10
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
    # two columns propagated as one block, against each column alone
    w = np.zeros(dim, dtype=complex)
    w[5] = 1.0
    block = propagate_piecewise(segments, np.stack([v, w], axis=1))
    assert np.abs(block[:, 0] - out).max() < 1e-12
    assert np.abs(block[:, 1] - propagate_piecewise(segments, w)).max() < 1e-12
    assert np.abs(block - u_ref[:, [0, 5]]).max() < 1e-10


def _zero_hamiltonian(dim):
    return sp.csr_matrix((dim, dim), dtype=complex)


def test_evolve_density_rejects_a_non_positive_result():
    # H = 0 and no channels keep ρ0 = diag(1.5, −0.5): trace 1, eigenvalue −0.5
    h = _zero_hamiltonian(2)
    rho0 = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ToleranceBreach):
        evolve_density(h, [], rho0, (0.0, 1.0))


def test_evolve_density_warns_on_trace_drift():
    h = _zero_hamiltonian(2)
    rho0 = np.diag([1.0, 1.0]).astype(complex)
    with pytest.warns(UserWarning, match="trace drifted"):
        rho = evolve_density(h, [], rho0, (0.0, 1.0))
    assert np.trace(rho).real == pytest.approx(2.0)


def test_evolve_state_warns_on_norm_drift():
    # H = −0.5i·I shrinks the norm as e^{−t/2}
    h = sp.identity(2, dtype=complex, format="csr") * -0.5j
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.warns(UserWarning, match="norm drifted"):
        psi = evolve_state(h, psi0, (0.0, 1.0))
    assert np.linalg.norm(psi) == pytest.approx(np.exp(-0.5), rel=1e-6)


def _dense_lindblad_step(h, channels, rho0, dt):
    """exp(𝓛dt)ρ0 from the dense superoperator on the row-major vec(ρ)."""
    dim = h.shape[0]
    eye = np.eye(dim)
    hd = h.toarray()
    sup = -1j * (np.kron(hd, eye) - np.kron(eye, hd.T))
    for ch in channels:
        o = ch.op.matrix.toarray()
        oo = o.conj().T @ o
        sup += ch.rate * (np.kron(o, o.conj()) - 0.5 * np.kron(oo, eye) - 0.5 * np.kron(eye, oo.T))
    return (scipy.linalg.expm(sup * dt) @ rho0.ravel()).reshape(dim, dim)


def _lindblad_models():
    """(name, H, channels, dt) on 8 levels: H = 0, weak and strong damping, G ≫ W."""
    dim = 8
    a, n = annihilation((dim,), 0), number_op((dim,), 0)
    kerr_drive = (h_kerr_single(1.0, 2.0, dim) + 0.3 * (a + a.conj().T)).tocsr()

    def chans(*pairs):
        return [CollapseChannel(r, SparseOperator(o)) for r, o in pairs]

    return [("H = 0, loss 0.7", sp.csr_matrix((dim, dim), dtype=complex), chans((0.7, a)), 0.9),
            ("Kerr + drive, 0.1/0.05", kerr_drive, chans((0.1, a), (0.05, n)), 0.9),
            ("Kerr + drive, 31/5", kerr_drive, chans((31.0, a), (5.0, n)), 0.2),
            ("weak H, dephasing 3", 0.01 * kerr_drive, chans((3.0, n)), 0.9)]


def _mixed_state(dim, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def test_lindblad_series_matches_dense_superoperator():
    rho0 = _mixed_state(8)
    for name, h, channels, dt in _lindblad_models():
        rho = _lindblad_series(h, channels, rho0, dt)
        assert np.abs(rho - _dense_lindblad_step(h, channels, rho0, dt)).max() < 1e-12, name
        assert np.abs(rho - rho.conj().T).max() < 1e-14, name
        assert abs(np.trace(rho) - 1.0) < 1e-13, name


def test_lindblad_series_without_channels_is_the_unitary_conjugation():
    # both callers of the one set-up: a centre or phase applied on the wrong
    # path shows on an H whose Gershgorin interval lies far from 0
    rho0 = _mixed_state(8)
    h = _lindblad_models()[1][1] + 200.0 * sp.identity(8, format="csr")
    lo, hi = _gershgorin(h)
    assert lo > hi - lo
    dt = 0.9
    u = expm_apply(h, np.eye(8, dtype=complex), dt)
    rho = _lindblad_series(h, [], rho0, dt)
    assert np.abs(rho - u @ rho0 @ u.conj().T).max() < 1e-12


def test_lindblad_series_does_not_depend_on_the_split():
    # one span against its halves and quarters, each half or quarter with its own sub-steps
    rho0 = _mixed_state(8)
    for name, h, channels, dt in _lindblad_models():
        whole = _lindblad_series(h, channels, rho0, dt)
        for parts in (2, 4):
            rho = rho0
            for _ in range(parts):
                rho = _lindblad_series(h, channels, rho, dt / parts)
            assert np.abs(rho - whole).max() < 1e-13, (name, parts)


def _parity_model():
    """(H, channels, ρ0, sectors) on 8 levels: Kerr + two-photon drive, loss and dephasing.

    H keeps the photon-number parity, loss swaps the even and odd sectors and
    dephasing keeps them; ρ0 is a mixed state with its cross blocks cut out.
    """
    dim = 8
    a, n = annihilation((dim,), 0), number_op((dim,), 0)
    sectors = [np.arange(0, dim, 2), np.arange(1, dim, 2)]
    rho0 = _mixed_state(dim)
    rho0[np.ix_(sectors[0], sectors[1])] = rho0[np.ix_(sectors[1], sectors[0])] = 0
    channels = [CollapseChannel(3.0, SparseOperator(a)), CollapseChannel(2.0, SparseOperator(n))]
    return h_kerr_single(1.0, 2.0, dim), channels, rho0, sectors


def test_sector_lindblad_series_matches_dense_superoperator(monkeypatch):
    h, channels, rho0, sectors = _parity_model()
    dt = 0.5
    calls = []
    series = dynamics._chebyshev_series
    monkeypatch.setattr(dynamics, "_chebyshev_series",
                        lambda *args, **kw: calls.append(1) or series(*args, **kw))
    blocks = _lindblad_series(h, channels, [(i, rho0[np.ix_(i, i)]) for i in sectors], dt)
    assert len(calls) >= 2  # sub-steps
    rho = np.zeros_like(rho0)
    for idx, block in blocks:
        rho[np.ix_(idx, idx)] = block
    assert np.abs(rho - _dense_lindblad_step(h, channels, rho0, dt)).max() < 1e-12
    # the blocks hold the whole-space series' entries, sum for sum
    assert np.array_equal(rho, _lindblad_series(h, channels, rho0, dt))


def test_whole_space_map_keeps_a_block_diagonal_rho_block_diagonal():
    # the cross blocks that the sector path never stores stay exactly 0 on the
    # whole space, in the series and in the term-list path
    h, channels, rho0, (even, odd) = _parity_model()
    for rho in (_lindblad_series(h, channels, rho0, 0.5),
                evolve_density([(h, None)], channels, rho0, (0.0, 0.5))):
        assert not rho[np.ix_(even, odd)].any() and not rho[np.ix_(odd, even)].any()
        assert np.abs(rho[np.ix_(odd, odd)]).max() > 0.1


def test_empty_jump_blocks_are_left_out_of_the_map():
    # |0⟩⟨2| has no entries in the odd sector: its odd block adds no jump, and
    # the sector map still gives the whole-space map's blocks, entry for entry
    h, channels, rho0, sectors = _parity_model()
    dim = h.shape[0]
    flip = sp.csr_matrix(([1.0 + 0j], ([0], [2])), shape=(dim, dim))
    channels = channels + [CollapseChannel(0.4, SparseOperator(flip))]

    def lindblad_map(secs):
        decay, apply = _left_products(channels, _decay_products(channels), 0.5, secs)
        ks = _generator_blocks(-0.5j * (h + decay), secs)
        return apply, ks

    apply, ks = lindblad_map(sectors)
    assert len(inspect.getclosurevars(apply).nonlocals["jumps"]) == 2 + 2 + 1
    out = apply(ks, np.concatenate([rho0[np.ix_(i, i)].ravel() for i in sectors]))
    whole_apply, whole_ks = lindblad_map([np.arange(dim)])
    whole = whole_apply(whole_ks, rho0.ravel()).reshape(dim, dim)
    start = 0
    for idx in sectors:
        block = out[start:start + len(idx) ** 2].reshape(len(idx), len(idx))
        assert np.array_equal(block, whole[np.ix_(idx, idx)])
        start += len(idx) ** 2


@pytest.mark.parametrize("z", [0.0, 1e-3, 0.5, 45.0, 540.0, 1300.0, 3000.0])
def test_bessel_j_matches_mpmath(z):
    # every order of _chebyshev_series' first search range, which holds its
    # stop order: 2e-15 absolute, and past k = z, where the stop rule reads
    # them, 1e-13 relative. The reference is mpmath's J_n and J_{n+1}, carried
    # down by the recurrence in 50-digit arithmetic (at z = 3000 a single
    # mpmath.besselj takes about 30 ms), and checked against mpmath.besselj
    # at a few orders.
    n = int(z + 12 * np.cbrt(z)) + 40
    jk = _bessel_j(n, z)
    stop = next(k for k in range(n) if k > z and abs(jk[k]) < _CHEBYSHEV_TAIL)
    with mpmath.workdps(50):
        zm = mpmath.mpf(z)
        ref = [mpmath.besselj(n + 1, zm), mpmath.besselj(n, zm)]
        for k in range(n, 0, -1):
            ref.append(2 * k / zm * ref[-1] - ref[-2] if z else mpmath.mpf(k == 1))
        ref = ref[:1:-1]  # J_0, …, J_{n−1}
        for k in {0, stop // 2, int(z), stop, n - 1}:
            assert abs(ref[k] - mpmath.besselj(k, zm)) < 1e-30
        exact = np.array([float(v) for v in ref])
    err = np.abs(jk - exact)
    assert err.max() <= 2e-15
    tail = (np.arange(n) > z) & (exact != 0)
    assert (err[tail] <= 1e-13 * np.abs(exact[tail])).all()


def test_chebyshev_series_at_z_zero_returns_y0():
    y0 = np.array([0.3 - 0.1j, 0.9j, -0.2])
    b = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]], dtype=complex))
    assert np.array_equal(_chebyshev_series(lambda y: 2 * (b @ y), y0, 0.0), y0)


def test_evolve_density_term_list_uses_the_same_lindbladian():
    # a term list goes through RK45 with the left-products right-hand side;
    # a static generator written as one goes the same way as the series
    name, h, channels, dt = _lindblad_models()[1]
    rho0 = _mixed_state(8)
    exact = evolve_density(h, channels, rho0, (0.0, dt))
    rk45 = evolve_density([(h, None)], channels, rho0, (0.0, dt))
    assert np.abs(rk45 - exact).max() < 1e-8


def _operator_terms(dim):
    """A term list on dim levels that keeps the photon-number parity.

    A static Kerr term, a² + a†² with coefficient t², a⁴ + a†⁴ (a sparsity
    pattern disjoint from the other terms') with coefficient cos t, and n
    twice, statically and with coefficient −t, so that at t = 1 the entry
    (1, 1), where the Kerr term is 0, cancels to 0.
    """
    a, n = annihilation((dim,), 0), number_op((dim,), 0)
    a2, a4 = a @ a, a @ a @ a @ a
    return [(h_kerr_single(1.3, 0.0, dim), None),
            ((a2 + a2.conj().T).tocsr(), lambda t: t * t),
            ((a4 + a4.conj().T).tocsr(), np.cos),
            (n, None),
            (n, lambda t: -t)]


def _term_products(terms, t, block):
    """Σ f_k(t)·(H_k·block), term by term."""
    return sum((1.0 if f is None else f(t)) * (m @ block) for m, f in terms)


def test_term_operator_is_the_sum_of_its_terms():
    dim = 10
    terms = _operator_terms(dim)
    rng = np.random.default_rng(5)
    y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    sectors = [np.arange(0, dim, 2), np.arange(1, dim, 2)]
    cols = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    whole = dynamics._term_operator(terms, [np.arange(dim)])
    split = dynamics._term_operator(terms, sectors)
    # at t = 1 the entry (1, 1) cancels; the matrices are rewritten in place,
    # so every t is checked after another one
    for t in (0.3, 1.0, -2.1, 0.3):
        ref = _term_products(terms, t, y)
        (m,) = whole(t)
        assert np.linalg.norm(m @ y - ref) <= 1e-15 * np.linalg.norm(ref)
        ref = _term_products(terms, t, cols)
        for k, idx in zip(split(t), sectors):
            # the terms keep the sectors, so the rows I_s of H·cols need only cols[I_s]
            got = k @ cols[idx]
            assert np.linalg.norm(got - ref[idx]) <= 1e-15 * np.linalg.norm(ref[idx])
    # one entry per position that some term stores
    union = {(i, j) for h, _ in terms for i, j in zip(h.tocoo().row, h.tocoo().col)}
    assert whole(0.3)[0].nnz == len(union)
    # a term list that stores no entry at all
    (m,) = dynamics._term_operator([(sp.csr_matrix((3, 3)), np.cos)], [np.arange(3)])(0.5)
    assert m.nnz == 0 and not (m @ np.ones(3)).any()


def _scipy_rk45(rhs, y0, t_span, time_dependent):
    """dynamics.solve_ivp's problem under SciPy's RK45, y(t1) read from its dense output."""
    t0, t1 = t_span
    max_step = max((t1 - t0) / 1000.0, 1e-12) if time_dependent else np.inf
    sol = scipy.integrate.solve_ivp(rhs, (t0, t1), y0, method="RK45", t_eval=[t1],
                                    rtol=dynamics.RTOL, atol=dynamics.ATOL,
                                    max_step=max_step)
    assert sol.success
    return sol.y[:, -1]


def _counted_runs(integrators, rhs, *args, **kwargs):
    """(end point, right-hand-side calls) of each integrator on one problem."""
    runs = []
    for integrate in integrators:
        n = [0]

        def counted(t, y):
            n[0] += 1
            return rhs(t, y)

        runs.append((integrate(counted, *args, **kwargs), n[0]))
    return runs


@pytest.mark.parametrize("ramp", [dict(initial_fock=0), dict(initial_fock=1),
                                  dict(kappa=0.02, gamma=0.02)])
def test_solve_ivp_takes_the_steps_of_scipy_rk45(monkeypatch, ramp):
    # the figs1 ramp (K = 1, α = 2, t0 = 1.7, dim 30), pure and lossy: the
    # same right-hand-side calls, and the same end point up to rounding
    stepper, runs = dynamics.solve_ivp, []

    def both(rhs, *args, **kwargs):
        runs.append(_counted_runs((stepper, _scipy_rk45), rhs, *args, **kwargs))
        return runs[-1][0][0]

    monkeypatch.setattr(dynamics, "solve_ivp", both)
    protocols.run_cat_prep(1.0, 2.0, 1.7, **ramp)
    ((ours, n_ours), (ref, n_ref)), = runs
    assert n_ours == n_ref > 1000
    assert np.abs(ours - ref).max() < 1e-13


def test_solve_ivp_controls_its_steps_as_scipy_rk45_does():
    # the ramp's steps are set by the span/1000 cap; with no cap and a narrow
    # pulse at t = 0.5, the controller rejects steps on the way into the pulse
    # and grows them again after it
    sx = np.array([[0, 1], [1, 0]], dtype=complex)

    def rhs(t, y):
        return -1j * (1 + 50 * np.exp(-((t - 0.5) / 0.02) ** 2)) * (sx @ y)

    (ours, n_ours), (ref, n_ref) = _counted_runs(
        (dynamics.solve_ivp, _scipy_rk45), rhs, np.array([1.0, 0.0], dtype=complex),
        (0.0, 1.0), time_dependent=False)
    assert n_ours == n_ref
    assert np.abs(ours - ref).max() < 1e-13


def test_solve_ivp_raises_on_a_nan_right_hand_side():
    # NaN from the start, and NaN past t = 0.5, where the steps shrink to nothing
    y0 = np.array([1.0, 0.0], dtype=complex)
    for rhs in (lambda t, y: np.full_like(y, np.nan),
                lambda t, y: -1j * y if t < 0.5 else np.full_like(y, np.nan)):
        with pytest.raises(StiffSegment), np.errstate(invalid="ignore"):
            dynamics.solve_ivp(rhs, y0, (0.0, 1.0), time_dependent=False)


def test_no_scipy_integrate_in_a_fresh_process():
    # the cli's set-up (load_spec and estimate_resources on every shipped
    # recipe), a pure and a lossy cat-prep ramp, both single-qubit paths, a
    # coherent Fock-basis gate, a dissipative Kerr-level gate and a 1000-event
    # noisy effective gate (sx_block_columns' batched eigh) import none of
    # scipy.linalg, scipy.integrate, the scipy.optimize that scipy.integrate
    # pulls in, scipy.special, scipy.sparse.linalg and scipy.sparse.csgraph
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    configs = str(Path(__file__).resolve().parents[1] / "configs")
    code = ("import sys\n"
            "from pathlib import Path\n"
            "from catms import cli, gates, noise, protocols\n"
            "from catms.model import GateConfig\n"
            f"for p in sorted(Path({configs!r}).glob('*.json')):\n"
            "    cli.estimate_resources(cli.load_spec(p))\n"
            "protocols.run_cat_prep(1.0, 1.0, 0.5, dim=8)\n"
            "protocols.run_cat_prep(1.0, 1.0, 0.5, kappa=0.1, dim=8)\n"
            "for use_h_add in (False, True):\n"
            "    p = protocols.design_single_qubit_drive('hadamard', 1.5, 0.5, use_h_add)\n"
            "    protocols.run_single_qubit_gate(1.0, 2.25, p, use_h_add, t_gate=0.5,\n"
            "                                    omega_c=200.0, dim=12)\n"
            "cfg = GateConfig.from_alpha(1, 1.0, 1.0, 0.1, bus_dim=3, kpo_dim=10)\n"
            "gates.run_gate(cfg)\n"
            "gates.run_gate(cfg.replace(kpo_levels=6, kappa=0.1, gamma0=0.1))\n"
            "cfg = GateConfig.from_alpha(2, 1.0, 1.0, 0.1, bus_dim=6, kpo_dim=10)\n"
            "spec = noise.StochasticNoiseSpec(eps_s=0.1, seed=1, n_events=1000,\n"
            "                                 targets=('J', 'delta'))\n"
            "gates.run_gate(cfg, noise.noisy_schedule(cfg, spec, gates.gate_time(cfg)),\n"
            "               mode='effective')\n"
            "print(sorted(m for m in sys.modules if m.startswith(\n"
            "    ('scipy.linalg', 'scipy.integrate', 'scipy.optimize', 'scipy.special',\n"
            "     'scipy.sparse.linalg', 'scipy.sparse.csgraph'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
