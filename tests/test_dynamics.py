import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from catms.dynamics import (
    IntegratorSettings,
    ToleranceBreach,
    _rk4_integrate,
    evolve_density,
    evolve_state,
    expm_apply,
    propagate_piecewise,
)
from catms.hilbert import SparseOperator, annihilation, number_op
from catms.model import CollapseChannel


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
    psi = evolve_state(h, psi0, (0.0, t), IntegratorSettings(rtol=1e-10, atol=1e-12))
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
    return h, psi0, expected, IntegratorSettings(rtol=1e-10, atol=1e-12)



def test_time_dependent_hamiltonian_phase():
    h, psi0, expected, settings = _phase_problem()
    psi = evolve_state(h, psi0, (0.0, T), settings)
    assert np.abs(psi - expected).max() < 1e-7


def test_time_dependent_hamiltonian_phase_density():
    h, psi0, expected, settings = _phase_problem()
    rho = evolve_density(h, [], np.outer(psi0, psi0.conj()), (0.0, T), settings)
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
    # a span of over 500 half-widths needs hundreds of Chebyshev terms
    rng = np.random.default_rng(7)
    dim = 60
    m = _random_hermitian(rng, dim)
    evals, vecs = np.linalg.eigh(m)
    dt = 500.0 / ((evals[-1] - evals[0]) / 2) * 1.1
    u_ref = (vecs * np.exp(-1j * dt * evals)) @ vecs.conj().T
    u = expm_apply(sp.csr_matrix(m), np.eye(dim, dtype=complex), dt)
    assert np.abs(u - u_ref).max() < 1e-10
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-11


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


def test_integrator_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(atol=-1e-12)


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
