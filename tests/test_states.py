import numpy as np
import pytest
import scipy.linalg

from catms.gates import GateModel
from catms.hilbert import annihilation, number_op
from catms.model import GateConfig
from catms.states import CatParity, basis_state, fidelity, single_mode_cat_vector


def _displaced_vacuum(dim, alpha):
    # D(α)|0⟩ = exp(α(a† − a))|0⟩ by SciPy's Padé expm, independently of the
    # eigh that single_mode_cat_vector uses
    a = annihilation((dim,), 0).toarray()
    return scipy.linalg.expm(alpha * (a.conj().T - a))[:, 0]


def test_coherent_photon_number():
    v = _displaced_vacuum(30, 2.0)
    assert np.vdot(v, number_op((30,), 0) @ v).real == pytest.approx(4.0, abs=1e-8)


def test_cat_states_normalized_and_orthogonal():
    even = single_mode_cat_vector(30, 2.0, CatParity.EVEN)
    odd = single_mode_cat_vector(30, 2.0, CatParity.ODD)
    assert np.linalg.norm(even) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(odd) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(even, odd)) < 1e-12


def test_cat_fock_support_parity():
    even = single_mode_cat_vector(30, 2.0, CatParity.EVEN)
    odd = single_mode_cat_vector(30, 2.0, CatParity.ODD)
    assert np.abs(even[1::2]).max() == 0
    assert np.abs(odd[0::2]).max() == 0


def test_cat_matches_coherent_superposition():
    # N±(D(α) ± D(−α))|0⟩ with the closed-form N± = 1/sqrt(2(1 ± e^{−2α²}))
    plus, minus = _displaced_vacuum(30, 2.0), _displaced_vacuum(30, -2.0)
    for parity in CatParity:
        n_pm = 1.0 / np.sqrt(2.0 * (1.0 + parity.sign * np.exp(-2.0 * 2.0**2)))
        combo = n_pm * (plus + parity.sign * minus)
        assert np.abs(combo - single_mode_cat_vector(30, 2.0, parity)).max() < 1e-10


def test_cat_normalization_closed_form():
    # at α = 0.8 the overlap e^{−2α²} = 0.28 sets N+ and N− a third apart; the norm of
    # D(α)|0⟩ ± D(−α)|0⟩ is 1/N± and the cat vector is that sum times N±
    alpha = 0.8
    raw = {p: _displaced_vacuum(20, alpha) + p.sign * _displaced_vacuum(20, -alpha)
           for p in CatParity}
    for parity in CatParity:
        ip = 2.0 * (1.0 + parity.sign * np.exp(-2.0 * alpha**2))
        assert np.linalg.norm(raw[parity]) == pytest.approx(np.sqrt(ip), rel=1e-12)
        cat = single_mode_cat_vector(20, alpha, parity)
        assert np.abs(cat - raw[parity] / np.sqrt(ip)).max() < 1e-12


def _cats(dim, alpha):
    return {p: single_mode_cat_vector(dim, alpha, p) for p in CatParity}


def test_qubit_basis_state_index():
    # qubit 1 is the most significant bit, and a set bit is |C−⟩
    cats = _cats(10, 1.5)
    plus, minus = cats[CatParity.EVEN], cats[CatParity.ODD]
    vac = np.eye(3)[0]
    expected = np.kron(np.kron(np.kron(vac, plus), minus), plus)
    assert np.array_equal(basis_state(3, cats, 3, 0b010), expected)
    assert np.array_equal(basis_state(3, cats, 2, 3), np.kron(np.kron(vac, minus), minus))
    for k in (-1, 8):
        with pytest.raises(ValueError):
            basis_state(3, cats, 3, k)


def test_basis_state_is_normalized_product():
    cats = _cats(20, 2.0)
    psi = basis_state(4, cats, 2, 0b01)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    # orthogonal to a different parity pattern
    phi = basis_state(4, cats, 2, 0b10)
    assert abs(np.vdot(psi, phi)) < 1e-12


def test_basis_state_is_the_fock_model_basis_vector():
    # the Fock model's basis vectors are the Fock-basis cat products of the config
    cfg = GateConfig.from_alpha(n_qubits=3, kerr=1.0, alpha=1.5, j_coupling=0.1,
                                bus_dim=3, kpo_dim=10)
    model = GateModel.fock(cfg)
    cats = _cats(cfg.kpo_dim, cfg.alpha)
    for k in range(8):
        v = np.eye(cfg.bus_dim, dtype=complex)[0]
        for bit in (k >> 2 & 1, k >> 1 & 1, k & 1):
            v = np.kron(v, cats[CatParity.ODD if bit else CatParity.EVEN])
        assert np.array_equal(model.basis_vector(k), v)


def test_fidelity_pure_and_mixed():
    a, b = np.eye(4)[1], np.eye(4)[2]
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == 0.0
    assert fidelity(np.outer(a, a), a) == pytest.approx(1.0)
    # a mixture of |1⟩ and |2⟩ against |1⟩, and a pure state with a complex overlap
    assert fidelity(0.3 * np.outer(a, a) + 0.7 * np.outer(b, b), a) == pytest.approx(0.3)
    psi = np.array([0.0, 0.6j, 0.8, 0.0])
    assert fidelity(psi, a) == pytest.approx(0.36)
    assert fidelity(np.outer(psi, psi.conj()), b) == pytest.approx(0.64)


def test_cat_state_rejects_nonpositive_alpha():
    # α = 0 would divide 0 by 0 for the odd cat
    for alpha in (0.0, -1.0):
        for parity in CatParity:
            with pytest.raises(ValueError):
                single_mode_cat_vector(10, alpha, parity)
