import numpy as np
import pytest

from catms.hilbert import StateVector, displacement, make_space, number_op
from catms.model import GateConfig
from catms.states import (
    CatParity,
    QubitBasisState,
    all_basis_states,
    basis_state,
    fidelity,
    overlap,
    single_mode_cat_vector,
)


def _displaced_vacuum(dim, alpha):
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    return displacement(make_space([dim]), "a0", alpha).matrix @ vac


def test_coherent_photon_number():
    space = make_space([30])
    v = _displaced_vacuum(30, 2.0)
    assert np.vdot(v, number_op(space, "a0").matrix @ v).real == pytest.approx(4.0, abs=1e-8)


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


def test_qubit_basis_state_index():
    s = QubitBasisState((CatParity.EVEN, CatParity.ODD, CatParity.EVEN))
    assert s.index == 0b010
    assert all_basis_states(2)[3].parities == (CatParity.ODD, CatParity.ODD)


def test_basis_state_is_normalized_product():
    cfg = GateConfig.from_alpha(n_qubits=2, kerr=1.0, alpha=2.0, j_coupling=0.1,
                                bus_dim=4, kpo_dim=20)
    psi = basis_state(cfg, QubitBasisState((CatParity.EVEN, CatParity.ODD)))
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # orthogonal to a different parity pattern
    phi = basis_state(cfg, QubitBasisState((CatParity.ODD, CatParity.EVEN)))
    assert abs(overlap(psi, phi)) < 1e-12


def test_fidelity_pure_and_mixed():
    space = make_space([4])
    a, b = StateVector(space, np.eye(4)[1]), StateVector(space, np.eye(4)[2])
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == 0.0
    rho = a.outer()
    assert fidelity(rho, a) == pytest.approx(1.0)


def test_cat_state_rejects_nonpositive_alpha():
    # α = 0 would divide 0 by 0 for the odd cat
    for alpha in (0.0, -1.0):
        for parity in CatParity:
            with pytest.raises(ValueError):
                single_mode_cat_vector(10, alpha, parity)
