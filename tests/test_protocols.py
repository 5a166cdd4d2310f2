import numpy as np
import pytest
from scipy.special import eval_laguerre

from catms import protocols
from catms.hilbert import number_op
from catms.model import h_kerr_single
from catms.states import CatParity, single_mode_cat_vector


def test_cat_prep_schedule_shape():
    s = protocols.CatPrepSchedule(t0=2.0, alpha=2.0)
    assert s.alpha_t(-2.0) == 0.0
    assert s.alpha_t(0.0) == pytest.approx(2.0)
    assert s.delta_q(-2.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert s.delta_q(-1.0, 1.0) == pytest.approx(-1.0)  # -K at the midpoint
    with pytest.raises(ValueError):
        s.alpha_t(0.5)
    with pytest.raises(ValueError):
        protocols.CatPrepSchedule(t0=-1.0, alpha=2.0)


def test_cat_prep_fidelity_scale_invariance():
    # fidelity depends only on the dimensionless ramp length K*t0
    f1 = protocols.run_cat_prep(1.0, 2.0, 1.2, dim=24).fidelity
    f2 = protocols.run_cat_prep(4.0, 2.0, 0.3, dim=24).fidelity
    assert f1 == pytest.approx(f2, abs=1e-5)


def test_cat_prep_both_parities():
    for fock, parity in ((0, CatParity.EVEN), (1, CatParity.ODD)):
        res = protocols.run_cat_prep(1.0, 2.0, 2.5, initial_fock=fock, dim=26)
        assert res.target_parity is parity
        assert res.fidelity > 0.99
    with pytest.raises(ValueError):
        protocols.run_cat_prep(1.0, 2.0, 2.5, initial_fock=2)


def test_cat_prep_hamiltonian_terms_sum_to_ramp():
    kerr, dim = 1.3, 20
    s = protocols.CatPrepSchedule(t0=1.7, alpha=2.0)
    terms = protocols.cat_prep_hamiltonian(kerr, s, dim)
    n = number_op((dim,), 0)
    for t in np.linspace(-1.7, 0.0, 7):
        total = sum(op.toarray() * (1.0 if f is None else f(t)) for op, f in terms)
        ref = (h_kerr_single(kerr, kerr * s.alpha_t(t) ** 2, dim)
               + s.delta_q(t, kerr) * n).toarray()
        assert np.abs(total - ref).max() < 1e-12


def test_effective_single_qubit_map():
    p = protocols.SingleQubitParams(xi_p=0.3, delta_q=0.2)
    dtilde, omega_1, phi = protocols.effective_single_qubit(p, 2.0)
    a2 = 4.0
    assert dtilde == pytest.approx(0.2 * a2 * (1.0 / np.tanh(a2) - np.tanh(a2)))
    assert omega_1 == pytest.approx(
        0.3 * 2.0 * (np.sqrt(np.tanh(a2)) + np.sqrt(1.0 / np.tanh(a2)))
    )
    assert phi == pytest.approx(0.0)


def test_single_qubit_params_validation():
    with pytest.raises(ValueError):
        protocols.SingleQubitParams(xi_j=1.0, delta_q=1.0)


def test_u1_closed_form_unitary_and_hadamard():
    xi, theta = 1.1, np.pi / 4.0
    u = protocols.u1_closed_form(xi, theta, 0.0, np.pi / (2.0 * xi))
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    # equal up to a global phase
    phase = u[0, 0] / h[0, 0]
    assert np.abs(u - phase * h).max() < 1e-12


def test_josephson_splitting_matches_laguerre_closed_form():
    alpha, dim = 2.0, 80
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    w, v = np.linalg.eigh(2.0 * alpha * (a + a.T))
    cos_diag = np.einsum("ij,j,ij->i", v, np.cos(w), v)
    laguerre = np.exp(-2.0 * alpha**2) * eval_laguerre(np.arange(dim), 4.0 * alpha**2)
    weights = (np.abs(single_mode_cat_vector(dim, alpha, CatParity.EVEN)) ** 2
               - np.abs(single_mode_cat_vector(dim, alpha, CatParity.ODD)) ** 2)
    split = protocols.josephson_splitting(alpha)
    # the carrier average keeps the Fock diagonal of cos[2α(a + a†)]
    assert split == pytest.approx(weights @ laguerre, abs=1e-12)
    assert split == pytest.approx(weights @ cos_diag, abs=1e-12)
    assert split == pytest.approx(0.201088, abs=1e-6)
    # 0.8% above the large-α asymptote 1/(α√(2π)) = 0.19947 at α = 2
    assert split - 1.0 / (alpha * np.sqrt(2.0 * np.pi)) > 1e-3


def test_design_drive_round_trip():
    alpha, t_gate = 2.0, 0.8
    for target, theta in (("hadamard", np.pi / 4.0), ("not", np.pi / 2.0)):
        for use_h_add in (False, True):
            p = protocols.design_single_qubit_drive(target, alpha, t_gate, use_h_add)
            dtilde, omega_1, _ = protocols.effective_single_qubit(p, alpha)
            xi, theta_rot = protocols.rotation_parameters(dtilde, omega_1)
            assert xi * t_gate == pytest.approx(np.pi / 2.0, rel=1e-12)
            assert theta_rot == pytest.approx(theta, rel=1e-12)
            if target == "not":
                # cos θ_rot = 0 exactly: no detuning, and no Josephson drive to integrate
                assert p.delta_q == 0.0 and p.xi_j == 0.0
    with pytest.raises(ValueError):
        protocols.design_single_qubit_drive("cnot", alpha, t_gate, False)


def test_not_gate_full_simulation():
    kerr, alpha = 1.0, 2.0
    t_gate = 5.0 / kerr
    p = protocols.design_single_qubit_drive("not", alpha, t_gate, use_h_add=False)
    res = protocols.run_single_qubit_gate(kerr, kerr * alpha**2, p, t_gate=t_gate, dim=40)
    assert 1.0 - res.fidelity < 5e-4


def test_ramp_margin_positive():
    s = protocols.CatPrepSchedule(t0=2.0, alpha=2.0)
    assert protocols.ramp_margin(1.0, s) > 0.0
