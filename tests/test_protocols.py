import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from catms import dynamics, protocols
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


def test_cat_prep_right_hand_side_is_one_sparse_product(monkeypatch):
    # the ramp's three terms are one CSR matrix, so every right-hand-side
    # call of the stepper makes one sparse product, not one per term
    products = [0]
    for cls in (sp.csr_matrix, sp.csr_array):
        def counted(self, other, _matmul=cls.__matmul__):
            products[0] += 1
            return _matmul(self, other)
        monkeypatch.setattr(cls, "__matmul__", counted)
    stepper, per_call = dynamics.solve_ivp, []

    def counting(rhs, *args, **kwargs):
        def one_call(t, y):
            before = products[0]
            out = rhs(t, y)
            per_call.append(products[0] - before)
            return out
        return stepper(one_call, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counting)
    protocols.run_cat_prep(1.0, 2.0, 1.7, dim=16)
    assert len(per_call) > 1000 and set(per_call) == {1}


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
    laguerre = np.array([float(mpmath.exp(-2 * alpha**2) * mpmath.laguerre(k, 0, 4 * alpha**2))
                         for k in range(dim)])
    weights = (np.abs(single_mode_cat_vector(dim, alpha, CatParity.EVEN)) ** 2
               - np.abs(single_mode_cat_vector(dim, alpha, CatParity.ODD)) ** 2)
    split = protocols.josephson_splitting(alpha)
    # the carrier average keeps the Fock diagonal of cos[2α(a + a†)]
    assert split == pytest.approx(weights @ laguerre, abs=1e-12)
    assert split == pytest.approx(weights @ cos_diag, abs=1e-12)
    assert split == pytest.approx(0.201088, abs=1e-6)
    # 0.8% above the large-α asymptote 1/(α√(2π)) = 0.19947 at α = 2
    assert split - 1.0 / (alpha * np.sqrt(2.0 * np.pi)) > 1e-3


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 4.0])
def test_josephson_splitting_matches_an_mpmath_sum(alpha):
    # Σ_n ±p_n·e^{−2α²}L_n(4α²) in 40-digit arithmetic, with L_n as its
    # finite sum Σ_j C(n, j)(−x)^j/j! and 60 orders past the program's range
    with mpmath.workdps(40):
        a2 = mpmath.mpf(alpha) ** 2
        x, overlap = 4 * a2, mpmath.exp(-2 * a2)
        total = mpmath.mpf(0)
        for n in range(int(np.ceil(alpha**2 + 12 * alpha + 40)) + 60):
            lag = mpmath.fsum(mpmath.binomial(n, j) * (-x) ** j / mpmath.factorial(j)
                              for j in range(n + 1))
            poisson = mpmath.exp(-a2) * a2**n / mpmath.factorial(n)
            weight = 2 / (1 + overlap) if n % 2 == 0 else -2 / (1 - overlap)
            total += weight * poisson * overlap * lag
    assert abs(protocols.josephson_splitting(alpha) - float(total)) < 1e-13


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


def test_josephson_drive_needs_use_h_add():
    # the closed-form target carries the Josephson term, so a run that left it
    # out of H would be scored against the wrong gate (F̄ = 0.601 here)
    p = protocols.design_single_qubit_drive("hadamard", 2.0, 5.0, use_h_add=True)
    assert p.xi_j != 0.0
    with pytest.raises(ValueError, match="use_h_add"):
        protocols.run_single_qubit_gate(1.0, 4.0, p, use_h_add=False, t_gate=5.0)


def test_ramp_margin_positive():
    s = protocols.CatPrepSchedule(t0=2.0, alpha=2.0)
    assert protocols.ramp_margin(1.0, s) > 0.0


def test_josephson_period_propagator_matches_continuous_rk4():
    # U(t) = U(r)·U(T)^n against one RK4 run over [0, t] on the same step grid,
    # at t = 2.5 carrier periods, with a copy of the term-by-term right-hand
    # side (h0·y and the rotated C·y, C = cos(2α(a + a†)))
    from catms.dynamics import _rk4_integrate
    from catms.hilbert import annihilation

    kerr, alpha, dim, omega_c, steps = 1.0, 1.5, 16, 200.0, 320
    params = protocols.design_single_qubit_drive("hadamard", alpha, 0.5, use_h_add=True)
    t = 2.5 * 2 * np.pi / omega_c
    res = protocols.run_single_qubit_gate(kerr, kerr * alpha**2, params, use_h_add=True,
                                          t_gate=t, omega_c=omega_c, dim=dim,
                                          n_steps_per_cycle=steps)
    a = annihilation((dim,), 0)
    h0 = h_kerr_single(kerr, kerr * alpha**2, dim)
    h0 = h0 + params.xi_p * a + np.conj(params.xi_p) * a.conj().T
    w, v = np.linalg.eigh(2 * alpha * (a + a.conj().T).toarray())
    cos_x = (v * np.cos(w)) @ v.conj().T
    n = np.arange(dim)

    def rhs(s, y):
        rot = np.exp(1j * omega_c * s * n)
        return -1j * (h0 @ y + params.xi_j * (rot[:, None] * (cos_x @ (rot.conj()[:, None] * y))))

    basis = np.stack([single_mode_cat_vector(dim, alpha, CatParity.ODD),
                      single_mode_cat_vector(dim, alpha, CatParity.EVEN)], axis=1)
    period = 2 * np.pi / omega_c
    cols = _rk4_integrate(rhs, basis, 0.0, t, period / steps)
    assert np.abs(res.propagator - basis.conj().T @ cols).max() < 1e-10
    # the same U(r)·U(T)^2 from the copy: the one-product right-hand side
    # changes the rounding only
    eye = np.eye(dim, dtype=complex)
    u = np.linalg.matrix_power(_rk4_integrate(rhs, eye, 0.0, period, period / steps), 2)
    u = _rk4_integrate(rhs, eye, 0.0, t - 2 * period, period / steps) @ u
    assert np.abs(res.propagator - basis.conj().T @ u @ basis).max() < 1e-13

