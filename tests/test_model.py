from math import prod

import numpy as np
import pytest

from catms.gates import GateModel, no_leakage
from catms.hilbert import annihilation
from catms.model import GateConfig, Schedule, h_kerr_single, kerr_level_isometry
from catms.states import CatParity, all_basis_states, single_mode_cat_vector


def _cfg(**kw):
    base = dict(n_qubits=2, kerr=2 * np.pi * 5.0, alpha=2.0,
                j_coupling=2 * np.pi * 0.5, bus_dim=6, kpo_dim=20)
    base.update(kw)
    return GateConfig.from_alpha(**base)


def test_from_alpha_defaults_to_resonance_detuning():
    cfg = _cfg()
    assert cfg.delta == pytest.approx(4.0 * cfg.j_coupling * cfg.alpha)
    assert cfg.alpha == pytest.approx(2.0)
    assert cfg.omega_p == pytest.approx(cfg.kerr * 4.0)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(j_coupling=-1.0)
    with pytest.raises(ValueError):
        _cfg(kappa=-0.1)
    with pytest.raises(ValueError):
        _cfg(kpo_levels=1)
    with pytest.raises(ValueError):
        _cfg(kpo_levels=25)  # above kpo_dim
    # every mode keeps at least two levels
    with pytest.raises(ValueError):
        _cfg(bus_dim=1)
    with pytest.raises(ValueError):
        _cfg(kpo_dim=1)


def test_cat_states_top_the_kerr_spectrum():
    kerr, alpha, dim = 1.0, 2.0, 30
    hk = h_kerr_single(kerr, kerr * alpha**2, dim).toarray()
    w, v = np.linalg.eigh(hk)
    # two degenerate top eigenstates at ~ +K alpha^4
    assert w[-1] == pytest.approx(kerr * alpha**4, rel=1e-3)
    assert w[-2] == pytest.approx(kerr * alpha**4, rel=1e-3)
    for parity in CatParity:
        cat = single_mode_cat_vector(dim, alpha, parity)
        proj = v[:, -2:] @ (v[:, -2:].conj().T @ cat)
        assert np.linalg.norm(proj) == pytest.approx(1.0, abs=1e-6)


def test_energy_gap_matches_spectrum():
    # the level energies that GateModel.kerr_levels puts on its diagonal
    kerr, alpha, dim = 1.0, 2.0, 30
    w = np.linalg.eigvalsh(h_kerr_single(kerr, kerr * alpha**2, dim).toarray())
    energies, _ = kerr_level_isometry(kerr, kerr * alpha**2, dim, 4)
    assert np.abs(energies - w[::-1][:4]).max() < 1e-12
    # anharmonicity pulls the gap to the first excited manifold ~18% below
    # the 4Kα² estimate
    gap = energies[0] - energies[2]
    assert gap == pytest.approx(4.0 * kerr * alpha**2, rel=0.25)


def test_kerr_level_isometry_properties():
    energies, v = kerr_level_isometry(1.0, 4.0, 24, 6)
    assert v.shape == (24, 6)
    assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-12
    assert np.all(np.diff(energies) <= 1e-12)  # sorted descending
    # top two levels hold the cat manifold
    for parity in CatParity:
        cat = single_mode_cat_vector(24, 2.0, parity)
        assert np.linalg.norm(v[:, :2].conj().T @ cat) == pytest.approx(1.0, abs=1e-6)


def test_kerr_levels_are_parity_pure():
    # the Kerr Hamiltonian conserves photon-number parity: each level lies in
    # one parity exactly, the cat pair is one even and one odd level, and a
    # flips parity, so V†aV has no entry between two levels of one parity
    dim = 22
    _, v = kerr_level_isometry(1.0, 4.0, dim, 8)
    even = np.abs(v[1::2]).max(axis=0) == 0
    odd = np.abs(v[0::2]).max(axis=0) == 0
    assert np.all(even != odd)
    assert sorted(even[:2]) == [False, True]
    a_red = v.conj().T @ annihilation((dim,), 0).toarray() @ v
    assert np.all(a_red[even[:, None] == even[None, :]] == 0)
    assert np.abs(a_red).max() > 1.0  # the cross-parity entries carry a


def test_hamiltonians_hermitian():
    cfg = _cfg(bus_dim=4, kpo_dim=8)
    models = (GateModel.effective(cfg), GateModel.fock(cfg),
              GateModel.kerr_levels(_cfg(bus_dim=4, kpo_dim=20, kpo_levels=6)))
    for m in models:
        # a segment generator Δ·n0 + h_rest + J·c, at arbitrary Δ and J
        h = (1.7 * m.n0 + m.h_rest + 0.9 * m.c).toarray()
        assert np.abs(h - h.conj().T).max() < 1e-10


def test_collapse_channel_counts():
    cfg = _cfg(kappa=0.1, gamma=0.2, kappa0=0.3, gamma0=0.4, bus_dim=4, kpo_dim=6)
    assert len(GateModel.fock(cfg).channels) == 2 + 2 * cfg.n_qubits
    # no KPO dephasing channel: it would be γα⁴·D[I], which vanishes identically
    assert len(GateModel.effective(cfg).channels) == 2 + cfg.n_qubits


def test_effective_bit_flip_rate():
    cfg = _cfg(kappa=0.1, bus_dim=4)
    chans = GateModel.effective(cfg).channels
    a2 = cfg.alpha**2
    expected = 0.1 * a2 / np.sqrt(1.0 - np.exp(-4.0 * a2))
    assert chans[0].rate == pytest.approx(expected)


def test_projector_cat_idempotent():
    # no_leakage is the weight under the projector I_bus ⊗ P_cat ⊗ P_cat
    cfg = _cfg(bus_dim=3, kpo_dim=14)
    model = GateModel.fock(cfg)
    dim = prod(model.dims)
    cats = np.stack([model.cats[p] for p in CatParity], axis=1)
    p1 = cats @ cats.conj().T
    proj = np.kron(np.eye(3), np.kron(p1, p1))
    rng = np.random.default_rng(7)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    inside = proj @ psi
    assert no_leakage(psi, model) == pytest.approx(
        np.vdot(inside, inside).real, abs=1e-12)
    # idempotent: the projected state lies wholly in the cat span
    inside /= np.linalg.norm(inside)
    assert no_leakage(inside, model) == pytest.approx(1.0, abs=1e-12)
    # 0 on a state orthogonal to the span, cos²θ on a mixture with a cat product
    outside = psi - proj @ psi
    outside /= np.linalg.norm(outside)
    assert no_leakage(outside, model) < 1e-12
    cat = model.basis_vector(all_basis_states(2)[1])
    c2 = np.cos(0.3) ** 2
    rho = c2 * np.outer(cat, cat.conj()) + (1 - c2) * np.outer(outside, outside.conj())
    assert no_leakage(rho, model) == pytest.approx(c2, abs=1e-12)


def test_schedule_phase_and_segments():
    s = Schedule(np.array([0.0, 1.0, 3.0]), np.array([2.0, 5.0]), np.array([1.0, 1.0]))
    assert s.phase(0.5) == pytest.approx(1.0)
    assert s.phase(2.0) == pytest.approx(2.0 + 5.0)
    assert len(list(s.segments())) == 2


def test_schedule_clipped():
    s = Schedule(np.array([0.0, 1.0, 3.0]), np.array([2.0, 5.0]), np.array([1.0, 1.0]))
    mid = s.clipped(2.0)
    assert mid.t_end == 2.0 and len(mid.delta) == 2
    at_break = s.clipped(1.0)
    assert at_break.t_end == 1.0 and len(at_break.delta) == 1
    longer = s.clipped(4.0)
    assert longer.t_end == 4.0 and len(longer.delta) == 2
    with pytest.raises(ValueError):
        s.clipped(0.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Schedule(np.array([0.5, 1.0]), np.array([1.0]), np.array([1.0]))
