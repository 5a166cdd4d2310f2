from math import comb

import numpy as np
import pytest

from catms import gates, noise
from catms.dynamics import propagate_piecewise
from catms.model import GateConfig, Schedule
from catms.states import CatParity, QubitBasisState, all_basis_states, basis_state


def _cfg(**kw):
    base = dict(n_qubits=2, kerr=2 * np.pi * 5.0, alpha=2.0,
                j_coupling=2 * np.pi * 0.5, bus_dim=8, kpo_dim=14)
    base.update(kw)
    return GateConfig.from_alpha(**base)


def test_loop_geometry_closed_form():
    cfg = _cfg()
    t_g = gates.gate_time(cfg)
    assert abs(gates.chi(t_g, cfg)) < 1e-12
    assert gates.beta(t_g, cfg) == pytest.approx(-np.pi / 2.0, abs=1e-12)
    # half way round, the bus is one loop diameter 2r = 4Jα/Δ from the origin
    r = 2.0 * cfg.j_coupling * cfg.alpha / cfg.delta
    assert abs(gates.chi(t_g / 2.0, cfg)) == pytest.approx(2.0 * r, rel=1e-12)


def test_gate_time_scaling():
    cfg = _cfg()
    assert gates.gate_time(cfg) == pytest.approx(np.pi / (2.0 * cfg.j_coupling * cfg.alpha))
    cfg4 = _cfg(m_loops=4)
    assert gates.gate_time(cfg4) == pytest.approx(2.0 * gates.gate_time(cfg))


def test_loop_trajectory_matches_closed_form():
    cfg = _cfg()
    sched = Schedule.constant(cfg.delta, cfg.j_coupling, gates.gate_time(cfg))
    for frac in (0.2, 0.5, 0.8, 1.0):
        t = frac * gates.gate_time(cfg)
        chi_n, beta_n = gates.loop_trajectory(sched, cfg.alpha, t)
        assert abs(chi_n - gates.chi(t, cfg)) < 1e-10
        assert beta_n == pytest.approx(gates.beta(t, cfg), abs=1e-10)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_sx_blocks_decompose_sx(n_qubits):
    # the P_s are orthogonal projectors of rank C(N, k) that resolve the
    # identity, and Σ s·P_s is S_x = ½Σσx_n built from Kronecker products
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    dim = 2**n_qubits
    total = sum(np.kron(np.kron(np.eye(2**n), sx), np.eye(2 ** (n_qubits - n - 1)))
                for n in range(n_qubits)) / 2.0
    blocks = gates.sx_blocks(n_qubits)
    assert [s for s, _ in blocks] == [n_qubits / 2.0 - k for k in range(n_qubits + 1)]
    for k, (s, p) in enumerate(blocks):
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.T).max() == 0.0
        assert np.trace(p) == pytest.approx(comb(n_qubits, k), abs=1e-12)
        for _, q in blocks[k + 1:]:
            assert np.abs(p @ q).max() < 1e-12
    assert np.abs(sum(p for _, p in blocks) - np.eye(dim)).max() < 1e-12
    assert np.abs(sum(s * p for s, p in blocks) - total).max() < 1e-12


def test_ms_unitary_is_unitary():
    cfg = _cfg(bus_dim=6)
    t = 0.37 * gates.gate_time(cfg)
    u = gates.ms_unitary(cfg, gates.chi(t, cfg), gates.beta(t, cfg))
    assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-10


def test_ms_target_matrix_entangles():
    # exp(i pi/2 Sx^2) maps |++> to a maximally entangled superposition
    u = gates.ms_target_matrix(2)
    col = u[:, 0]
    assert abs(col[0]) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert abs(col[3]) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_average_gate_fidelity_properties():
    assert gates.average_gate_fidelity(np.eye(4)) == pytest.approx(1.0)
    assert gates.average_gate_fidelity(np.exp(1j * 0.7) * np.eye(4)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gates.average_gate_fidelity(np.zeros((2, 3)))


def test_error_bias_identity():
    cfg = _cfg()
    t_g = gates.gate_time(cfg)
    assert gates.verify_error_bias(cfg, 0.3 * t_g, 1, bus_dim=12) < 1e-10
    with pytest.raises(ValueError):
        gates.verify_error_bias(cfg, 1.5 * t_g, 1)


def test_switch_plan_invariants():
    cfg = _cfg()
    plan = gates.plan_detuning_switch(cfg, 0.05)
    sched = plan.to_schedule(cfg.j_coupling)
    chi_end, beta_end = gates.loop_trajectory(sched, cfg.alpha, plan.t_total)
    assert abs(chi_end) < 1e-10
    assert beta_end == pytest.approx(-np.pi / 2.0, abs=1e-10)
    chi_tau, _ = gates.loop_trajectory(sched, cfg.alpha, plan.tau)
    assert abs(chi_tau) < 1e-10
    with pytest.raises(ValueError):
        gates.plan_detuning_switch(cfg, 1.5)


def test_run_gate_effective_coherent():
    cfg = _cfg()
    res = gates.run_gate(cfg, mode="effective")
    assert res.f_avg == pytest.approx(1.0, abs=1e-5)
    assert abs(res.beta_total + np.pi / 2.0) < 1e-10
    # deterministic
    res2 = gates.run_gate(cfg, mode="effective")
    assert np.array_equal(res.propagator, res2.propagator)


def test_run_gate_full_coherent_small():
    cfg = _cfg(n_qubits=1, bus_dim=8, kpo_dim=16)
    res = gates.run_gate(cfg, mode="full")
    assert res.f_avg > 0.999


def test_run_gate_reduced_basis_matches_full():
    cfg = _cfg(n_qubits=1, bus_dim=8, kpo_dim=20)
    full = gates.run_gate(cfg, mode="full")
    red = gates.run_gate(cfg.replace(kpo_levels=6), mode="full")
    assert red.f_avg == pytest.approx(full.f_avg, abs=2e-4)


def test_no_leakage_on_pure_cat_product():
    cfg = _cfg(bus_dim=4, kpo_dim=16)
    psi = basis_state(cfg, QubitBasisState((CatParity.EVEN, CatParity.ODD)))
    assert gates.no_leakage(psi, gates.GateModel.fock(cfg)) == pytest.approx(1.0, abs=1e-10)


def test_output_fidelity_of_ideal_output():
    cfg = _cfg(bus_dim=4, kpo_dim=16)
    inp = QubitBasisState((CatParity.EVEN, CatParity.EVEN))
    col = gates.ms_target_matrix(2)[:, inp.index]
    out = sum(c * basis_state(cfg, b) for c, b in zip(col, all_basis_states(2)))
    model = gates.GateModel.fock(cfg)
    assert gates.output_fidelity(out, model, inp) == pytest.approx(1.0, abs=1e-10)


def test_run_gate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        gates.run_gate(_cfg(), mode="hybrid")


def test_parity_conservation_in_coherent_run():
    # the full gate couples KPOs only through photon exchange with the bus,
    # so the joint photon-number parity of the final state is unchanged
    cfg = _cfg(n_qubits=1, bus_dim=8, kpo_dim=14)
    res = gates.run_gate(cfg, mode="full", input_state=QubitBasisState((CatParity.EVEN,)))
    amps = res.final_state
    parity = (-1) ** np.indices(gates.model_dims(cfg, "full")).sum(axis=0).ravel()
    odd_weight = float(np.sum(np.abs(amps[parity < 0]) ** 2))
    assert odd_weight < 1e-10


def test_run_gate_full_coherent_pinned():
    # kpo_dim 10 truncates the α = 2 cats, so F̄ is far from 1; the value pins
    # the block propagation of the dim-600 Fock generator, not the physics. The
    # earlier column-by-column Taylor propagator gave 0.6000916655991034, and a
    # dense eigendecomposition gives 0.6000916655981235.
    cfg = _cfg(j_coupling=2 * np.pi * 1.0, bus_dim=6, kpo_dim=10)
    res = gates.run_gate(cfg, mode="full")
    assert res.f_avg == pytest.approx(0.6000916655991034, abs=1e-10)


def test_coherent_block_keeps_basis_order():
    # F_out of input i is |<target_i|u_i>|² = |M_ii|², so a final column taken
    # from the wrong place in the propagated block fails this
    cfg = _cfg()
    for inp in all_basis_states(2):
        res = gates.run_gate(cfg, mode="effective", input_state=inp)
        m_ii = res.propagator[inp.index, inp.index]
        assert res.f_out == pytest.approx(abs(m_ii) ** 2, abs=1e-12)


def _piecewise_columns(config, schedule):
    """The effective model's basis columns, propagated segment by segment by expm_multiply."""
    model = gates.GateModel.effective(config)
    b = np.stack([model.basis_vector(q) for q in all_basis_states(config.n_qubits)], axis=1)
    return propagate_piecewise(model.generators(schedule), b)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_sx_blocks_match_piecewise_propagation(n_qubits, monkeypatch):
    # the S_x-block path against expm_multiply on the whole-space generators:
    # both are exact in the truncated bus, so they agree to round-off. Most of
    # the difference is expm_multiply's: on the two long switch segments it
    # reads 1e-13 here and 1.5e-12 at bus_dim 10, where the blocks stay within
    # 1e-15 of a dense scipy.linalg.expm
    cfg = _cfg(n_qubits=n_qubits)
    spec = noise.StochasticNoiseSpec(eps_s=0.1, seed=3, n_events=50, targets=("J", "delta"))
    schedules = [
        noise.noisy_schedule(cfg, spec, gates.gate_time(cfg)),
        gates.plan_detuning_switch(cfg, 0.05).to_schedule(cfg.j_coupling),
    ]
    inp = all_basis_states(n_qubits)[1]
    for sched in schedules:
        cols = gates.sx_block_columns(cfg, sched)
        assert np.abs(cols - _piecewise_columns(cfg, sched)).max() < 1e-12
        block = gates.run_gate(cfg, schedule=sched, mode="effective", input_state=inp)
        with monkeypatch.context() as m:
            m.setattr(gates, "sx_block_columns", _piecewise_columns)
            ref = gates.run_gate(cfg, schedule=sched, mode="effective", input_state=inp)
        assert np.abs(block.propagator - ref.propagator).max() < 1e-12
        assert block.f_avg == pytest.approx(ref.f_avg, abs=1e-12)
        assert block.bus_top == pytest.approx(ref.bus_top, abs=1e-12)
        assert np.abs(block.final_state - ref.final_state).max() < 1e-12
