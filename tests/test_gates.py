from math import comb, prod

import numpy as np
import pytest
import scipy.sparse as sp

from catms import gates, noise
from catms.dynamics import _sector_blocks, evolve_density, propagate_piecewise
from catms.hilbert import SparseOperator
from catms.model import CollapseChannel, GateConfig, Schedule
from catms.states import CatParity, basis_state, single_mode_cat_vector


def _cfg(**kw):
    base = dict(n_qubits=2, kerr=2 * np.pi * 5.0, alpha=2.0,
                j_coupling=2 * np.pi * 0.5, bus_dim=8, kpo_dim=14)
    base.update(kw)
    return GateConfig.from_alpha(**base)


def _fock_basis_state(cfg, k):
    """Basis state k built from the Fock-basis cats of the config."""
    cats = {p: single_mode_cat_vector(cfg.kpo_dim, cfg.alpha, p) for p in CatParity}
    return basis_state(cfg.bus_dim, cats, cfg.n_qubits, k)


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
    sched = gates.plan_detuning_switch(cfg, 0.05)
    tau, t_total = sched.times[1], sched.t_end
    assert len(sched.delta) == 2
    assert np.array_equal(sched.j_coupling, [cfg.j_coupling, cfg.j_coupling])
    chi_end, beta_end = gates.loop_trajectory(sched, cfg.alpha, t_total)
    assert abs(chi_end) < 1e-10
    assert beta_end == pytest.approx(-np.pi / 2.0, abs=1e-10)
    chi_tau, _ = gates.loop_trajectory(sched, cfg.alpha, tau)
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
    psi = _fock_basis_state(cfg, 0b01)
    assert gates.no_leakage(psi, gates.GateModel.fock(cfg)) == pytest.approx(1.0, abs=1e-10)


def test_output_fidelity_of_ideal_output():
    cfg = _cfg(bus_dim=4, kpo_dim=16)
    inp = 0b00
    col = gates.ms_target_matrix(2)[:, inp]
    out = sum(c * _fock_basis_state(cfg, k) for k, c in enumerate(col))
    model = gates.GateModel.fock(cfg)
    assert gates.output_fidelity(out, model, inp) == pytest.approx(1.0, abs=1e-10)


def test_run_gate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        gates.run_gate(_cfg(), mode="hybrid")


def test_parity_conservation_in_coherent_run():
    # the full gate couples KPOs only through photon exchange with the bus,
    # so propagating on the whole space keeps the joint photon-number parity
    # of each basis column (|C+> even, |C-> odd): run_gate's sector split
    # relies on it
    cfg = _cfg(n_qubits=1, bus_dim=8, kpo_dim=14)
    model = gates.GateModel.fock(cfg)
    b = np.stack([model.basis_vector(k) for k in range(2)], axis=1)
    sched = Schedule.constant(cfg.delta, cfg.j_coupling, gates.gate_time(cfg))
    u = propagate_piecewise(model.generators(sched), b)
    parity = (-1) ** np.indices(gates.model_dims(cfg, "full")).sum(axis=0).ravel()
    for k, sign in enumerate((1, -1)):
        wrong_weight = float(np.sum(np.abs(u[parity != sign, k]) ** 2))
        assert wrong_weight < 1e-10


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
    for inp in range(4):
        res = gates.run_gate(cfg, mode="effective", input_state=inp)
        m_ii = res.propagator[inp, inp]
        assert res.f_out == pytest.approx(abs(m_ii) ** 2, abs=1e-12)


def _piecewise_columns(config, schedule):
    """The effective model's basis columns, propagated segment by segment on the whole space."""
    model = gates.GateModel.effective(config)
    b = np.stack([model.basis_vector(k) for k in range(2**config.n_qubits)], axis=1)
    return propagate_piecewise(model.generators(schedule), b)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_sx_blocks_match_piecewise_propagation(n_qubits, monkeypatch):
    # the S_x-block path against the Chebyshev propagator on the whole-space
    # generators: both are exact in the truncated bus, so they agree to
    # round-off (8e-15 at most here). N = 4 has an s = 0 block and two s > 0
    # blocks, the gate runs two loops, and the noisy schedule spans more than
    # one eigh chunk
    cfg = _cfg(n_qubits=n_qubits, m_loops=2)
    spec = noise.StochasticNoiseSpec(eps_s=0.1, seed=3, n_events=gates._SEGMENT_CHUNK + 50,
                                     targets=("J", "delta"))
    schedules = [
        noise.noisy_schedule(cfg, spec, gates.gate_time(cfg)),
        gates.plan_detuning_switch(cfg, 0.05),
    ]
    inp = 1
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


def _sequential_trajectory(schedule, alpha, t):
    """(χ, β) at t by one closed-form step per segment, in a Python loop."""
    chi_acc = 0.0 + 0.0j
    beta_acc = 0.0
    for t0, t1, d, j, phi0 in schedule.segments():
        if t <= t0:
            break
        u = min(t, t1) - t0
        g = 2.0 * j * alpha * np.exp(1j * phi0)
        if abs(d) < 1e-14:
            beta_acc += float(np.imag(np.conj(g) * chi_acc)) * u
            chi_acc = chi_acc + g * u
        else:
            beta_acc += float(
                np.imag(np.conj(g) * chi_acc * (1.0 - np.exp(-1j * d * u)) / (1j * d))
            )
            beta_acc += (abs(g) ** 2 / d) * (np.sin(d * u) / d - u)
            chi_acc = chi_acc + g * (np.exp(1j * d * u) - 1.0) / (1j * d)
    return complex(chi_acc), float(beta_acc)


def test_loop_trajectory_matches_a_sequential_loop():
    # NumPy's vectorised complex products round apart from its scalar ones
    # by an ulp at most, and the sums run in the loop's order, so the two
    # agree to a few ulp
    cfg = _cfg()
    rng = np.random.default_rng(7)
    delta = rng.normal(cfg.delta, 0.2 * cfg.delta, 40)
    delta[::5] = 0.0
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, 40))])
    times *= gates.gate_time(cfg) / times[-1]
    sched = Schedule(times, delta, rng.normal(cfg.j_coupling, 0.1 * cfg.j_coupling, 40))
    for t in (0.0, times[1], times[17], 0.5 * (times[5] + times[6]), times[10] + 1e-9,
              sched.t_end):
        chi_v, beta_v = gates.loop_trajectory(sched, cfg.alpha, t)
        chi_s, beta_s = _sequential_trajectory(sched, cfg.alpha, t)
        assert abs(chi_v - chi_s) <= 1e-14 * max(1.0, abs(chi_s))
        assert abs(beta_v - beta_s) <= 1e-14
    assert gates.loop_trajectory(sched, cfg.alpha, 0.0) == (0j, 0.0)


def _sector_models():
    """GateModel.effective, fock and kerr_levels of one small dissipative config."""
    cfg = _cfg(alpha=1.0, bus_dim=4, kpo_dim=10, kappa=0.1, gamma=0.1, kappa0=0.1, gamma0=0.1)
    return cfg, [gates.GateModel.effective(cfg), gates.GateModel.fock(cfg),
                 gates.GateModel.kerr_levels(cfg.replace(kpo_levels=4))]


def _nonzero(m) -> bool:
    return bool(abs(m).sum() > 0)


def test_gate_models_keep_their_parity_sectors():
    cfg, models = _sector_models()
    sched = gates.plan_detuning_switch(cfg, 0.05)
    for model in models:
        even, odd = model.sectors
        assert np.array_equal(np.sort(np.concatenate([even, odd])), np.arange(prod(model.dims)))
        # every basis state lies in exactly one sector, that of its number of |C->
        for k in range(2**cfg.n_qubits):
            v = model.basis_vector(k)
            inside = [bool(np.abs(v[idx]).sum() > 0) for idx in model.sectors]
            assert inside == [bin(k).count("1") % 2 == 0, bin(k).count("1") % 2 == 1]
        # the segment generators have no cross-sector entries
        for h, _ in model.generators(sched):
            assert not _nonzero(h[even][:, odd]) and not _nonzero(h[odd][:, even])
            assert _nonzero(h[even][:, even]) and _nonzero(h[odd][:, odd])
        # every channel keeps the parity or flips it, never both: loss (and
        # the effective flip) flips it, dephasing keeps it
        kinds = []
        for ch in model.channels:
            o = ch.op.matrix
            keeps = _nonzero(o[even][:, even]) or _nonzero(o[odd][:, odd])
            flips = _nonzero(o[odd][:, even]) or _nonzero(o[even][:, odd])
            assert keeps != flips
            kinds.append("flip" if flips else "keep")
        per_kpo = ["flip"] if model is models[0] else ["flip", "keep"]
        assert kinds == ["flip", "keep"] + per_kpo * cfg.n_qubits


def test_sector_split_rejects_a_mixing_operator():
    cfg, models = _sector_models()
    model = models[1]
    v = model.basis_vector(0)
    rho = [(idx, np.outer(v[idx], v[idx].conj())) for idx in model.sectors]
    h, dt = model.generators(Schedule.constant(cfg.delta, cfg.j_coupling, 0.01))[0]
    loss, dephasing = model.channels[0].op.matrix, model.channels[1].op.matrix
    mixed = CollapseChannel(0.1, SparseOperator((loss + dephasing).tocsr()))
    with pytest.raises(ValueError, match="both within and across"):
        evolve_density(h, [mixed], rho, (0.0, dt))
    with pytest.raises(ValueError, match="both within and across"):
        evolve_density((h + loss + loss.conj().T).tocsr(), [], rho, (0.0, dt))
    cols = [(idx, v[idx][:, None]) for idx in model.sectors]
    with pytest.raises(ValueError, match="swaps the sectors"):
        propagate_piecewise([((loss + loss.conj().T).tocsr(), dt)], cols)


def _swap(dims):
    """The swap S of the two KPOs of an N = 2 layout, as a permutation matrix."""
    dim = prod(dims)
    n, i, j = np.unravel_index(np.arange(dim), dims)
    return sp.csr_matrix((np.ones(dim), (np.ravel_multi_index((n, j, i), dims), np.arange(dim))))


def _dissipator(channels, rho):
    """Σ r·D[o]ρ, densely, with D[o]ρ = oρo† − (o†oρ + ρo†o)/2."""
    out = np.zeros_like(rho)
    for ch in channels:
        o = ch.op.matrix.toarray()
        oo = o.conj().T @ o
        out += ch.rate * (o @ rho @ o.conj().T - (oo @ rho + rho @ oo) / 2)
    return out


def test_two_kpo_models_are_exchange_symmetric():
    cfg, models = _sector_models()
    sched = gates.plan_detuning_switch(cfg, 0.05)
    rng = np.random.default_rng(7)
    for model in models:
        swap = _swap(model.dims)
        for h, _ in model.generators(sched):
            assert not _nonzero(h @ swap - swap @ h)
        # the bus channels and o₊ keep the exchange parity (SoS = o), o₋ swaps it
        pm = model._exchange_channels()
        signs = [1, 1] + [1, -1] * ((len(pm) - 2) // 2)
        assert len(pm) == len(model.channels)
        for ch, sign in zip(pm, signs):
            assert not _nonzero(swap @ ch.op.matrix @ swap - sign * ch.op.matrix)
        # D[o₁] + D[o₂] = D[o₊] + D[o₋], pair by pair
        dim = prod(model.dims)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = (m + m.conj().T) / 2
        pairs, exchange = _dissipator(model.channels[2:], rho), _dissipator(pm[2:], rho)
        assert np.abs(pairs - exchange).max() <= 1e-14 * np.abs(pairs).max()


def test_sector_blocks_send_each_exchange_sector_to_one_sector():
    _, models = _sector_models()
    model = models[2]
    u, label = model._exchange_basis()
    sectors = [np.flatnonzero(label == s) for s in range(4)]
    assert [len(idx) for idx in sectors] == [20, 20, 12, 12]
    plus, minus = ((u.T @ ch.op.matrix @ u).tocsr() for ch in model._exchange_channels()[2:4])
    rng = np.random.default_rng(3)
    rho = np.zeros((len(label),) * 2, dtype=complex)
    for idx in sectors:
        rho[np.ix_(idx, idx)] = rng.normal(size=(len(idx),) * 2)
    # the loss's o₋ swaps both the total and the exchange parity
    whole = minus @ rho
    for s, t, block in _sector_blocks(minus, sectors):
        assert t == s ^ 3
        assert np.array_equal(block @ rho[np.ix_(sectors[s], sectors[s])],
                              whole[np.ix_(sectors[t], sectors[s])])
    # o₊ + o₋ = √2·o₁ sends each sector into two
    with pytest.raises(ValueError, match=r"maps sector 0 into sectors \[1, 3\]"):
        _sector_blocks((plus + minus).tocsr(), sectors)
    with pytest.raises(ValueError, match="leave a basis index out"):
        _sector_blocks(minus, sectors[:3])


@pytest.mark.parametrize("rates, n_sectors", [
    (dict(kappa0=0.3, gamma0=0.2), 2),
    (dict(kappa=0.1, gamma=0.1, kappa0=0.1, gamma0=0.1), 4),
])
def test_exchange_sectors_match_the_parity_pair(monkeypatch, rates, n_sectors):
    cfg = _cfg(alpha=1.0, bus_dim=3, kpo_dim=6, **rates)
    levels = cfg.replace(kpo_dim=10, kpo_levels=4)
    sched = Schedule.constant(cfg.delta, cfg.j_coupling, 0.2 * gates.gate_time(cfg))
    runs = [(cfg, "effective", gates.GateModel.effective(cfg)),
            (cfg, "full", gates.GateModel.fock(cfg)),
            (levels, "full", gates.GateModel.kerr_levels(levels))]
    for *_, model in runs:
        assert len(model.exchange_frame(0)[1]) == n_sectors
        assert model.exchange_frame(1) is None  # |C+C−⟩ takes the parity pair

    def run(k):
        return [gates.run_gate(c, schedule=sched, input_state=k, mode=mode) for c, mode, _ in runs]

    exchange, mixed = run(0), run(1)
    monkeypatch.setattr(gates.GateModel, "exchange_frame", lambda self, k: None)
    for a, b in zip(exchange, run(0)):
        assert np.abs(a.final_state - b.final_state).max() < 1e-12
        assert abs(a.f_out - b.f_out) < 1e-12 and abs(a.bus_top - b.bus_top) < 1e-12
        assert (a.p_c is None) == (b.p_c is None)
        assert a.p_c is None or abs(a.p_c - b.p_c) < 1e-12
    for a, b in zip(mixed, run(1)):
        assert np.array_equal(a.final_state, b.final_state)


def test_coherent_full_run_matches_whole_space_propagation():
    # run_gate propagates each basis column under its own sector's block of
    # the generators, with the block's own Chebyshev interval; the reference
    # propagates the columns on the whole space
    cfg = _cfg(n_qubits=2, bus_dim=6, kpo_dim=16)
    sched = gates.plan_detuning_switch(cfg, 0.05)
    levels = cfg.replace(kpo_dim=22, kpo_levels=6)
    for model_cfg, model in ((cfg, gates.GateModel.fock(cfg)),
                             (levels, gates.GateModel.kerr_levels(levels))):
        b = np.stack([model.basis_vector(k) for k in range(4)], axis=1)
        u = propagate_piecewise(model.generators(sched), b)
        u *= np.exp(1j * sched.phase(sched.t_end) * model.n0.diagonal().real)[:, None]
        m = gates.ms_target_matrix(2).conj().T @ (b.conj().T @ u)
        res = gates.run_gate(model_cfg, schedule=sched, input_state=1)
        assert np.abs(res.propagator - m).max() < 1e-12
        assert np.abs(res.final_state - u[:, 1]).max() < 1e-12
