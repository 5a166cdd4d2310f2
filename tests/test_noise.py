import numpy as np
import pytest

from catms import gates, noise
from catms.model import GateConfig, Schedule


def _cfg(**kw):
    base = dict(n_qubits=2, kerr=2 * np.pi * 5.0, alpha=2.0,
                j_coupling=2 * np.pi * 0.5, bus_dim=6, kpo_dim=10)
    base.update(kw)
    return GateConfig.from_alpha(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        noise.StochasticNoiseSpec(eps_s=-0.1, seed=0)
    with pytest.raises(ValueError):
        noise.StochasticNoiseSpec(eps_s=0.1, seed=0, targets=("t_g",))
    with pytest.raises(ValueError):
        noise.SystematicNoiseSpec(eps_a=1.5)
    with pytest.raises(ValueError):
        noise.SystematicNoiseSpec(eps_a=0.1, targets={"J": 2})
    with pytest.raises(ValueError):
        noise.SystematicNoiseSpec(eps_a=0.1, targets={"phi": 1})


def test_noisy_schedule_bounds_and_determinism():
    cfg = _cfg()
    spec = noise.StochasticNoiseSpec(eps_s=0.1, seed=42, n_events=500)
    s1 = noise.noisy_schedule(cfg, spec, 1.0)
    s2 = noise.noisy_schedule(cfg, spec, 1.0)
    assert np.array_equal(s1.j_coupling, s2.j_coupling)
    assert len(s1.j_coupling) == 500 and len(s1.times) == 501
    assert np.all(np.abs(s1.j_coupling / cfg.j_coupling - 1.0) <= 0.1)
    s3 = noise.noisy_schedule(cfg, noise.StochasticNoiseSpec(0.1, seed=43, n_events=500), 1.0)
    assert not np.array_equal(s1.j_coupling, s3.j_coupling)


def test_noisy_schedule_targets():
    cfg = _cfg()
    spec_j = noise.StochasticNoiseSpec(eps_s=0.1, seed=1, n_events=100, targets=("J",))
    s = noise.noisy_schedule(cfg, spec_j, 1.0)
    assert len(s.delta) == 100
    assert np.all(s.delta == cfg.delta)  # delta untouched
    assert np.any(s.j_coupling != cfg.j_coupling)
    spec_both = noise.StochasticNoiseSpec(eps_s=0.1, seed=1, n_events=100,
                                          targets=("J", "delta"))
    s2 = noise.noisy_schedule(cfg, spec_both, 1.0)
    assert np.any(s2.delta != cfg.delta)
    # draw order is canonical: the J levels agree between the two specs
    assert np.array_equal(s.j_coupling, s2.j_coupling)


def test_apply_systematic_each_target():
    # the perturbed config, and the constant loop at its (Δ, J) for its gate time
    cfg = _cfg()
    out, sched = noise.apply_systematic(cfg, noise.SystematicNoiseSpec(0.05, {"J": -1}))
    assert out.j_coupling == pytest.approx(0.95 * cfg.j_coupling)
    assert sched.j_coupling[0] == out.j_coupling and sched.t_end == gates.gate_time(out)
    out, sched = noise.apply_systematic(cfg, noise.SystematicNoiseSpec(0.05, {"delta": +1}))
    assert out.delta == pytest.approx(1.05 * cfg.delta)
    assert sched.delta[0] == out.delta and sched.t_end == gates.gate_time(out)
    out, _ = noise.apply_systematic(cfg, noise.SystematicNoiseSpec(0.05, {"alpha": +1}))
    assert out.alpha == pytest.approx(1.05 * cfg.alpha)
    out, sched = noise.apply_systematic(cfg, noise.SystematicNoiseSpec(0.05, {"t_g": -1}))
    assert sched.t_end / gates.gate_time(cfg) == pytest.approx(0.95)
    assert out.delta == cfg.delta  # the loop itself unchanged
    assert (sched.delta[0], sched.j_coupling[0]) == (cfg.delta, cfg.j_coupling)


def test_perturb_schedule():
    s = Schedule(np.array([0.0, 1.0]), np.array([4.0]), np.array([2.0]))
    out = noise.perturb_schedule(s, noise.SystematicNoiseSpec(0.1, {"J": -1, "delta": -1}))
    assert out.j_coupling[0] == pytest.approx(1.8)
    assert out.delta[0] == pytest.approx(3.6)
    with pytest.raises(ValueError):
        noise.perturb_schedule(s, noise.SystematicNoiseSpec(0.1, {"t_g": -1}))


def test_rng_algorithm_is_counter_based():
    assert noise.RNG_ALGORITHM == "philox4x64"
