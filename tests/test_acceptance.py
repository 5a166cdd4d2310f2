"""End-to-end acceptance suite.

Each test checks one headline capability of the engine at its stated
tolerance and emits a single pass/fail line (collected in the terminal
summary).  The tests are ordered from analytic identities to full
open-system runs; the slowest take a few minutes.
"""

import os
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp, trapezoid

from _acceptance_report import report
from catms import gates, noise, protocols
from catms.model import GateConfig, Schedule

K5 = 2.0 * np.pi * 5.0  # Kerr nonlinearity, rad/us


def _cfg(n_qubits=2, j_mhz=0.5, alpha=2.0, **kw):
    return GateConfig.from_alpha(n_qubits, K5, alpha, 2.0 * np.pi * j_mhz, **kw)


def test_01_loop_geometry_identities():
    t_start = time.perf_counter()
    worst_chi = 0.0
    worst_beta = 0.0
    for m in range(1, 10):
        cfg = _cfg(m_loops=m)
        t_g = gates.gate_time(cfg)
        worst_chi = max(worst_chi, abs(gates.chi(t_g, cfg)))
        worst_beta = max(worst_beta, abs(gates.beta(t_g, cfg) + np.pi / 2.0))
    elapsed = time.perf_counter() - t_start
    ok = worst_chi < 1e-12 and worst_beta < 1e-12 and elapsed < 1.0
    report(1, "closed-loop geometry identities", ok,
           f"max|chi(t_g)|={worst_chi:.2e}, max|beta+pi/2|={worst_beta:.2e}, "
           f"{elapsed:.2f}s")
    assert ok


def test_02_effective_dynamics_matches_closed_form():
    t_start = time.perf_counter()
    cfg = _cfg(bus_dim=32)
    dim = 4 * cfg.bus_dim
    t_g = gates.gate_time(cfg)

    # b = 2Jα S_x a0 on the qubit-level space (bus first), from exact Kronecker
    # products: S_x = ½(σx ⊗ I + I ⊗ σx)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    half_sx = 0.5 * (np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx))
    a0 = np.diag(np.sqrt(np.arange(1.0, cfg.bus_dim)), 1)
    b = (2.0 * cfg.j_coupling * cfg.alpha) * sp.csr_matrix(np.kron(a0, half_sx), dtype=complex)
    bd = b.conj().T

    # b + b† is the coupling that the effective model's segment generator carries
    j_c = cfg.j_coupling * gates.GateModel.effective(cfg).c
    assert np.abs((j_c - (b + bd)).toarray()).max() < 1e-12

    # propagate every computational column with bus Fock < 8
    cols = [f * 4 + q for f in range(8) for q in range(4)]
    y0 = np.zeros((dim, len(cols)), dtype=complex)
    for k, c in enumerate(cols):
        y0[c, k] = 1.0

    def rhs(t, y):
        m = y.reshape(dim, -1)
        h = np.exp(-1j * cfg.delta * t) * (b @ m) + np.exp(1j * cfg.delta * t) * (bd @ m)
        return (-1j * h).ravel()

    sol = solve_ivp(rhs, (0.0, t_g), y0.ravel(), method="DOP853",
                    rtol=1e-10, atol=1e-12)
    u_num = sol.y[:, -1].reshape(dim, -1)
    u_cl = gates.ms_unitary(cfg, gates.chi(t_g, cfg), gates.beta(t_g, cfg))
    dist = float(np.abs(u_num - u_cl[:, cols]).max())
    elapsed = time.perf_counter() - t_start
    ok = dist < 1e-6 and elapsed < 10.0
    report(2, "integrated spin-boson dynamics vs closed form", ok,
           f"max-entry distance={dist:.2e}, {elapsed:.1f}s")
    assert ok


def test_03_two_and_three_qubit_fidelity_sweep():
    # exact gate-time law, including t_g = 25 ns at J/2pi = 5 MHz
    for j in (0.1, 0.25, 0.5, 5.0):
        cfg = _cfg(j_mhz=j)
        assert gates.gate_time(cfg) == pytest.approx(
            np.pi / (2.0 * cfg.j_coupling * cfg.alpha), rel=1e-14)
    assert gates.gate_time(_cfg(j_mhz=5.0)) == pytest.approx(0.025, rel=1e-14)

    f2 = {}
    for j in (0.1, 0.25, 0.5):
        cfg = _cfg(j_mhz=j, bus_dim=8, kpo_dim=16)
        f2[j] = gates.run_gate(cfg, mode="full").f_avg
    cfg3 = _cfg(n_qubits=3, j_mhz=0.5, bus_dim=8, kpo_dim=18, kpo_levels=6)
    f3 = gates.run_gate(cfg3, mode="full").f_avg
    ok = all(f >= 0.999 for f in f2.values()) and f3 >= 0.997
    report(3, "entangling-gate fidelity at weak coupling", ok,
           "F2=" + ", ".join(f"{f:.5f}@J/2pi={j}" for j, f in f2.items())
           + f"; F3={f3:.5f}")
    assert ok


def _bias_draws():
    """(worst distance, process CPU seconds) of 50 random verify_error_bias draws."""
    t_start = time.process_time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n_q = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        cfg = _cfg(n_qubits=n_q, m_loops=m)
        tau = float(rng.uniform(0.05, 0.95)) * gates.gate_time(cfg)
        qubit = int(rng.integers(1, n_q + 1))
        worst = max(worst, gates.verify_error_bias(cfg, tau, qubit, bus_dim=12))
    return worst, time.process_time() - t_start


def test_04_bit_flip_error_commutes_with_gate():
    # CPU time of the process, so the bound does not depend on what else
    # shares the host; the draws run in a child interpreter with BLAS on one
    # thread, so it does not depend on the host's core count either
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = (f"import sys; sys.path[:0] = [{str(here.parent / 'src')!r}, {str(here)!r}]; "
            "from test_acceptance import _bias_draws; print(*_bias_draws())")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    worst, elapsed = map(float, proc.stdout.split())
    ok = worst < 1e-10 and elapsed < 1.0
    report(4, "error-bias preservation over 50 random draws", ok,
           f"worst distance={worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_05_photon_loss_full_vs_effective():
    diffs = {}
    p_c_alpha2 = None
    for alpha, kpo_dim in ((1.5, 18), (2.0, 22), (2.5, 26)):
        cfg = _cfg(alpha=alpha, kappa=0.1, bus_dim=10,
                   kpo_dim=kpo_dim, kpo_levels=6)
        full = gates.run_gate(cfg, mode="full")
        eff = gates.run_gate(cfg, mode="effective")
        diffs[alpha] = abs(full.f_out - eff.f_out)
        if alpha == 2.0:
            p_c_alpha2 = full.p_c
    ok = all(d < 0.01 for d in diffs.values()) and p_c_alpha2 >= 0.999
    report(5, "single-photon loss: full vs cat-manifold model", ok,
           "|dF_out|=" + ", ".join(f"{d:.1e}@a={a}" for a, d in diffs.items())
           + f"; P_C(a=2)={p_c_alpha2:.6f}")
    assert ok


def test_06_pure_dephasing_tracks_leakage():
    cfg = _cfg(gamma=0.1, bus_dim=10, kpo_dim=22, kpo_levels=6)
    res = gates.run_gate(cfg, mode="full")
    gap = abs(res.p_c - res.f_out)
    ok = gap <= 0.02
    report(6, "pure dephasing: P_C tracks F_out", ok,
           f"F_out={res.f_out:.5f}, P_C={res.p_c:.5f}, |diff|={gap:.4f}")
    assert ok


def test_07_stochastic_parameter_noise_robustness():
    cfg = _cfg(bus_dim=10, kpo_dim=14)
    t_g = gates.gate_time(cfg)
    f0 = gates.run_gate(cfg, mode="effective").f_avg
    diffs = []
    for seed in range(20):
        spec = noise.StochasticNoiseSpec(eps_s=0.1, seed=seed, n_events=1000,
                                         targets=("J", "delta"))
        sched = noise.noisy_schedule(cfg, spec, t_g)
        f = gates.run_gate(cfg, schedule=sched, mode="effective").f_avg
        diffs.append(abs(f - f0))
    med = statistics.median(diffs)
    ok = med <= 1e-3
    report(7, "stochastic J/Delta noise (20 seeds, 1000 events)", ok,
           f"median |dF|={med:.2e}, max={max(diffs):.2e}")
    assert ok


def _sx_spectrum(n_qubits):
    """S_x eigenvalues s = k − N/2 and their multiplicities C(N, k)."""
    k = np.arange(n_qubits + 1)
    return k - n_qubits / 2.0, np.array([comb(n_qubits, int(i)) for i in k])


def _closed_form_fidelities(n_qubits, r, theta):
    """(F̄, F_out of all-|C+>) of one constant-(Δ, J) segment, bus in vacuum.

    [H(t), H(t')] ∝ S_x², so the Magnus series stops at second order and the
    segment of loop radius r = 2Jα/Δ and angle θ = Δt is exactly
    D(χ S_x) e^{−iβ S_x²} with |χ|² = 4r² sin²(θ/2) and β = r²(sin θ − θ).
    Against the ideal gate, the S_x = s block keeps the bus-vacuum amplitude
    x_s = exp(−iδβ s² − s²|χ|²/2) with δβ = β + π/2.
    """
    s, mult = _sx_spectrum(n_qubits)
    chi2 = 4.0 * r**2 * np.sin(theta / 2.0) ** 2
    dbeta = r**2 * (np.sin(theta) - theta) + np.pi / 2.0
    x = np.exp(-1j * dbeta * s**2 - s**2 * chi2 / 2.0)
    d = 2**n_qubits
    f_avg = (np.sum(mult * abs(x) ** 2) + abs(np.sum(mult * x)) ** 2) / (d**2 + d)
    f_out = abs(np.sum(mult * x) / d) ** 2
    return float(f_avg), float(f_out)


def test_08_detuning_switch_suppresses_gate_time_error():
    eps_a = 0.05
    # the qubit-level model isolates the planning error from truncation noise
    cfg = _cfg(j_mhz=5.0, bus_dim=12)
    short = Schedule.constant(cfg.delta, cfg.j_coupling, gates.gate_time(cfg) * (1.0 - eps_a))
    fixed = gates.run_gate(cfg, schedule=short, mode="effective")
    sched = gates.plan_detuning_switch(cfg, eps_a)
    # a -eps_a gate-time error stops the switched run exactly at the switch time
    switched = gates.run_gate(cfg, schedule=sched.clipped(sched.times[1]), mode="effective")
    inf_fixed = 1.0 - fixed.f_avg
    inf_switched = 1.0 - switched.f_avg
    ratio = inf_fixed / inf_switched

    # fixed Δ = 4Jα (r = 1/2) stops (1 − ε) into its loop; the switched run
    # stops at τ, after one full loop of radius √(1 − ε)/2. To leading order
    # the infidelities are π²mε²/2 and π²ε²/20, so the ratio approaches 10m
    # from below and 10 is out of reach at m = 1.
    cf_fixed = 1.0 - _closed_form_fidelities(2, 0.5, 2.0 * np.pi * (1.0 - eps_a))[0]
    cf_switched = 1.0 - _closed_form_fidelities(
        2, 0.5 * np.sqrt(1.0 - eps_a), 2.0 * np.pi)[0]
    cf_ratio = cf_fixed / cf_switched
    assert cf_ratio == pytest.approx(9.826943, rel=1e-6)
    ok = (abs(inf_fixed - cf_fixed) <= 1e-7
          and abs(inf_switched - cf_switched) <= 1e-7
          and abs(ratio / cf_ratio - 1.0) <= 1e-6)
    report(8, "detuning switch vs fixed detuning at -5% gate time", ok,
           f"1-F fixed={inf_fixed:.3e} (closed form {cf_fixed:.3e}), "
           f"switched={inf_switched:.3e} ({cf_switched:.3e}), "
           f"ratio={ratio:.6f} ({cf_ratio:.6f})")
    assert ok


def _combined_noise_run(cfg, mode, eps_a=0.05):
    """Decoherence plus -eps_a systematic error on J, detunings, and gate time,
    mitigated by the detuning-switch schedule."""
    sched = gates.plan_detuning_switch(cfg, eps_a)
    sched = noise.perturb_schedule(sched, noise.SystematicNoiseSpec(
        eps_a, {"J": -1, "delta": -1}))
    # the gate-time error stops the run exactly at the switch time
    return gates.run_gate(cfg, schedule=sched.clipped(sched.times[1]), mode=mode)


def _combined_noise_closed_form(cfg, eps_a=0.05, n_grid=2001):
    """(F_coh, B_N) of _combined_noise_run in the qubit-level model.

    The run is one loop of J' = (1 − ε)J and Δ' = 4Jα√(1 − ε) stopped at
    τ = 2π√(1 − ε)/(4Jα): radius r = √(1 − ε)/2, angle 2π(1 − ε). F_coh is
    its coherent output fidelity. B_N bounds what decoherence can remove:
    |F − F_coh| ≤ ½‖ρ − σ‖₁ ≤ ∫ Σ_j r_j (⟨A_j⟩ + ΔA_j/2) dt with A_j = L_j†L_j
    taken along the coherent state σ(t), where the bus in the S_x = s block
    is coherent with Poisson mean s²|χ(t)|².
    """
    n, alpha, j = cfg.n_qubits, cfg.alpha, cfg.j_coupling
    delta = 4.0 * j * alpha * np.sqrt(1.0 - eps_a)
    r = 2.0 * j * (1.0 - eps_a) * alpha / delta
    tau = 2.0 * np.pi * (1.0 - eps_a) / delta
    f_coh = _closed_form_fidelities(n, r, delta * tau)[1]

    s, mult = _sx_spectrum(n)
    w = mult / 2**n
    t = np.linspace(0.0, tau, n_grid)
    lam = np.outer(s**2, 4.0 * r**2 * np.sin(delta * t / 2.0) ** 2)
    n1 = w @ lam
    n2 = w @ (lam**2 + lam)
    n4 = w @ (lam**4 + 6.0 * lam**3 + 7.0 * lam**2 + lam)
    bus = (cfg.kappa0 * (n1 + np.sqrt(np.maximum(n2 - n1**2, 0.0)) / 2.0)
           + cfg.gamma0 * (n2 + np.sqrt(np.maximum(n4 - n2**2, 0.0)) / 2.0))
    # flip channel L = σx + i·ovl·σy: ⟨A⟩ ≤ (1 + ovl)², ΔA ≤ 2·ovl; the
    # dephasing channel γα⁴·D[I] vanishes identically
    ovl = np.exp(-2.0 * alpha**2)
    flip = cfg.kappa * alpha**2 / np.sqrt(1.0 - ovl**2) * ((1.0 + ovl) ** 2 + ovl)
    return f_coh, float(trapezoid(bus, t) + n * flip * tau)


def test_09_output_fidelity_under_combined_noise():
    rates = dict(kappa0=0.005, gamma0=0.005, kappa=0.005, gamma=0.005)
    # the N = 2 bus is converged at 10 levels; N = 4 needs 20
    cfg_full = _cfg(j_mhz=5.0, bus_dim=10, kpo_dim=22, kpo_levels=8, **rates)
    f_full = _combined_noise_run(cfg_full, "full").f_out
    f_eff, f_coh, bound = {}, {}, {}
    for n in (2, 3, 4):
        cfg = _cfg(n_qubits=n, j_mhz=5.0, bus_dim=20, kpo_dim=22, **rates)
        f_eff[n] = _combined_noise_run(cfg, "effective").f_out
        f_coh[n], bound[n] = _combined_noise_closed_form(cfg)
    ok_full = 0.97 <= f_full <= 0.99
    ok_mono = f_eff[2] > f_eff[3] > f_eff[4]
    ok_3 = abs(f_eff[3] - 0.97) <= 0.03
    ok_coh = all(abs(f_coh[n] - ref) <= 5e-6
                 for n, ref in ((2, 0.98691), (3, 0.97819), (4, 0.96816)))
    ok_model = all(f_coh[n] - bound[n] <= f_eff[n] <= f_coh[n] for n in f_eff)
    ok = ok_full and ok_mono and ok_3 and ok_coh and ok_model
    report(9, "combined-noise output fidelity (N=2 full; N=2-4 model)", ok,
           f"F_out full={f_full:.5f}; model N2/N3/N4="
           f"{f_eff[2]:.5f}/{f_eff[3]:.5f}/{f_eff[4]:.5f}; closed form "
           + "/".join(f"{f_coh[n]:.5f}-{bound[n]:.1e}" for n in f_eff))
    assert ok


def test_10_cat_state_preparation_ramp():
    ideal = {}
    lossy = {}
    for fock in (0, 1):
        ideal[fock] = protocols.run_cat_prep(1.0, 2.0, 1.7,
                                             initial_fock=fock, dim=26).fidelity
        lossy[fock] = protocols.run_cat_prep(1.0, 2.0, 1.7, initial_fock=fock,
                                             kappa=0.01, gamma=0.01,
                                             dim=26).fidelity
    ok_ideal = all(f >= 0.99 for f in ideal.values())
    ok_lossy = all(f > 0.95 for f in lossy.values())
    ok = ok_ideal and ok_lossy
    report(10, "cat preparation ramp at Kt0=1.7", ok,
           f"ideal F+/F-={ideal[0]:.5f}/{ideal[1]:.5f}; "
           f"kappa=gamma=0.01K: {lossy[0]:.5f}/{lossy[1]:.5f}")
    assert ok


def test_11_single_qubit_gates_on_cat_qubit():
    kerr, alpha, t_gate = 1.0, 2.0, 5.0
    omega_p = kerr * alpha**2

    p_had = protocols.design_single_qubit_drive("hadamard", alpha, t_gate, True)
    had = protocols.run_single_qubit_gate(kerr, omega_p, p_had, use_h_add=True,
                                          t_gate=t_gate, dim=40)
    inf_had = 1.0 - had.fidelity

    p_not = protocols.design_single_qubit_drive("not", alpha, t_gate, False)
    not_res = protocols.run_single_qubit_gate(kerr, omega_p, p_not,
                                              t_gate=t_gate, dim=40)
    inf_not = 1.0 - not_res.fidelity

    p_had0 = protocols.design_single_qubit_drive("hadamard", alpha, t_gate, False)
    had0 = protocols.run_single_qubit_gate(kerr, omega_p, p_had0,
                                           t_gate=t_gate, dim=40)
    inf_had0 = 1.0 - had0.fidelity

    ok_had = inf_had <= 1e-4
    # the plain drive realizes NOT accurately at this speed while the
    # Hadamard angle stays far off without the oscillating correction term
    ok_order = inf_not < 1e-3 and inf_had0 > 1e-2
    ok = ok_had and ok_order
    report(11, "single-qubit Hadamard/NOT at gate time 5/K", ok,
           f"Hadamard+corr infid={inf_had:.3e} (need <=1e-4; leakage="
           f"{had.leakage:.3e}, rotation={had.rotation_error:.1e}); "
           f"NOT={inf_not:.2e}, Hadamard w/o corr={inf_had0:.2e}")
    assert ok


def test_12_property_suite_runtime():
    t_start = time.perf_counter()
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(here), "-q",
         "--ignore", str(here / "test_acceptance.py"), "-p", "no:cacheprovider"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t_start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    ok = proc.returncode == 0 and elapsed < 300.0
    report(12, "module property suite", ok, f"{tail}, {elapsed:.0f}s (< 300s)")
    assert ok, proc.stdout[-2000:]
