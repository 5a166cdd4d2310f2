"""Tests of the benchmark's own checks.

    python3 -m pytest -q bench/test_checks.py

Run from the repository root; nothing here imports catms.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import checks
import refs
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _recipe(workload, name):
    r = next(r for r in workloads.workload(workload, 0) if r.name == name)
    return r, r.document(ROOT / "configs")


def _closed_form_row(doc, point):
    p = checks.gate_params(doc, point)
    chi, beta = checks.loop_integrals(*checks.row_schedule(doc, point, p), p["alpha"])
    return checks.closed_form_fidelities(p["n_qubits"], chi, beta)


def test_switch_ratio_matches_changes_md():
    # CHANGES.md, test 08: 1 - F̄ fixed over switched at ε = 5 %, m = 1
    _, doc = _recipe("gate_coherent", "fig3b_switch")
    fixed = 1.0 - _closed_form_row(doc, {"scheme": "fixed", "eps_a": 0.05})[0]
    switched = 1.0 - _closed_form_row(doc, {"scheme": "switched", "eps_a": 0.05})[0]
    assert fixed / switched == pytest.approx(9.82694, abs=5e-6)


def test_combined_noise_closed_form_matches_changes_md():
    # CHANGES.md, test 09: F_coh and B_N for N = 2, 3, 4
    _, doc = _recipe("gate_lindblad", "fig4_output_fidelity")
    for n, f_coh, bound in ((2, 0.98691, 1.17e-3), (3, 0.97819, 1.80e-3), (4, 0.96816, 2.48e-3)):
        point = {"n_qubits": n}
        assert _closed_form_row(doc, point)[1] == pytest.approx(f_coh, abs=5e-6)
        p = checks.gate_params(doc, point)
        times, delta, j = checks.row_schedule(doc, point, p)
        b = checks.effective_noise_bound(p, delta[0], j[0], times[-1])
        assert b == pytest.approx(bound, abs=5e-6)


def test_loop_integrals_match_quadrature():
    rng = np.random.default_rng(7)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.05, 12))])
    delta = rng.uniform(-40.0, 60.0, 12)
    delta[3] = 0.0
    j = rng.uniform(2.0, 5.0, 12)
    alpha = 1.7
    phase = np.concatenate([[0.0], np.cumsum(delta * np.diff(times))])

    def rhs(t, y):
        k = min(np.searchsorted(times, t, side="right") - 1, 11)
        g = 2.0 * j[k] * alpha * np.exp(1j * (phase[k] + delta[k] * (t - times[k])))
        chi = y[0] + 1j * y[1]
        return [g.real, g.imag, np.imag(np.conj(g) * chi)]

    y = np.zeros(3)
    for k in range(12):  # integrate segment by segment: the generator jumps at breakpoints
        y = solve_ivp(rhs, (times[k], times[k + 1]), y, rtol=1e-12, atol=1e-14).y[:, -1]
    chi, beta = checks.loop_integrals(times, delta, j, alpha)
    assert abs(chi - (y[0] + 1j * y[1])) < 1e-9
    assert abs(beta - y[2]) < 1e-9


def test_josephson_splitting_matches_changes_md():
    assert checks.josephson_splitting(2.0) == pytest.approx(0.201088, abs=1e-6)


def _switch_round(tmp_path, shift=0.0, text=None, drop=False):
    recipe, doc = _recipe("gate_coherent", "fig3b_switch")
    checker = checks.Checker([recipe], {recipe.name: doc}, refs.Refs([]))
    keys = sorted(recipe.grid)
    lines = [",".join(keys + ["f_avg", "chi_residual", "beta_total"])]
    for k, point in enumerate(recipe.points()):
        if drop and k == 0:
            continue
        p = checks.gate_params(doc, point)
        chi, beta = checks.loop_integrals(*checks.row_schedule(doc, point, p), p["alpha"])
        f = checks.closed_form_fidelities(2, chi, beta)[0] + (shift if k == 0 else 0.0)
        f_text = text if (text is not None and k == 0) else repr(f)
        lines.append(",".join(list(checks.point_key(point)) + [f_text, repr(abs(chi)), repr(beta)]))
    (tmp_path / "fig3b_switch.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "fig3b_switch.manifest.json").write_text(json.dumps({"n_records": 6}))
    return checker.check_round(tmp_path)


def test_rows_within_tolerance_pass(tmp_path):
    attempted, failed, unsound = _switch_round(tmp_path, shift=0.5 * checks.TOL_CLOSED)
    assert (attempted, failed, unsound) == (6, [], [])


@pytest.mark.parametrize("kw", [{"shift": 2.0 * checks.TOL_CLOSED}, {"text": "abc"},
                                {"drop": True}])
def test_bad_row_is_a_failed_point_not_a_crash(tmp_path, kw):
    attempted, failed, unsound = _switch_round(tmp_path, **kw)
    assert attempted == 6 and len(failed) == 1 and unsound == []


def test_stale_reference_is_refused():
    entry = {"recipe": "r", "point": {"j_coupling": 1.0}, "inputs": {"j": 1.0}, "f_avg": 1.0}
    table = refs.Refs([entry])
    assert table.lookup("r", {"j_coupling": 1.0}, {"j": 1.0}) is entry
    with pytest.raises(refs.StaleReference):
        table.lookup("r", {"j_coupling": 1.0}, {"j": 2.0})
    with pytest.raises(refs.StaleReference):
        table.lookup("r", {"j_coupling": 0.5}, {"j": 1.0})


def test_stored_references_match_the_generated_recipes():
    table = refs.Refs.load()
    for wl, names in refs.REFERENCED.items():
        for r in workloads.workload(wl, 0):
            if r.name in names:
                doc = r.document(ROOT / "configs")
                for point in r.points():
                    table.lookup(r.name, point, checks.gate_params(doc, point))
