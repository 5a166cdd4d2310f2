import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from catms import cli, gates, protocols


def _write(tmp_path: Path, doc: dict, name: str = "exp.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _without_runtime(text: str) -> list[str]:
    rows = [r.split(",") for r in text.strip().splitlines()]
    k = rows[0].index("runtime_s")
    return [",".join(c for i, c in enumerate(r) if i != k) for r in rows]


def _base_doc(**over):
    doc = {
        "version": 1,
        "kind": "gate_fidelity_sweep",
        "mode": "effective",
        "output": "out.csv",
        "config": {
            "n_qubits": 2,
            "kerr": {"value": 5.0, "two_pi": True},
            "alpha": 2.0,
            "j_coupling": {"value": 0.5, "two_pi": True},
            "bus_dim": 8,
            "kpo_dim": 12,
        },
        "grid": {"j_coupling": [0.25, 0.5]},
    }
    doc.update(over)
    return doc


def test_resolve_value_two_pi_convention():
    assert cli._resolve_value(3.0, "x") == 3.0
    assert cli._resolve_value({"value": 5.0, "two_pi": True}, "x") == pytest.approx(
        2.0 * np.pi * 5.0
    )
    assert cli._resolve_value({"value": 5.0, "two_pi": False}, "x") == 5.0
    with pytest.raises(cli.ConfigError):
        cli._resolve_value({"val": 5.0}, "x")
    with pytest.raises(cli.ConfigError):
        cli._resolve_value("5", "x")


def test_load_spec_rejects_bad_documents(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_spec(tmp_path / "missing.json")
    p = tmp_path / "bad.json"
    p.write_text("{\n  broken\n")
    with pytest.raises(cli.ConfigError, match=r":2:"):  # line-anchored message
        cli.load_spec(p)
    with pytest.raises(cli.ConfigError, match="version"):
        cli.load_spec(_write(tmp_path, _base_doc(version=9)))
    with pytest.raises(cli.ConfigError, match="kind"):
        cli.load_spec(_write(tmp_path, _base_doc(kind="mystery")))
    doc = _base_doc()
    del doc["config"]
    with pytest.raises(cli.ConfigError, match="config"):
        cli.load_spec(_write(tmp_path, doc))


def _single_mode_doc(kind, config=None, grid=None):
    """A small cat_prep or single_qubit recipe, with `config` entries and `grid` replaced."""
    base_config, base_grid = {
        "cat_prep": ({"kerr": 1.0, "alpha": 1.0, "t0": 1.0, "dim": 12}, {"initial_fock": [0]}),
        "single_qubit": ({"kerr": 1.0, "alpha": 2.0, "dim": 12}, {"t_gate": [0.5]}),
    }[kind]
    return {"version": 1, "kind": kind, "output": "out.csv",
            "config": {**base_config, **(config or {})}, "grid": grid or base_grid}


def test_exit_code_on_config_error(tmp_path, capsys):
    # an unsupported version, and a mode truncated to one level in the base
    # config or in the grid
    docs = [_base_doc(version=9),
            _base_doc(config={**_base_doc()["config"], "bus_dim": 1}),
            _base_doc(grid={"kpo_dim": [12, 1]})]
    # single-mode recipes with a value their protocol cannot run
    docs += [_single_mode_doc("cat_prep", {"dim": 1}),
             _single_mode_doc("cat_prep", grid={"t0": [-1.0]}),
             _single_mode_doc("cat_prep", grid={"initial_fock": [2]}),
             _single_mode_doc("cat_prep", {"kappa": -0.1}),
             _single_mode_doc("cat_prep", {"kerr": -1.0}),
             {**_single_mode_doc("cat_prep"), "config": [1.0]},
             _single_mode_doc("single_qubit", {"dim": 1}),
             _single_mode_doc("single_qubit", grid={"target": ["cnot"]}),
             _single_mode_doc("single_qubit", grid={"t_gate": [-0.5]}),
             _single_mode_doc("single_qubit", {"kerr": -1.0}),
             _single_mode_doc("single_qubit", {"use_h_add": "false"}),
             _single_mode_doc("single_qubit", grid={"use_h_add": [0]})]
    # gate recipes whose point cannot be resolved into a (config, schedule) pair
    docs += [_base_doc(kind="switch_demo", grid={"eps_a": [1.5]}),
             _base_doc(kind="switch_demo", grid={"eps_a": [0.05]}, switch={"m_after": 3}),
             _base_doc(kind="noise_stochastic", grid={"eps_s": [0.05]}, noise={"targets": ["X"]}),
             _base_doc(kind="noise_stochastic", grid={"eps_s": [-0.1]}),
             _base_doc(kind="noise_stochastic", grid={"eps_s": [0.05]}, noise={"n_events": 0}),
             _base_doc(kind="noise_systematic", grid={"eps_a": [0.05]},
                       noise={"targets": {"Q": -1}}),
             _base_doc(grid={"n_qubits": [2.5]}),
             _base_doc(config={**_base_doc()["config"], "bus_dim": 8.9}),
             _base_doc(seed="seven"),
             _base_doc(config={**_base_doc()["config"],
                               "kerr": {"value": 5.0, "two_pi": "false"}}),
             _base_doc(resource_ceiling_bytes="lots")]
    for doc in docs:
        p = _write(tmp_path, doc)
        assert cli.run(str(p), str(tmp_path / "out")) == cli.EXIT_CONFIG, doc
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "out.csv").exists()


def test_empty_grid_yields_header_only_csv(tmp_path):
    p = _write(tmp_path, _base_doc(grid={}))
    assert cli.run(str(p), str(tmp_path / "out")) == cli.EXIT_OK
    lines = (tmp_path / "out" / "out.csv").read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("t_g,")


def test_sweep_rows_and_manifest(tmp_path):
    p = _write(tmp_path, _base_doc())
    assert cli.run(str(p), str(tmp_path / "out")) == cli.EXIT_OK
    csv_text = (tmp_path / "out" / "out.csv").read_text().strip().splitlines()
    assert len(csv_text) == 3  # header + 2 grid points
    assert csv_text[0].split(",")[0] == "j_coupling"
    manifest = json.loads((tmp_path / "out" / "out.manifest.json").read_text())
    assert manifest["n_records"] == 2
    assert manifest["rng_algorithm"] == "philox4x64"
    assert "numpy" in manifest["versions"]


def test_determinism_bitwise(tmp_path):
    doc = _base_doc(kind="noise_stochastic", grid={"eps_s": [0.05], "seed": [3, 4]})
    doc["noise"] = {"n_events": 200, "targets": ["J", "delta"]}
    p = _write(tmp_path, doc)
    assert cli.run(str(p), str(tmp_path / "a")) == cli.EXIT_OK
    assert cli.run(str(p), str(tmp_path / "b")) == cli.EXIT_OK
    a = (tmp_path / "a" / "out.csv").read_text()
    b = (tmp_path / "b" / "out.csv").read_text()
    # runtimes differ between runs; compare everything else
    assert _without_runtime(a) == _without_runtime(b)


def test_workers_do_not_change_results(tmp_path):
    p = _write(tmp_path, _base_doc())
    assert cli.run(str(p), str(tmp_path / "w1"), workers=1) == cli.EXIT_OK
    assert cli.run(str(p), str(tmp_path / "w2"), workers=2) == cli.EXIT_OK
    a = (tmp_path / "w1" / "out.csv").read_text()
    b = (tmp_path / "w2" / "out.csv").read_text()
    assert _without_runtime(a) == _without_runtime(b)


def test_pool_is_clamped_to_the_grid(tmp_path, monkeypatch):
    # under fork, a pool starts all of its max_workers processes at the first
    # submit, so a 2-point grid must not open 8 of them
    spec = cli.load_spec(_write(tmp_path, _base_doc()))
    opened = []

    class Recording(cli.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
    pooled = cli.run_experiment(spec, workers=8)
    serial = cli.run_experiment(spec, workers=1)
    assert opened == [2]
    assert [{k: v for k, v in r.items() if k != "runtime_s"} for r in pooled] == \
        [{k: v for k, v in r.items() if k != "runtime_s"} for r in serial]


def test_resource_refusal(tmp_path, capsys):
    one_copy = _base_doc(mode="full")
    one_copy["config"]["kpo_dim"] = 25
    one_copy["config"]["bus_dim"] = 10
    one_copy["config"]["kappa"] = 0.1  # density run: (10*25*25)^2 complex entries
    one_copy["resource_ceiling_bytes"] = 10**6
    # one copy of the dim-32 effective ρ (16,384 bytes) fits under the ceiling,
    # the working set of a density run does not
    working_set = _base_doc()
    working_set["config"]["kappa"] = 0.1
    working_set["resource_ceiling_bytes"] = 5 * 10**4
    spec = cli.load_spec(_write(tmp_path, working_set))
    assert cli.estimate_resources(spec).bytes_required == 32**2 * 16 < 5 * 10**4
    for doc, needs in ((one_copy, (10 * 25 * 25) ** 2 * 16), (working_set, 32**2 * 16)):
        p = _write(tmp_path, doc)
        assert cli.run(str(p), str(tmp_path / "out")) == cli.EXIT_RESOURCE
        err = capsys.readouterr().err
        assert "resource refusal" in err and str(cli.DENSITY_WORKING_SET * needs) in err
        assert not (tmp_path / "out").exists()


def test_estimate_resources_examples():
    doc = _base_doc(mode="full")
    doc["config"]["kpo_dim"] = 25
    doc["config"]["bus_dim"] = 10
    doc["config"]["kappa"] = 0.1
    s = cli.ExperimentSpec(kind="gate_fidelity_sweep", mode="full", output="x.csv",
                           raw=doc, grid={})
    est = cli.estimate_resources(s)
    assert est.density
    assert est.bytes_required == (10 * 25 * 25) ** 2 * 16  # ~0.63 GiB
    doc4 = _base_doc(mode="full")
    doc4["config"]["n_qubits"] = 4
    doc4["config"]["kpo_dim"] = 25
    doc4["config"]["bus_dim"] = 10
    s4 = cli.ExperimentSpec(kind="gate_fidelity_sweep", mode="full", output="x.csv",
                            raw=doc4, grid={})
    est4 = cli.estimate_resources(s4)
    assert not est4.density
    assert est4.bytes_required == 10 * 25**4 * 16  # ~60 MiB state vector


def test_estimate_resources_size_the_model_of_each_grid_point(tmp_path):
    configs = Path(__file__).resolve().parents[1] / "configs"
    # the bus_rate grid makes every point a density-matrix run; kpo_levels 6 gives dim 10·6²
    est = cli.estimate_resources(cli.load_spec(configs / "fig2a_bus_decoherence.json"))
    assert est.density and est.bytes_required == 360**2 * 16 == 2_073_600
    est = cli.estimate_resources(cli.load_spec(configs / "fig2b_photon_loss_vs_alpha.json"))
    assert est.density and est.bytes_required == 2_073_600
    doc = json.loads((configs / "fig2c_dephasing.json").read_text())
    doc["config"]["n_qubits"] = 3
    spec = cli.load_spec(_write(tmp_path, doc))
    est = cli.estimate_resources(spec)
    assert est.density and est.bytes_required == 2160**2 * 16 == 74_649_600
    assert cli.DENSITY_WORKING_SET * est.bytes_required <= spec.ceiling_bytes  # not refused


def test_csv_cells_are_numbers(tmp_path):
    # every metric cell, a switched run's t_g included, is written as a plain number
    p = _write(tmp_path, _base_doc(kind="switch_demo", grid={"eps_a": [0.05]}))
    assert cli.run(str(p), str(tmp_path / "out")) == cli.EXIT_OK
    with open(tmp_path / "out" / "out.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["t_g"] != ""
    for cell in rows[0].values():
        if cell != "":  # metrics a coherent run does not compute stay empty
            float(cell)


def test_combined_fig4_full_mode_limited_to_two_qubits(tmp_path):
    base_n3 = _base_doc(kind="combined_fig4", mode="full", grid={})
    base_n3["config"]["n_qubits"] = 3
    grid_n3 = _base_doc(kind="combined_fig4", mode="full", grid={"n_qubits": [3]})
    for doc in (base_n3, grid_n3):
        with pytest.raises(cli.ConfigError, match="n_qubits"):
            cli.load_spec(_write(tmp_path, doc))


def test_grid_values_follow_the_two_pi_flag_of_their_base(tmp_path):
    # one rule for every key, rates included: a flagged kappa of 0.01 is 2π·0.01
    # rad/us in the base and in the grid; a bare gamma stays as written
    doc = _base_doc(grid={"kappa": [0.01], "gamma": [0.02]})
    doc["config"].update(kappa={"value": 0.01, "two_pi": True}, gamma=0.0)
    spec = cli.load_spec(_write(tmp_path, doc))
    base = cli.build_gate_config(spec)
    assert base.kappa == 2.0 * np.pi * 0.01
    (point,) = spec.grid_points()
    cfg = cli.build_gate_config(spec, point)
    assert cfg.kappa == base.kappa
    assert cfg.gamma == 0.02
    assert cfg.j_coupling == base.j_coupling  # the flagged base j_coupling, not gridded


def test_grid_sets_the_integer_config_keys(tmp_path):
    # a gridded bus_dim, kpo_dim, kpo_levels or m_loops sets the point's config,
    # as every other GateConfig key does
    p = _write(tmp_path, _base_doc(grid={"bus_dim": [4, 12]}))
    assert cli.run(str(p), str(tmp_path / "out")) == cli.EXIT_OK
    with open(tmp_path / "out" / "out.csv", newline="") as fh:
        rows = {r["bus_dim"]: r for r in csv.DictReader(fh)}
    assert float(rows["12"]["f_avg"]) - float(rows["4"]["f_avg"]) > 1e-2
    assert float(rows["4"]["bus_top"]) > 1e-3 > 1e-8 > float(rows["12"]["bus_top"])
    grid = {"kpo_dim": [10], "kpo_levels": [3], "m_loops": [2]}
    spec = cli.load_spec(_write(tmp_path, _base_doc(grid=grid)))
    (point,) = spec.grid_points()
    cfg = cli.build_gate_config(spec, point)
    assert (cfg.kpo_dim, cfg.kpo_levels, cfg.m_loops) == (10, 3, 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_follow_the_grid_order(tmp_path, workers):
    # numbers, not their text: 4, 8, 12 and not "12", "4", "8"
    p = _write(tmp_path, _base_doc(grid={"bus_dim": [4, 8, 12]}))
    assert cli.run(str(p), str(tmp_path / "out"), workers=workers) == cli.EXIT_OK
    with open(tmp_path / "out" / "out.csv", newline="") as fh:
        assert [r["bus_dim"] for r in csv.DictReader(fh)] == ["4", "8", "12"]


def test_grid_keys_the_kind_does_not_read_are_config_errors(tmp_path, capsys):
    single = {"version": 1, "kind": "single_qubit", "output": "out.csv",
              "config": {"kerr": 1.0, "alpha": 2.0, "dim": 12},
              "grid": {"alpha": [1.5, 2.5]}}
    # a misspelt key; alpha, which single_qubit reads from its config only; and
    # omega_p, which a config that sets alpha never reads
    for doc in (_base_doc(grid={"kapa": [0.1]}), single, _base_doc(grid={"omega_p": [9.0]})):
        p = _write(tmp_path, doc)
        with pytest.raises(cli.ConfigError, match="not read"):
            cli.load_spec(p)
        assert cli.run(str(p), str(tmp_path / "out")) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
    # seed fills the seed column of every kind
    single["grid"] = {"seed": [5], "t_gate": [0.5]}
    assert sorted(cli.load_spec(_write(tmp_path, single)).grid) == ["seed", "t_gate"]


def test_noise_systematic_matches_its_equivalents(tmp_path):
    # a -5 % gate-time error runs the constant loop to 0.95·t_g, as the fixed
    # switch_demo scheme does; a -5 % J error is the plain gate at J·0.95
    def record(kind, point, **noise):
        doc = _base_doc(kind=kind, grid={})
        if noise:
            doc["noise"] = noise
        return cli.compute_record(cli.load_spec(_write(tmp_path, doc)), point)

    t_g = record("noise_systematic", {"eps_a": 0.05}, targets={"t_g": -1})
    fixed = record("switch_demo", {"eps_a": 0.05, "scheme": "fixed"})
    assert t_g["error"] == "" and t_g["f_avg"] < 1.0 - 1e-3
    for col in ("t_g", "f_avg", "chi_residual", "beta_total", "bus_top"):
        assert t_g[col] == fixed[col], col

    j = record("noise_systematic", {"eps_a": 0.05}, targets={"J": -1})
    cfg = cli.build_gate_config(cli.load_spec(_write(tmp_path, _base_doc(grid={}))))
    ref = gates.run_gate(cfg.replace(j_coupling=cfg.j_coupling * 0.95), mode="effective")
    assert j["error"] == "" and j["f_avg"] == ref.f_avg


def test_switch_demo_falls_back_to_noise_eps_a(tmp_path):
    # with no eps_a grid, switch_demo reads noise.eps_a, as combined_fig4 and
    # noise_systematic do, instead of its 0.05 default
    doc = _base_doc(kind="switch_demo", grid={"scheme": ["fixed", "switched"]},
                    noise={"eps_a": 0.2})
    spec = cli.load_spec(_write(tmp_path, doc))
    (_, fixed), (_, switched) = (cli._gate_run(spec, p) for p in spec.grid_points())
    cfg = cli.build_gate_config(spec)
    assert fixed.t_end / gates.gate_time(cfg) == pytest.approx(0.8, abs=1e-15)
    # the switched run stops at the switch time τ of the plan for ε_a = 0.2
    assert switched.t_end == gates.plan_detuning_switch(cfg, 0.2).times[1]


def test_bus_rate_alias_sets_both_bus_channels(tmp_path):
    p = _write(tmp_path, _base_doc(grid={}))
    spec = cli.load_spec(p)
    cfg = cli.build_gate_config(spec, {"bus_rate": 0.07})
    assert cfg.kappa0 == pytest.approx(0.07)
    assert cfg.gamma0 == pytest.approx(0.07)


def test_mode_override(tmp_path):
    p = _write(tmp_path, _base_doc())
    spec = cli.load_spec(p, mode_override="full")
    assert spec.mode == "full"


def test_checked_in_recipes_parse():
    configs = sorted(Path(__file__).resolve().parents[1].glob("configs/*.json"))
    assert len(configs) >= 10
    for path in configs:
        spec = cli.load_spec(path)
        assert spec.kind in cli.KINDS


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_grid_point_keeps_the_sweep(tmp_path, workers):
    # at α = 2.5 a cat loses 7e-4 of its weight to 6 Kerr levels of a 12-level KPO,
    # so GateModel.kerr_levels raises; the α = 1 point must still be written
    doc = _base_doc(mode="full", grid={"alpha": [1.0, 2.5]})
    doc["config"].update(n_qubits=1, kpo_dim=12, kpo_levels=6)
    p = _write(tmp_path, doc)
    assert cli.run(str(p), str(tmp_path / "out"), workers=workers) == cli.EXIT_NUMERIC
    with open(tmp_path / "out" / "out.csv", newline="") as fh:
        ok, bad = csv.DictReader(fh)
    assert ok["alpha"] == "1.0" and ok["error"] == ""
    assert 0.9 < float(ok["f_avg"]) <= 1.0
    assert bad["alpha"] == "2.5" and bad["f_avg"] == ""
    assert bad["error"].startswith("ValueError: cat state loses")
    manifest = json.loads((tmp_path / "out" / "out.manifest.json").read_text())
    assert manifest["n_records"] == 2


def test_bus_top_flags_a_truncated_bus(tmp_path):
    # the fig4 recipe's qubit-level model, coherent and as a plain gate: at N = 4
    # a 10-level bus loses 1.8e-3 of F̄ to truncation, and bus_top must show it
    recipe = Path(__file__).resolve().parents[1] / "configs" / "fig4_output_fidelity.json"
    doc = json.loads(recipe.read_text())
    doc.update(kind="gate_fidelity_sweep", output="out.csv", grid={"n_qubits": [4]})
    doc["config"].update(kappa=0.0, gamma=0.0, kappa0=0.0, gamma0=0.0)
    rows = {}
    for bus_dim in (10, 20):
        doc["config"]["bus_dim"] = bus_dim
        out = tmp_path / f"bus{bus_dim}"
        assert cli.run(str(_write(tmp_path, doc)), str(out)) == cli.EXIT_OK
        with open(out / "out.csv", newline="") as fh:
            (rows[bus_dim],) = csv.DictReader(fh)
    f10, f20 = float(rows[10]["f_avg"]), float(rows[20]["f_avg"])
    assert f20 - f10 > 1e-3  # the truncation error the witness has to flag
    assert float(rows[10]["bus_top"]) > 1e-5
    assert float(rows[20]["bus_top"]) < 1e-10


def test_josephson_trunc_flags_a_truncated_kpo(tmp_path):
    # at α = 3 a 40-level KPO cuts off the carrier average of the Josephson
    # drive: the corrected Hadamard misses its rotation by 1 − F̄ = 0.26 while
    # leaking only 4e-5, and josephson_trunc must show it
    recipe = Path(__file__).resolve().parents[1] / "configs" / "figs2_single_qubit.json"
    doc = json.loads(recipe.read_text())
    doc.update(output="out.csv", grid={"use_h_add": [False, True]})
    doc["config"].update(alpha=3.0, t_gate=5.0, target="hadamard")
    rows = {}
    for dim in (40, 80):
        doc["config"]["dim"] = dim
        out = tmp_path / f"dim{dim}"
        assert cli.run(str(_write(tmp_path, doc)), str(out)) == cli.EXIT_OK
        with open(out / "out.csv", newline="") as fh:
            plain, rows[dim] = csv.DictReader(fh)
        assert plain["use_h_add"] == "False" and plain["josephson_trunc"] == ""
    assert float(rows[80]["f_avg"]) - float(rows[40]["f_avg"]) > 0.1
    assert float(rows[40]["josephson_trunc"]) > 0.1
    assert float(rows[80]["josephson_trunc"]) < 1e-6


def test_non_gate_rows_leave_bus_top_empty(tmp_path):
    doc = {"version": 1, "kind": "cat_prep", "output": "out.csv",
           "config": {"kerr": 1.0, "alpha": 1.0, "t0": 1.0, "dim": 12},
           "grid": {"initial_fock": [0]}}
    assert cli.run(str(_write(tmp_path, doc)), str(tmp_path / "out")) == cli.EXIT_OK
    with open(tmp_path / "out" / "out.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["f_out"] != "" and row["bus_top"] == "" and row["josephson_trunc"] == ""
    # the ramp's margin has a column of its own, and P_C is left empty
    margin = protocols.ramp_margin(1.0, protocols.CatPrepSchedule(1.0, 1.0))
    assert row["p_c"] == "" and float(row["ramp_margin"]) == margin
    assert row["leakage"] == row["rotation_error"] == ""


def test_single_qubit_rows_split_their_infidelity(tmp_path):
    # 1 − F̄ = ℓ + (1 − ℓ)·rotation_error, with both parts in the row
    doc = _single_mode_doc("single_qubit", {"dim": 16}, {"target": ["hadamard", "not"]})
    assert cli.run(str(_write(tmp_path, doc)), str(tmp_path / "out")) == cli.EXIT_OK
    with open(tmp_path / "out" / "out.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        f, leak, rot = (float(row[k]) for k in ("f_avg", "leakage", "rotation_error"))
        assert leak > 1e-6 and rot >= 0.0
        assert 1.0 - f == pytest.approx(leak + (1.0 - leak) * rot, abs=1e-12)
        assert row["ramp_margin"] == row["p_c"] == ""


def test_module_entry_point_runs_without_warnings():
    # the package must not import catms.cli itself, or runpy warns that it
    # found the module already in sys.modules before running it as __main__
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "catms.cli",
                           "--help"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "--config" in proc.stdout
