"""The names, parameters and reads that the benchmark's tracer (bench/tracer.py) binds.

The tracer wraps catms functions by name, reads some of their arguments by
parameter name and some attributes of those arguments and of the records, so
renaming or deleting one breaks traced benchmark runs. The tracer file is
parsed, not imported, and nothing here installs it.
"""
import ast
import inspect
from pathlib import Path

import catms
from catms import cli, dynamics, gates, protocols
from catms.model import GateConfig

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# span name -> parameters its hook reads from the call's arguments
HOOK_PARAMETERS = {
    (dynamics, "propagate_piecewise"): ("segments",),
    (dynamics, "evolve_density"): ("collapse_channels",),
    (protocols, "run_single_qubit_gate"): ("kerr", "params", "use_h_add", "t_gate",
                                           "omega_c", "n_steps_per_cycle"),
}


def _traced() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED table")


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for module_name, names in traced.items():
        module = getattr(catms, module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    # the integrators whose right-hand side the tracer counts
    assert callable(dynamics.solve_ivp)
    assert callable(dynamics._rk4_integrate)


def test_hook_parameters_present():
    for (module, name), params in HOOK_PARAMETERS.items():
        signature = inspect.signature(getattr(module, name))
        for param in params:
            assert param in signature.parameters, f"{module.__name__}.{name}({param})"


def test_tracer_reads_present():
    # _is_zero_channel reads ch.rate and ch.op.matrix of each collapse channel
    cfg = GateConfig.from_alpha(1, 1.0, 1.0, 0.1, kappa=0.1, kappa0=0.1, bus_dim=3)
    model = gates.GateModel.effective(cfg)
    assert len(model.channels) == 2
    for ch in model.channels:
        assert ch.rate > 0.0
        assert ch.op.matrix.tocsr().shape == (model.space.dim, model.space.dim)
    # _count_rk4 reads params.xi_j
    params = protocols.design_single_qubit_drive("hadamard", 2.0, 5.0, use_h_add=True)
    assert params.xi_j != 0.0
    # _experiment_wrapper calls run_experiment(spec, workers) and sums each
    # record's runtime_s
    first = list(inspect.signature(cli.run_experiment).parameters.values())[:2]
    assert [p.name for p in first] == ["spec", "workers"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in first)
    spec = cli.ExperimentSpec(
        kind="gate_fidelity_sweep", mode="effective", output="x.csv", grid={"alpha": [1.0]},
        raw={"config": {"n_qubits": 1, "kerr": 1.0, "alpha": 1.0, "j_coupling": 0.1,
                        "bus_dim": 3}},
    )
    (record,) = cli.run_experiment(spec, 1)
    assert float(record["runtime_s"]) >= 0.0
