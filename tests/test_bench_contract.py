"""The names and parameters that the benchmark's tracer (bench/tracer.py) binds.

The tracer wraps catms functions by name and reads some of their arguments by
parameter name, so renaming or deleting one breaks traced benchmark runs. The
tracer file is parsed, not imported, and nothing here installs it.
"""
import ast
import inspect
from pathlib import Path

import catms
from catms import dynamics, protocols

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
