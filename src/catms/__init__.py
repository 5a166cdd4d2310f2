"""Desk-scale simulation of multiqubit Mølmer–Sørensen gates on Kerr-cat qubits.

The submodules load on first access (PEP 562), so that `python -m catms.cli`
does not find `catms.cli` already imported by its package.
"""
import importlib

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "cli",
    "dynamics",
    "gates",
    "hilbert",
    "model",
    "noise",
    "protocols",
    "states",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
