"""Truncated multimode Fock spaces: ladder operators as CSR matrices.

A layout is a tuple `dims` of mode truncations. Modes are addressed by
index. Mode 0 is the bus cavity by convention and is the slowest-varying
tensor index (row-major layout). annihilation, number_op and tensor_embed
return complex CSR matrices of size prod(dims), and displacement the dense
D(α) of one mode. States are plain NumPy arrays: a vector for a pure state,
a square matrix for a density matrix.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.linalg
import scipy.sparse as sp


@dataclass(frozen=True)
class SparseOperator:
    """The CSR matrix of a collapse channel, held as CollapseChannel.op.

    It exists only because the benchmark's tracer reads `ch.op.matrix` of
    every collapse channel. Everywhere else an operator is a bare CSR matrix.
    """

    matrix: sp.csr_matrix


def _mode_dim(dims, k: int) -> int:
    """dims[k], after checking that mode k exists and keeps at least two levels."""
    if not 0 <= k < len(dims):
        raise ValueError(f"mode index {k} out of range")
    if dims[k] < 2:
        raise ValueError("every mode dimension must be >= 2")
    return int(dims[k])


def _ladder(dim: int) -> sp.csr_matrix:
    data = np.sqrt(np.arange(1, dim, dtype=float))
    return sp.diags(data, offsets=1, format="csr", dtype=complex)


def annihilation(dims, k: int) -> sp.csr_matrix:
    """Lowering operator on mode k, identity on the rest."""
    return tensor_embed(_ladder(_mode_dim(dims, k)), dims, k)


def number_op(dims, k: int) -> sp.csr_matrix:
    n = sp.diags(np.arange(_mode_dim(dims, k), dtype=float), format="csr", dtype=complex)
    return tensor_embed(n, dims, k)


def displacement(dim: int, amp: complex) -> np.ndarray:
    """D(amp) = exp(amp a† - amp* a) on one dim-level mode, as a dense matrix."""
    a = _ladder(_mode_dim((dim,), 0)).toarray()
    if abs(amp) > 0.5 * np.sqrt(dim):
        warnings.warn(
            f"displacement amplitude |{abs(amp):.3g}| is large for truncation {dim}",
            stacklevel=2,
        )
    return scipy.linalg.expm(amp * a.conj().T - np.conj(amp) * a)


def tensor_embed(m, dims, k: int) -> sp.csr_matrix:
    """I ⊗ m ⊗ I: the single-mode matrix m on mode k of the layout dims."""
    d = _mode_dim(dims, k)
    if m.shape != (d, d):
        raise ValueError("operator dimension does not match target mode")
    out = sp.csr_matrix(m, dtype=complex)
    left, right = prod(dims[:k]), prod(dims[k + 1:])
    if left > 1:
        out = sp.kron(sp.identity(left, dtype=complex), out, format="csr")
    if right > 1:
        out = sp.kron(out, sp.identity(right, dtype=complex), format="csr")
    return out
