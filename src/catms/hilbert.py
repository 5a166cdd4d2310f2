"""Truncated multimode Fock spaces and sparse operator algebra.

All operators are complex sparse matrices (CSR) over a fixed mode layout.
Mode 0 is the bus cavity by convention and is the slowest-varying tensor
index (row-major layout).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import prod

import numpy as np
import scipy.linalg
import scipy.sparse as sp


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered list of bosonic mode truncations with row-major index layout."""

    mode_dims: tuple[int, ...]
    mode_labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.mode_dims) == 0:
            raise ValueError("space needs at least one mode")
        if any(d < 2 for d in self.mode_dims):
            raise ValueError("every mode dimension must be >= 2")
        if len(self.mode_labels) != len(self.mode_dims):
            raise ValueError("labels/dims length mismatch")
        if len(set(self.mode_labels)) != len(self.mode_labels):
            raise ValueError("mode labels must be unique")

    @property
    def dim(self) -> int:
        return prod(self.mode_dims)

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    def mode_index(self, mode: str | int) -> int:
        if isinstance(mode, int):
            if not 0 <= mode < self.n_modes:
                raise ValueError(f"mode index {mode} out of range")
            return mode
        try:
            return self.mode_labels.index(mode)
        except ValueError:
            raise ValueError(f"unknown mode {mode!r}") from None


def make_space(mode_dims, labels=None) -> HilbertSpace:
    """Build a HilbertSpace; default labels are "a0", "a1", ..."""
    dims = tuple(int(d) for d in mode_dims)
    if labels is None:
        labels = tuple(f"a{k}" for k in range(len(dims)))
    return HilbertSpace(dims, tuple(labels))


@dataclass(frozen=True)
class SparseOperator:
    """Complex sparse matrix attached to a HilbertSpace."""

    space: HilbertSpace
    matrix: sp.csr_matrix = field(repr=False)

    def __post_init__(self):
        m = self.matrix
        if not sp.issparse(m):
            m = sp.csr_matrix(np.asarray(m, dtype=complex))
        else:
            m = m.tocsr().astype(complex)
        m.eliminate_zeros()
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match space dim {self.space.dim}"
            )
        object.__setattr__(self, "matrix", m)

    # --- algebra -----------------------------------------------------------
    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_space(other)
        return SparseOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_space(other)
        return SparseOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "SparseOperator":
        return SparseOperator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SparseOperator":
        return SparseOperator(self.space, -self.matrix)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_space(other)
        return SparseOperator(self.space, self.matrix @ other.matrix)

    def _check_space(self, other):
        if other.space != self.space:
            raise ValueError("operator spaces do not match")

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def dagger(op: SparseOperator) -> SparseOperator:
    return SparseOperator(op.space, op.matrix.getH().tocsr())


# --- states ----------------------------------------------------------------


@dataclass
class StateVector:
    """Pure state; constructors in this package normalize on creation."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).ravel()
        if v.size != self.space.dim:
            raise ValueError("amplitude length does not match space")
        self.amplitudes = v

    def dagger_dot(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def outer(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(self.space, np.outer(v, v.conj()))


@dataclass
class DensityMatrix:
    """Mixed state as a dense complex square matrix."""

    space: HilbertSpace
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError("matrix shape does not match space")
        self.entries = m

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


# --- single-mode builders and embedding ------------------------------------


def _annihilation_matrix(dim: int) -> sp.csr_matrix:
    data = np.sqrt(np.arange(1, dim, dtype=float))
    return sp.diags(data, offsets=1, format="csr", dtype=complex)


def annihilation(space: HilbertSpace, mode) -> SparseOperator:
    """Lowering operator on one mode, identity on the rest."""
    k = space.mode_index(mode)
    a = _annihilation_matrix(space.mode_dims[k])
    return _embed_matrix(a, space, k)


def number_op(space: HilbertSpace, mode) -> SparseOperator:
    k = space.mode_index(mode)
    n = sp.diags(np.arange(space.mode_dims[k], dtype=float), format="csr", dtype=complex)
    return _embed_matrix(n, space, k)


def displacement(space: HilbertSpace, mode, amp: complex) -> SparseOperator:
    """D(amp) = exp(amp a† - amp* a) on one mode (dense expm on that mode)."""
    k = space.mode_index(mode)
    dim = space.mode_dims[k]
    if abs(amp) > 0.5 * np.sqrt(dim):
        warnings.warn(
            f"displacement amplitude |{abs(amp):.3g}| is large for truncation {dim}",
            stacklevel=2,
        )
    a = _annihilation_matrix(dim).toarray()
    gen = amp * a.conj().T - np.conj(amp) * a
    d = scipy.linalg.expm(gen)
    return _embed_matrix(sp.csr_matrix(d), space, k)


def _embed_matrix(m: sp.spmatrix, space: HilbertSpace, k: int) -> SparseOperator:
    left = prod(space.mode_dims[:k]) if k > 0 else 1
    right = prod(space.mode_dims[k + 1 :]) if k + 1 < space.n_modes else 1
    out = sp.csr_matrix(m, dtype=complex)
    if left > 1:
        out = sp.kron(sp.identity(left, dtype=complex), out, format="csr")
    if right > 1:
        out = sp.kron(out, sp.identity(right, dtype=complex), format="csr")
    return SparseOperator(space, out)


def tensor_embed(op: SparseOperator, space: HilbertSpace, mode) -> SparseOperator:
    """Embed a single-mode operator into a multimode space via Kronecker products."""
    if op.space.n_modes != 1:
        raise ValueError("tensor_embed expects a single-mode operator")
    k = space.mode_index(mode)
    if op.space.mode_dims[0] != space.mode_dims[k]:
        raise ValueError("operator dimension does not match target mode")
    return _embed_matrix(op.matrix, space, k)
