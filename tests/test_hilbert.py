import numpy as np
import pytest
import scipy.sparse as sp

from catms.hilbert import (
    SparseOperator,
    annihilation,
    dagger,
    displacement,
    make_space,
    number_op,
    tensor_embed,
)
from catms.states import fidelity


def test_make_space_dimensions():
    assert make_space([2]).dim == 2
    assert make_space([10, 20, 20]).dim == 4000


def test_make_space_rejects_bad_input():
    with pytest.raises(ValueError):
        make_space([])
    with pytest.raises(ValueError):
        make_space([10, 1])


def test_flat_index_layout_row_major():
    # mode 0 (the bus) is the slowest index: run_gate reads the top bus Fock
    # level as the last dim/bus_dim entries
    dims = (3, 4, 2)
    space = make_space(dims)
    flat = 1 * 8 + 0 * 2 + 1
    assert [number_op(space, k).matrix[flat, flat].real for k in range(3)] == [1, 0, 1]
    top = number_op(space, 0).matrix.diagonal().real[-space.dim // dims[0]:]
    assert np.all(top == dims[0] - 1)


def test_flat_multi_index_round_trip():
    # the Fock numbers that number_op reads off each flat basis state are its
    # row-major multi-index, and they map back to the same flat index
    dims = (3, 4, 2)
    space = make_space(dims)
    occ = np.array([number_op(space, k).matrix.diagonal().real for k in range(3)])
    multi = np.indices(dims).reshape(len(dims), -1)  # row-major (C-order) multi-indices
    assert np.array_equal(occ, multi)
    for flat in range(space.dim):
        assert np.ravel_multi_index(tuple(occ[:, flat].astype(int)), dims) == flat


def test_annihilation_matrix_elements():
    space = make_space([6])
    a = annihilation(space, 0).to_dense()
    assert a[0, 1] == pytest.approx(1.0)
    assert a[1, 2] == pytest.approx(np.sqrt(2.0))


def test_commutator_identity_below_truncation():
    dim = 8
    space = make_space([dim])
    a = annihilation(space, 0)
    comm = (a @ dagger(a) - dagger(a) @ a).to_dense()
    expected = np.eye(dim)
    expected[-1, -1] = -(dim - 1)  # truncation artifact on the top level only
    assert np.abs(comm - expected).max() < 1e-12


def test_displacement_identity_and_inverse():
    space = make_space([30])
    d0 = displacement(space, 0, 0.0).to_dense()
    assert np.abs(d0 - np.eye(30)).max() < 1e-12
    dp = displacement(space, 0, 2.0)
    dm = displacement(space, 0, -2.0)
    assert np.abs((dp @ dm).to_dense() - np.eye(30)).max() < 1e-10


def test_displacement_is_unitary():
    space = make_space([30])
    d = displacement(space, 0, 2.5)
    assert np.abs((dagger(d) @ d).to_dense() - np.eye(30)).max() < 1e-8


def test_displacement_coherent_amplitudes():
    space = make_space([40])
    vac = np.zeros(40)
    vac[0] = 1.0
    col = displacement(space, 0, 2.0).matrix @ vac
    from math import factorial

    for nu in range(10):
        expected = np.exp(-2.0) * 2.0**nu / np.sqrt(factorial(nu))
        assert col[nu] == pytest.approx(expected, rel=1e-10)


def test_displacement_warns_for_large_amplitude():
    space = make_space([9])
    with pytest.warns(UserWarning):
        displacement(space, 0, 3.0)


def test_tensor_embed_matches_kron_oracle():
    rng = np.random.default_rng(3)
    space = make_space([2, 3])
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    single = SparseOperator(make_space([3]), sp.csr_matrix(m))
    embedded = tensor_embed(single, space, 1).to_dense()
    assert np.abs(embedded - np.kron(np.eye(2), m)).max() < 1e-14


def test_embed_identity_is_identity():
    space = make_space([3, 4])
    one = SparseOperator(make_space([4]), sp.identity(4, dtype=complex))
    assert np.abs(tensor_embed(one, space, 1).to_dense() - np.eye(12)).max() == 0


def test_mixed_product_property():
    rng = np.random.default_rng(5)
    space = make_space([3, 4])
    ma = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mb = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = tensor_embed(SparseOperator(make_space([3]), sp.csr_matrix(ma)), space, 0)
    b = tensor_embed(SparseOperator(make_space([4]), sp.csr_matrix(mb)), space, 1)
    assert np.abs((a @ b).to_dense() - np.kron(ma, mb)).max() < 1e-13
    # disjoint-mode embeddings commute
    assert np.abs((a @ b - b @ a).to_dense()).max() < 1e-13


def test_dagger_involution():
    rng = np.random.default_rng(11)
    space = make_space([5])
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    op = SparseOperator(space, sp.csr_matrix(m))
    assert np.abs(dagger(dagger(op)).to_dense() - m).max() < 1e-14


def test_space_mismatch_errors():
    s1, s2 = make_space([4]), make_space([5])
    v = np.zeros(5)
    v[0] = 1.0
    with pytest.raises(ValueError):
        fidelity(v[:4], v)
    with pytest.raises(ValueError):
        fidelity(np.outer(v[:4], v[:4]), v)
    with pytest.raises(ValueError):
        number_op(s1, 0) @ number_op(s2, 0)
    with pytest.raises(ValueError):
        annihilation(s1, 1)
