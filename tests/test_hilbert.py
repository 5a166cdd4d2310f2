from math import prod

import numpy as np
import pytest
import scipy.sparse as sp

from catms.hilbert import annihilation, number_op, tensor_embed
from catms.states import CatParity, fidelity, single_mode_cat_vector


def test_builders_reject_bad_input():
    # a layout without the mode, or a mode with fewer than two levels
    for build in (annihilation, number_op):
        with pytest.raises(ValueError):
            build((), 0)
        with pytest.raises(ValueError):
            build((10, 1), 1)
        with pytest.raises(ValueError):
            build((10, 4), -1)
    with pytest.raises(ValueError):
        single_mode_cat_vector(1, 0.1, CatParity.EVEN)
    with pytest.raises(ValueError):
        tensor_embed(sp.identity(3, format="csr"), (3, 4), 2)


def test_flat_index_layout_row_major():
    # mode 0 (the bus) is the slowest index: run_gate reads the top bus Fock
    # level as the last dim/bus_dim entries
    dims = (3, 4, 2)
    flat = 1 * 8 + 0 * 2 + 1
    assert [number_op(dims, k)[flat, flat].real for k in range(3)] == [1, 0, 1]
    top = number_op(dims, 0).diagonal().real[-prod(dims) // dims[0]:]
    assert np.all(top == dims[0] - 1)


def test_flat_multi_index_round_trip():
    # the Fock numbers that number_op reads off each flat basis state are its
    # row-major multi-index, and they map back to the same flat index
    dims = (3, 4, 2)
    occ = np.array([number_op(dims, k).diagonal().real for k in range(3)])
    multi = np.indices(dims).reshape(len(dims), -1)  # row-major (C-order) multi-indices
    assert np.array_equal(occ, multi)
    for flat in range(prod(dims)):
        assert np.ravel_multi_index(tuple(occ[:, flat].astype(int)), dims) == flat


def test_annihilation_matrix_elements():
    a = annihilation((6,), 0).toarray()
    assert a[0, 1] == pytest.approx(1.0)
    assert a[1, 2] == pytest.approx(np.sqrt(2.0))


def test_commutator_identity_below_truncation():
    dim = 8
    a = annihilation((dim,), 0)
    ad = a.conj().T
    comm = (a @ ad - ad @ a).toarray()
    expected = np.eye(dim)
    expected[-1, -1] = -(dim - 1)  # truncation artifact on the top level only
    assert np.abs(comm - expected).max() < 1e-12


def test_displacement_coherent_amplitudes():
    # the cat N±(D(α) ± D(−α))|0⟩ has the Poisson amplitudes e^{−α²/2}α^ν/√ν!
    # of the coherent state D(α)|0⟩, times 2N± = sqrt(2/(1 ± e^{−2α²})), on
    # the Fock states of its parity, and zeros on the others
    from math import factorial

    alpha = 2.0
    for parity in CatParity:
        cat = single_mode_cat_vector(40, alpha, parity)
        two_n = np.sqrt(2.0 / (1.0 + parity.sign * np.exp(-2.0 * alpha**2)))
        for nu in range(10):
            poisson = np.exp(-alpha**2 / 2) * alpha**nu / np.sqrt(factorial(nu))
            expected = two_n * poisson if (-1) ** nu == parity.sign else 0.0
            assert cat[nu] == pytest.approx(expected, rel=1e-10)


def test_displacement_warns_for_large_amplitude():
    for parity in CatParity:
        with pytest.warns(UserWarning):
            single_mode_cat_vector(9, 3.0, parity)


def test_tensor_embed_matches_kron_oracle():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    embedded = tensor_embed(sp.csr_matrix(m), (2, 3), 1).toarray()
    assert np.abs(embedded - np.kron(np.eye(2), m)).max() < 1e-14


def test_embed_identity_is_identity():
    one = sp.identity(4, dtype=complex)
    assert np.abs(tensor_embed(one, (3, 4), 1).toarray() - np.eye(12)).max() == 0


def test_mixed_product_property():
    rng = np.random.default_rng(5)
    ma = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mb = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = tensor_embed(sp.csr_matrix(ma), (3, 4), 0)
    b = tensor_embed(sp.csr_matrix(mb), (3, 4), 1)
    assert np.abs((a @ b).toarray() - np.kron(ma, mb)).max() < 1e-13
    # disjoint-mode embeddings commute
    assert np.abs((a @ b - b @ a).toarray()).max() < 1e-13


def test_space_mismatch_errors():
    v = np.zeros(5)
    v[0] = 1.0
    with pytest.raises(ValueError):
        fidelity(v[:4], v)
    with pytest.raises(ValueError):
        fidelity(np.outer(v[:4], v[:4]), v)
    with pytest.raises(ValueError):
        number_op((4,), 0) @ number_op((5,), 0)
    with pytest.raises(ValueError):
        annihilation((4,), 1)
