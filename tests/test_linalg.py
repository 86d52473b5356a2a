import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcq.linalg import (
    DensityOperator,
    _entropies,
    _trace_norms,
    eig_hermitian,
    partial_trace,
    random_density,
    tensor,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)
from cosetcq.regions import hb


def test_density_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_density_operator_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.diag([0.6, 0.6]))


def test_density_operator_rejects_negative_eigenvalue():
    mat = np.array([[0.5, 0.6], [0.6, 0.5]])  # eigenvalues 1.1 and -0.1
    with pytest.raises(ValueError, match="negative"):
        DensityOperator(mat)


def test_eig_hermitian_descending_and_reconstructs():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    mat = (a + a.conj().T) / 2
    vals, vecs = eig_hermitian(mat)
    assert np.all(np.diff(vals) <= 1e-12)
    np.testing.assert_allclose(
        (vecs * vals) @ vecs.conj().T, mat, atol=1e-12
    )


def test_mixture_eigenvalues_closed_form():
    # Equal mixture of diag(2/3, 1/3) and [[1/2, 1/6], [1/6, 1/2]] has
    # eigenvalues 1/2 +- sqrt(2)/12.
    sigma0 = np.array([[2 / 3, 0.0], [0.0, 1 / 3]])
    sigma1 = np.array([[0.5, 1 / 6], [1 / 6, 0.5]])
    rho = DensityOperator((sigma0 + sigma1) / 2)
    expected = np.array([0.5 + np.sqrt(2) / 12, 0.5 - np.sqrt(2) / 12])
    np.testing.assert_allclose(rho.eigenvalues(), expected, atol=1e-12)


def test_entropy_of_skewed_diagonal_state():
    rho = DensityOperator(np.diag([2 / 3, 1 / 3]))
    np.testing.assert_allclose(von_neumann_entropy(rho), hb(1 / 3), atol=1e-12)


def test_entropy_extremes():
    pure = DensityOperator(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityOperator(np.eye(4) / 4)
    assert von_neumann_entropy(mixed) == pytest.approx(2.0, abs=1e-12)


def test_entropy_natural_base():
    rho = DensityOperator(np.diag([0.5, 0.5]))
    np.testing.assert_allclose(von_neumann_entropy(rho, base=np.e), np.log(2))


def test_tensor_of_diagonals():
    out = tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    np.testing.assert_allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = random_density(2, rng)
    b = random_density(3, rng)
    joint = tensor(a.matrix, b.matrix)
    np.testing.assert_allclose(
        partial_trace(joint, (2, 3), keep=(0,)), a.matrix, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(joint, (2, 3), keep=(1,)), b.matrix, atol=1e-12
    )


def test_partial_trace_bell_state_is_maximally_mixed():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi)
    np.testing.assert_allclose(
        partial_trace(rho, (2, 2), keep=(0,)), np.eye(2) / 2, atol=1e-12
    )


def test_partial_trace_keeps_density_wrapper():
    rng = np.random.default_rng(11)
    rho = random_density(4, rng)
    reduced = partial_trace(rho, (2, 2), keep=(1,))
    assert isinstance(reduced, DensityOperator)


def test_trace_norm_and_distance():
    a = np.diag([0.7, 0.3])
    b = np.diag([0.4, 0.6])
    assert trace_norm(a - b) == pytest.approx(0.6, abs=1e-12)
    assert trace_distance(DensityOperator(a), DensityOperator(b)) == pytest.approx(
        0.3, abs=1e-12
    )
    # orthogonal pure states sit at maximal distance
    p0 = DensityOperator(np.diag([1.0, 0.0]))
    p1 = DensityOperator(np.diag([0.0, 1.0]))
    assert trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)


def test_stacked_trace_norms_keep_each_matrix_and_the_tolerance():
    """One scan over a stack gives each matrix's ``trace_norm`` bit for bit,
    with the same 1e-8 Hermitian tolerance."""
    rng = np.random.default_rng(3)
    stack = np.array([random_density(3, rng).matrix - random_density(3, rng).matrix for _ in range(6)])
    norms = _trace_norms(stack)
    assert [float(v) for v in norms] == [trace_norm(m) for m in stack]
    stack[2, 0, 1] += 5e-9  # inside 1e-8
    assert _trace_norms(stack).shape == (6,)
    stack[2, 0, 1] += 1e-8
    with pytest.raises(ValueError, match="Hermitian"):
        _trace_norms(stack)
    with pytest.raises(ValueError, match="Hermitian"):
        trace_norm(stack[2])
    with pytest.raises(ValueError, match="square"):
        trace_norm(stack)


def test_random_density_is_a_state():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 5):
        rho = random_density(dim, rng)
        assert rho.matrix.shape == (dim, dim)
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-10)
        assert rho.eigenvalues().min() >= -1e-12


def _random_rank_state(dim, rank, rng):
    """A density matrix of the given rank (rank < dim gives exact zero eigenvalues)."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return 0.5 * (mat + mat.conj().T)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]), st.integers(1, 12))
def test_stacked_entropies_equal_one_matrix_entropy(seed, dim, size):
    rng = np.random.default_rng(seed)
    stack = [_random_rank_state(dim, int(rng.integers(1, dim + 1)), rng) for _ in range(size)]
    got = _entropies(stack)
    assert len(got) == size
    for block, h in zip(stack, got):
        assert type(h) is float
        assert h == von_neumann_entropy(block)  # bit for bit, not approx
    base_e = _entropies(np.array(stack), base=np.e)
    assert base_e == [von_neumann_entropy(b, base=np.e) for b in stack]


def test_stacked_entropies_keep_the_hermitian_check():
    stack = np.array([np.eye(2) / 2] * 5, dtype=complex)
    stack[3, 0, 1] = 0.25
    stack[3, 1, 0] = 0.25 + 2e-10
    with pytest.raises(ValueError, match="Hermitian"):
        _entropies(stack)
    stack[3, 1, 0] = 0.25 + 5e-11  # inside the unchanged 1e-10 tolerance
    assert len(_entropies(stack)) == 5


def test_stacked_entropies_keep_the_psd_check():
    stack = np.array([np.eye(2) / 2] * 4, dtype=complex)
    stack[2] = np.diag([1.0 + 2e-10, -2e-10])
    with pytest.raises(ValueError, match="semidefinite"):
        _entropies(stack)
    stack[2] = np.diag([1.0 + 5e-11, -5e-11])  # rounding dip, treated as zero
    assert _entropies(stack)[2] == von_neumann_entropy(stack[2])


def test_stacked_entropies_reject_bad_shapes_and_base():
    with pytest.raises(ValueError, match="square"):
        _entropies(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="base"):
        _entropies([np.eye(2) / 2], base=1.0)
