"""Dense Hermitian linear algebra for small multipartite state spaces.

All operators are plain complex ndarrays or thin validated wrappers around
them.  Entropies are base-2 unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from ._record import Record

__all__ = [
    "HERMITIAN_ATOL",
    "DensityOperator",
    "eig_hermitian",
    "von_neumann_entropy",
    "tensor",
    "partial_trace",
    "trace_norm",
    "trace_distance",
    "random_density",
]

HERMITIAN_ATOL = 1e-10


def _as_matrix(op) -> np.ndarray:
    """The complex matrix of an array or of anything with a ``matrix`` attribute."""
    return np.asarray(getattr(op, "matrix", op), dtype=complex)


def _check_square_hermitian(
    mat, atol: float = HERMITIAN_ATOL, ndim: int = 2, dtype=complex
) -> np.ndarray:
    """``mat`` as a ``dtype`` array of ``ndim`` axes, the last two a Hermitian square."""
    mat = np.asarray(mat, dtype=dtype)
    if mat.ndim != ndim or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    # |m - m^dagger| <= atol entrywise, as allclose(rtol=0) tests, NaN failing
    if not (np.abs(mat - mat.conj().swapaxes(-1, -2)) <= atol).all():
        raise ValueError("matrix is not Hermitian within tolerance")
    return mat


class DensityOperator(Record):
    """A density matrix: Hermitian, positive semidefinite, unit trace.

    Eigenvalues may dip to -1e-10 from rounding; anything lower is rejected.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _check_square_hermitian(self.matrix)
        tr = np.trace(mat).real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace {tr!r} is not 1 within 1e-10")
        w = np.linalg.eigvalsh(mat)
        if w.min() < -HERMITIAN_ATOL:
            raise ValueError(f"matrix has negative eigenvalue {w.min():.3e}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order, tiny negatives clamped to 0."""
        w, _ = eig_hermitian(self.matrix)
        return np.clip(w, 0.0, None)


def eig_hermitian(op) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Returns
    -------
    w : (d,) float ndarray
        Eigenvalues in descending order.
    v : (d, d) complex ndarray
        Corresponding orthonormal eigenvectors as columns, so that
        ``op == v @ diag(w) @ v.conj().T`` up to rounding.

    Raises
    ------
    ValueError
        If the input is not Hermitian within 1e-10.
    """
    mat = _check_square_hermitian(_as_matrix(op))
    w, v = np.linalg.eigh(mat)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def von_neumann_entropy(rho, base: float = 2.0) -> float:
    """Entropy -tr(rho log rho) of a density operator, default base 2.

    Eigenvalues in (-1e-10, 0) are treated as exact zeros; anything more
    negative raises.
    """
    return _entropies([_as_matrix(rho)], base)[0]


def _entropies(stack, base: float = 2.0) -> list:
    """Entropies (Python floats) of a stack of density matrices, in order;
    several leading axes are read in C order.

    The checks of ``von_neumann_entropy`` run once over the stack and one
    ``eigvalsh`` diagonalises it; each entry equals the one-matrix result.
    """
    if base <= 1.0:
        raise ValueError(f"entropy base must exceed 1, got {base}")
    stack = np.asarray(stack, dtype=complex)
    w = np.linalg.eigvalsh(_check_square_hermitian(stack.reshape((-1,) + stack.shape[-2:]), ndim=3))
    if w.min() < -HERMITIAN_ATOL:
        raise ValueError(f"not positive semidefinite: eigenvalue {w.min():.3e}")
    positive = w > 0.0
    logs = np.log(np.where(positive, w, 1.0))
    return (-_row_dots(np.where(positive, w, 0.0), logs) / np.log(base)).tolist()


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows (last axis), each the one a 1-D ``a @ b``
    gives; zero terms in between leave it unchanged."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two operators (wrapper types accepted)."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(rho, dims, keep):
    """Trace out all factors of a multipartite operator except ``keep``.

    Parameters
    ----------
    rho : DensityOperator or ndarray
        Operator on a tensor product of spaces with dimensions ``dims``; an
        ndarray may carry leading axes, each of its matrices traced alike.
    dims : sequence of int
        Factor dimensions, in tensor order.
    keep : sequence of int
        Indices of factors to retain (sorted order is preserved).

    Returns
    -------
    Same kind as the input (DensityOperator in, DensityOperator out),
    acting on the product of the kept factors.
    """
    wrap = isinstance(rho, DensityOperator)
    mat = _as_matrix(rho)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if mat.ndim < 2 or mat.shape[-2:] != (total, total):
        raise ValueError(f"shape {mat.shape} does not match factor dims {dims}")
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= len(dims) for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    lead = mat.shape[:-2]
    n = len(dims)
    tens = mat.reshape(lead + tuple(dims + dims))
    # contract traced-out row/column axis pairs, from the highest axis down
    for i in reversed(range(n)):
        if i not in keep:
            tens = np.trace(tens, axis1=len(lead) + i, axis2=len(lead) + i + n)
            n -= 1
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = tens.reshape(lead + (d_keep, d_keep))
    return DensityOperator(out) if wrap else out


def trace_norm(op) -> float:
    """Trace norm of a Hermitian operator (sum of absolute eigenvalues)."""
    return float(_trace_norms(_as_matrix(op)[None])[0])


def _trace_norms(stack) -> np.ndarray:
    """Trace norms of a (N, d, d) stack of operators, each Hermitian within
    1e-8 entrywise: one check and one ``eigvalsh`` over the whole stack,
    each entry equal to ``trace_norm`` of its matrix."""
    stack = _check_square_hermitian(stack, atol=1e-8, ndim=3)
    return np.abs(np.linalg.eigvalsh(stack)).sum(axis=-1)


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two Hermitian operators."""
    return 0.5 * trace_norm(_as_matrix(a) - _as_matrix(b))


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """A Haar-ish random full-rank density operator (G G*/tr with Gaussian G)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    mat = 0.5 * (mat + mat.conj().T)
    return DensityOperator(mat)
