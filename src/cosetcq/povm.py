"""Exact finite-blocklength projectors and square-root decoders.

Everything here is exact: spectral typical projectors, their conditional
variants, the coset-code point-to-point decoder, the receiver-1
sum-decoder, and the pinching-overlap sweep.  Three fixed caps bound the
work, and constructions refuse to run beyond them: DIM_BUDGET = 2**12 on a
projector's space, LABEL_BUDGET = 2**16 on a decoder's labels, and the
memory cap (errors.MEMORY_BUDGET) on a decoder's factors and working arrays.

Eigenvalue-label sequences are kept when their sample surprisal
-(1/n) log2 prod(eigenvalue) sits within delta of the (average) von Neumann
entropy; labels on zero eigenvalues never pass.  Classical codeword
indicators use the relative letter-frequency flavor, matching codeword
selection.

Projectors are held as their ranges: the kept label sequences select
orthonormal columns of a product eigenbasis, so overlaps between two
projectors and compressions of product states are products of per-letter
d x d blocks.  Square-root decoders live in the rank-r range of the typical
projector pi_rho: each element is E_i = (U B_i)(U B_i)^dagger with U the
range basis and B_i an r x r_i factor.  Both decoders are built by one
builder, ``_square_root_povm``, over chains of projectors: the
point-to-point sandwich is a chain without a middle projector, and the
receiver-1 sandwich passes through sender 1's projector.  The builder sums
the Gram matrix S label by label and keeps S^{-1/2} and the completion
block, never the factors: B_i is generated when it is read, from S^{-1/2}
scattered onto the product basis and multiplied by per-letter Kronecker
blocks (``_kron_left``), so no array grows with the sum of the factor ranks.
The completeness check, every exact error and the dense elements read them.
The Gram sum, the completeness residual and the traces read each label from
the shorter side of its range: its r_i rows, or the D - r_i rows outside it,
whose block is subtracted from the chain's full block (``_Factors.split``).
Those thin blocks are summed in products r columns wide (``_GramSum``).
Every exact error or success probability is a count-weighted sum of their
traces against product states, taken in the product basis by ``_success``.
Dense D x D elements are built only on request.  Factors, ranges and dense
elements stay real when every letter basis is.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from ._record import Record
from .channels import _aux_sums, _fold, sigma1
from .errors import ConsistencyError, ModelViolationError, check_count, check_memory, check_pmf
from .field_codes import EncoderState, NestedCosetCode, coset_sum, field_vectors
from .linalg import _as_matrix, _check_square_hermitian, _trace_norms, eig_hermitian, trace_norm
from .typicality import check_slack, is_relative_typical, pair_sequence

__all__ = [
    "DIM_BUDGET",
    "LABEL_BUDGET",
    "TypicalProjector",
    "Povm",
    "Rx1Setup",
    "PinchingRow",
    "typical_projector",
    "conditional_typical_projector",
    "build_ptp_povm",
    "ptp_block_error",
    "rx1_setup_from_channel",
    "build_rx1_povm",
    "rx1_success_probability",
    "verify_pinching",
    "gentle_measurement_check",
]

DIM_BUDGET = 2**12
LABEL_BUDGET = 2**16
# Side of the Kronecker table that one run of ``_kron_left`` applies: three
# qubit positions.
_KRON_WIDTH = 8
# Eigenvalues of a Gram matrix at or below this lie off its support.
_SUPPORT_CUTOFF = 1e-10


def _check_memory(frame: "TypicalProjector", ranks, dtype, side=()) -> int:
    """Refuse a decoder whose arrays would not fit in the memory cap.

    Counted from the projector ranks alone, before anything is allocated, in
    entries of ``dtype`` (the factors' type), and returned in bytes:

    - 10 r^2: S^{-1/2} and its conjugate transpose (the left matrix of a
      chain without a middle projector), a chain's full block and at most
      seven more r x r arrays at once (S and an eigendecomposition with its
      LAPACK copy and workspace, the completion block and any products, the
      completeness residual, ``_GramSum``'s buffer, product and conjugate);
    - D^2: a chain's full block scattered onto the frame's rows (``_success``);
    - r sum(side): the left matrices of the chains that pass through a
      middle projector of rank in ``side``;
    - 4 D r: the range basis U of dense elements, the head that ``_Factors``
      holds, and two more D x r arrays while a label is generated;
    - 3 D t for t the widest shorter side min(r_i, D - r_i): a thin block
      scattered onto the frame's rows and one ``_kron_left`` run on it;
    - 5 w^2 + 66 w for w the largest of r, the ranks and the side ranks: a
      product block, a gathered run with its index arrays and a product
      through a middle range while S is summed, or a generated factor with
      its conjugate.  No array grows with the sum of the ranks.
    """
    r, dim = frame.rank, frame.dim
    w = max([r, *ranks, *side])
    t = max([min(rank, dim - rank) for rank in ranks], default=0)
    entries = 10 * r * r + dim * (dim + 4 * r + 3 * t) + r * int(sum(side)) + 5 * w * w + 66 * w
    return check_memory(np.dtype(dtype).itemsize * entries, "decoder factors")


def _real_if_exact(mat: np.ndarray) -> np.ndarray:
    """``mat`` as a real array when its imaginary part is exactly zero.

    Real letter states keep every factor real, and real products cost a
    quarter of complex ones for the same values.
    """
    return mat.real if np.iscomplexobj(mat) and not mat.imag.any() else mat


def _runs(letters, width: int):
    """(start, stop, table) for consecutive runs of positions, ``table`` the
    Kronecker product of letters[start:stop] (position ``start`` most
    significant), of side at most ``width`` unless one letter is wider."""
    d = letters[0].shape[0]
    step = 1
    while step < len(letters) and d ** (step + 1) <= width:
        step += 1
    for start in range(0, len(letters), step):
        run = letters[start:start + step]
        table = run[0]
        for mat in run[1:]:
            table = (table[:, None, :, None] * mat[None, :, None, :]).reshape(
                table.shape[0] * d, table.shape[1] * d
            )
        yield start, start + len(run), table


def _product_block(letters, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Block of the Kronecker product of per-position d x d matrices ``letters``.

    Rows and columns are given as label sequences (one digit per position),
    so entry (i, j) is prod_t letters[t][rows[i, t], cols[j, t]].  Runs of
    positions are merged into Kronecker tables of side at most 64.  Each run
    gathers the table's columns, then copies whole rows of that narrow
    table: two ``take`` calls, about twice as fast as one ``np.ix_`` gather.
    """
    dtype = np.result_type(*letters)
    d = letters[0].shape[0]
    out = None
    for start, stop, table in _runs(letters, 64):
        place = d ** np.arange(stop - start - 1, -1, -1)
        picked = table.take(cols[:, start:stop] @ place, axis=1)
        picked = picked.take(rows[:, start:stop] @ place, axis=0)
        if out is None:
            out = picked.astype(dtype, copy=False)
        else:
            out *= picked
    return out


def _kron_left(x: np.ndarray, letters, rows=None, skip: int = 0) -> np.ndarray:
    """(letters[0] x ... x letters[n-1])^dagger . x for x of shape (d^n, r), or its ``rows``.

    Rows of ``x`` are indexed as product-basis vectors, position 0 the most
    significant digit.  Runs of positions are merged into Kronecker tables
    of side at most ``_KRON_WIDTH``, and each run's conjugate transpose but
    the first ``skip`` is applied by one batched ``matmul`` over x viewed as
    (d^start, d^run, rest).  When ``rows`` lie in blocks of at most d^n
    rows in all, the last run is applied per row, to its gathered block.
    """
    d = letters[0].shape[0]
    runs = list(_runs(letters, _KRON_WIDTH))[skip:]
    gather = rows is not None and runs and rows.size * len(runs[-1][2]) <= len(x)
    last = runs.pop()[2].conj().T if gather else None
    out = x
    for start, stop, table in runs:
        out = np.matmul(table.conj().T, out.reshape(d**start, d ** (stop - start), -1))
    out = out.reshape(x.shape)
    if last is None:
        return out if rows is None else out[rows]
    out = out.reshape(len(x) // len(last), len(last), x.shape[1])[rows // len(last)]
    return np.matmul(last[rows % len(last), None, :], out)[:, 0]


def _shorter_side(index: np.ndarray, dim: int) -> tuple:
    """(rows, flipped): the product-basis rows ``index`` of a range, or the
    rows outside it (flipped) when those are fewer."""
    if 2 * index.size <= dim:
        return index, False
    outside = np.ones(dim, dtype=bool)
    outside[index] = False
    return np.flatnonzero(outside), True


class _GramSum:
    """target +- m m^dagger for r x w blocks m, in products r columns wide.

    Added blocks fill one r-column buffer from the left, subtracted
    (``negative``) ones from the right; when the parts P and N meet,
    ``flush`` adds P P^dagger - N N^dagger (two symmetric rank-k updates for
    a real buffer, half the work of one signed product).  ``close`` flushes
    the rest and lets the buffer and ``target`` go.
    """

    def __init__(self, target: np.ndarray):
        self.target, self.buf, self.ends = target, np.empty_like(target), (0, len(target))

    def add(self, m: np.ndarray, negative: bool = False) -> None:
        while m.size:
            lo, hi = self.ends
            take = min(m.shape[1], hi - lo)
            self.buf[:, slice(hi - take, hi) if negative else slice(lo, lo + take)] = m[:, :take]
            self.ends, m = ((lo, hi - take) if negative else (lo + take, hi)), m[:, take:]
            if self.ends[0] == self.ends[1]:
                self.flush()

    def flush(self) -> None:
        lo, hi = self.ends
        for add, b in ((np.add, self.buf[:, :lo]), (np.subtract, self.buf[:, hi:])):
            if b.size:
                add(self.target, b @ b.conj().T, out=self.target)
        self.ends = (0, len(self.target))

    def close(self) -> None:
        self.flush()
        self.target = self.buf = None


class TypicalProjector(Record):
    """An orthogonal projector onto a typical subspace of a product space.

    The projector is held as its range: row ``j`` of ``seqs`` selects the
    product basis vector bases[0][:, seqs[j, 0]] x ... x bases[n-1][:, seqs[j, n-1]],
    and these orthonormal vectors are the columns of ``cols``.
    """

    n: int
    bases: tuple
    seqs: np.ndarray

    @property
    def rank(self) -> int:
        return self.seqs.shape[0]

    @property
    def dim(self) -> int:
        return self.bases[0].shape[0] ** self.n

    @cached_property
    def dtype(self) -> np.dtype:
        """float64 when every letter basis is real, complex otherwise."""
        return np.result_type(*(_real_if_exact(b) for b in self.bases))

    @cached_property
    def cols(self) -> np.ndarray:
        """(dim, rank) orthonormal basis of the range, of type ``dtype``."""
        out = np.ones((self.rank, 1), dtype=self.dtype)
        for t, basis in enumerate(self.bases):
            picked = _real_if_exact(basis)[:, self.seqs[:, t]].T
            out = out[:, :, None] * picked[:, None, :]
            out = out.reshape(self.rank, out.shape[1] * out.shape[2])
        return out.T

    @property
    def matrix(self) -> np.ndarray:
        return self.cols @ self.cols.conj().T

    @property
    def index(self) -> np.ndarray:
        """Row of each kept sequence in the product basis, position 0 most significant."""
        d = self.bases[0].shape[0]
        return self.seqs @ d ** np.arange(self.n - 1, -1, -1)

    def overlap(self, other: "TypicalProjector") -> np.ndarray:
        """cols^dagger . other.cols, without forming either basis."""
        letters = [_real_if_exact(b.conj().T @ c) for b, c in zip(self.bases, other.bases)]
        return _product_block(letters, self.seqs, other.seqs)

    def compress(self, mats) -> np.ndarray:
        """cols^dagger . (mats[0] x ... x mats[n-1]) . cols for letter operators ``mats``."""
        letters = [_real_if_exact(b.conj().T @ m @ b) for b, m in zip(self.bases, mats)]
        return _product_block(letters, self.seqs, self.seqs)


def _windows(mats: list, words: np.ndarray, delta: float, pmf=None) -> list:
    """The entropy window of the letter states ``mats`` along each row of ``words``.

    For a word vn of length n, a label sequence is kept when its sample
    surprisal -(1/n) log2 prod_t eig(mats[vn_t]) lies within ``delta`` of the
    average letter entropy (1/n) sum_t S(mats[vn_t]); labels on zero
    eigenvalues never pass.  Words not relative delta-typical for a given
    ``pmf`` (one batched test) get the zero projector.  Each letter state
    is decomposed once and shared by every window that uses it.
    """
    delta, words = check_slack(delta), np.asarray(words, dtype=np.int64)
    n, dim = words.shape[1], mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise ValueError("letter states must be square and share one dimension")
    check_count(dim**n, DIM_BUDGET, f"dimensions of a projector space {dim}^{n}")
    typical = np.ones(len(words), bool) if pmf is None else is_relative_typical(words, pmf, delta)
    eigs = {}
    for v in np.unique(words[typical]).tolist():
        w, basis = eig_hermitian(mats[v])
        pos = w > 0.0
        surprisal = np.where(pos, -np.log2(np.where(pos, w, 1.0)), np.inf)
        eigs[v] = (surprisal, float((w[pos] * surprisal[pos]).sum()), basis)
    seqs, out = field_vectors(dim, n), []
    for vn, kept in zip(words.tolist(), typical):
        if not kept:
            out.append(TypicalProjector(n, (np.eye(dim, dtype=complex),) * n, seqs[:0]))
            continue
        sample = np.stack([eigs[v][0] for v in vn])[np.arange(n)[None, :], seqs].mean(axis=1)
        target = float(np.mean([eigs[v][1] for v in vn]))
        mask = np.isfinite(sample) & (np.abs(sample - target) <= delta + 1e-12)
        out.append(TypicalProjector(n, tuple(eigs[v][2] for v in vn), seqs[mask]))
    return out


def typical_projector(rho, n: int, delta: float) -> TypicalProjector:
    """Projector onto the span of n-fold eigenvector products with typical labels.

    The window of ``rho`` along the constant word: a label sequence is kept
    when the sample surprisal of its eigenvalue product lies within
    ``delta`` (bits) of the von Neumann entropy of ``rho``.
    """
    return _windows([_as_matrix(rho)], np.zeros((1, n), dtype=np.int64), delta)[0]


def conditional_typical_projector(states, vn, delta: float, pmf=None) -> TypicalProjector:
    """Projector onto conditionally typical eigenvector products given ``vn``.

    The window of the letter states ``states[vn_t]`` (see ``_windows``).  When
    ``pmf`` is given, ``vn`` itself is first tested for *relative*
    delta-typicality against it; an atypical conditioning word yields the
    zero projector (the decoder's indicator clause).
    """
    return _windows([_as_matrix(s) for s in states], [vn], delta, pmf)[0]


def _norm_bound(mat: np.ndarray) -> float:
    """An upper bound on the spectral norm of the square ``mat``.

    The largest |eigenvalue| of the Hermitian part H plus the Frobenius norm
    of the anti-Hermitian part K: one ``eigvalsh`` instead of an SVD, and by
    the triangle inequality never below ``np.linalg.norm(mat, 2)``; at most
    |H|_F + |K|_F <= sqrt(2) |mat|_F.
    """
    herm = 0.5 * (mat + mat.conj().T)
    return float(np.abs(np.linalg.eigvalsh(herm)).max() + np.linalg.norm(mat - herm))


class _Factors(Sequence):
    """The decoding factors B_i of a square-root measurement, generated when read.

    ``chains`` lists (left, rows, labels) in label order.  ``left`` is the
    r_m x r matrix (S^{-1/2} . outer)^dagger of a chain, ``rows`` the
    product-basis rows of its pass-through projector (the frame, or a
    middle projector of rank r_m), and ``labels`` lists (letters, seqs) per
    label: the per-position d x d blocks bases_mid^dagger . bases_inner and
    the product-basis rows of the inner range.  With X the D x r matrix
    that is ``left`` on ``rows`` and zero elsewhere, B_i^dagger is the
    ``seqs`` rows of ``_kron_left(X, letters)``.  A chain's labels with one
    first-run table (``_prefix``) share that run's output, the head, kept
    until the next one; X is rebuilt for each from ``left``, C-contiguous
    so that its rows copy fast.  No array of all the factors exists.
    """

    def __init__(self, frame: TypicalProjector, chains: list):
        self.frame = frame
        self.chains = chains
        self.where = [(c, j) for c, (_, _, labels) in enumerate(chains) for j in range(len(labels))]
        self.ranks = [seqs.size for _, _, labels in chains for _, seqs in labels]
        self.dtype = np.result_type(
            frame.dtype,
            *(left for left, _, _ in chains),
            *(m for _, _, labels in chains for letters, _ in labels for m in letters),
        )
        self.release()

    def __len__(self) -> int:
        return len(self.where)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.split(index, shorter=False)[1]

    @cached_property
    def _prefix(self) -> list:
        """(chain, bytes of the table of the label's first Kronecker run) per
        label, made once: a pass groups and keys its labels by it."""
        return [(c, next(_runs(self.chains[c][2][j][0], _KRON_WIDTH))[2].tobytes())
                for c, j in self.where]

    def order(self, chain: int) -> list:
        """``chain``'s labels grouped by ``_prefix``, so that a pass makes one head per prefix."""
        labels = [i for i, (c, _) in enumerate(self.where) if c == chain]
        return sorted(labels, key=self._prefix.__getitem__)

    def split(self, index: int, shorter: bool = True) -> tuple:
        """(flipped, m): B_i B_i^dagger is m m^dagger, or the chain's full
        block left^dagger . left minus m m^dagger when flipped, for m = B_i
        or, when ``shorter``, the rows of the shorter side of the label's
        range (``_shorter_side``): the blocks are unitary, so the rows of
        Y = _kron_left(X, letters) have Y^dagger Y = left^dagger . left."""
        index = range(len(self))[index]
        c, j = self.where[index]
        left, rows, labels = self.chains[c]
        letters, seqs = labels[j]
        picked, flipped = _shorter_side(seqs, self.frame.dim) if shorter else (seqs, False)
        m = np.zeros((self.frame.rank, 0), self.dtype)
        if picked.size:
            if self._head[0] != (key := self._prefix[index]):
                self._head = (None, None)  # one head alive at a time, as counted
                x = np.zeros((self.frame.dim, self.frame.rank), dtype=left.dtype)
                x[rows] = left
                self._head = (key, _kron_left(x, [next(_runs(letters, _KRON_WIDTH))[2]]))  # first run
                del x
            m = _kron_left(self._head[1], letters, picked, skip=1).conj().T
        return flipped, m

    def release(self) -> None:
        """Drop the held head at the end of a pass over the labels."""
        self._head = (None, None)


class _FactoredElements(Sequence):
    """Dense elements of a square-root measurement held in a projector's range.

    With U the range basis of ``frame``, element i is (U B_i)(U B_i)^dagger
    for B_i = ``factors[i]``, generated from ``chains`` (see ``_Factors``),
    and the last one, the completion, is U C U^dagger + (I - U U^dagger) for
    the r x r block ``completion`` = C.  Indexing builds the D x D element;
    no D x D array is kept, and the factors' head is dropped before the
    D x D product, which costs D^2 r_i against D r to make the head again.
    """

    def __init__(self, frame: TypicalProjector, chains: list, completion: np.ndarray):
        self.frame = frame
        self.factors = _Factors(frame, chains)
        self.completion = completion

    def __len__(self) -> int:
        return len(self.factors) + 1

    def __getitem__(self, index: int) -> np.ndarray:
        index = range(len(self))[index]
        u = self.frame.cols
        if index == len(self.factors):
            block = np.eye(self.frame.rank) - self.completion
            return np.eye(self.frame.dim) - u @ block @ u.conj().T
        w = u @ self.factors[index]
        self.factors.release()
        return w @ w.conj().T


class Povm(Record):
    """A square-root decoder POVM; the completion element carries the label ``None``.

    ``elements`` holds the decoding factors in the range of a typical
    projector and builds each dense element on request (see
    ``_FactoredElements``).  The decoding elements are Gram matrices, so
    positive by construction; construction verifies that the elements sum
    to the identity within 1e-8 in operator norm (through ``_norm_bound``,
    which may only overstate the residual) and that the completion
    block has no eigenvalue below -1e-8, both in the r-dimensional range.
    The residual C - I + sum_i B_i B_i^dagger is summed over the generated
    factors, each from its shorter side (``_Factors.split``) and in its
    chain's ``_Factors.order``, by ``_GramSum``.
    A valid decoder passes both checks without an eigenvalue call, with the
    same verdicts: see the comments below.
    """

    labels: tuple
    elements: _FactoredElements

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.elements):
            raise ValueError("labels and elements must have equal length")
        if self.labels[-1] is not None:
            raise ValueError("the completion element must come last, labeled None")
        block = self.elements.completion
        if not block.size:
            return
        factors = self.elements.factors
        residual = block - np.eye(block.shape[0], dtype=factors.dtype)
        grams = _GramSum(residual)
        for c in range(len(factors.chains)):
            flipped = 0
            for i in factors.order(c):
                flip, m = factors.split(i)
                flipped += flip
                grams.add(m, flip)
            if flipped:
                left = factors.chains[c][0]
                residual += flipped * (left.conj().T @ left)
        grams.close()
        factors.release()
        # _norm_bound(R) <= sqrt(2) |R|_F: it can only pass 1e-8 above this
        if 1.5 * np.linalg.norm(residual) > 1e-8 and (bound := _norm_bound(residual)) > 1e-8:
            raise ConsistencyError("POVM elements do not sum to the identity: "
                                   f"completeness residual {bound:.1e} above 1e-8")
        herm = 0.5 * (block + block.conj().T)
        # a factor exists only when every eigenvalue is above -5e-9 (up to
        # rounding), so the -1e-8 test can fail only when there is none
        try:
            np.linalg.cholesky(herm + 5e-9 * np.eye(len(herm)))
        except np.linalg.LinAlgError:
            wmin = float(np.linalg.eigvalsh(herm).min())
            if wmin < -1e-8:
                raise ConsistencyError(f"POVM element None has eigenvalue {wmin:.3e} below -1e-8")

    @cached_property
    def _position(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    def element(self, label) -> np.ndarray:
        return self.elements[self._position[label]]

    @property
    def dim(self) -> int:
        return self.elements.frame.dim


def _inverse_sqrt_on_support(mat: np.ndarray) -> tuple:
    """(N, I - N S N), N = S^{-1/2} on the eigenvalues of the Hermitian S above
    ``_SUPPORT_CUTOFF`` (0 off them).  I - N S N is read off the other
    eigenvectors V_off as V_off V_off^dagger while 16 eps kappa <= 1e-12
    (kappa the kept eigenvalues' ratio); above, the products N S N differ
    from it by more, and the completeness check needs them.  A real S takes
    a real ``eigh``, about four times cheaper than the complex one."""
    if np.iscomplexobj(mat):
        w, v = eig_hermitian(mat)
    else:
        w, v = np.linalg.eigh(_check_square_hermitian(mat, dtype=float))
    support = w > _SUPPORT_CUTOFF
    inv = np.where(support, 1.0 / np.sqrt(np.clip(w, _SUPPORT_CUTOFF, None)), 0.0)
    norm = _real_if_exact((v * inv) @ v.conj().T)
    if support.any() and 16 * np.finfo(float).eps * w.max() > 1e-12 * w[support].min():
        return norm, np.eye(len(mat)) - norm @ mat @ norm
    return norm, v[:, ~support] @ v[:, ~support].conj().T


def _square_root_povm(frame: TypicalProjector, chains: list) -> Povm:
    """Square-root measurement of the operators U A_i A_i^dagger U^dagger.

    ``frame`` gives the range basis U (D x r) of pi_rho.  ``chains`` lists
    (middle, [(label, inner), ...]) in label order, and label i's r x r_i
    matrix is A_i = U^dagger . C_i for C_i the range basis of ``inner``, or
    A_i = outer . M^dagger C_i with outer = U^dagger M through the range
    basis M of the projector ``middle`` when it is not None.  After the
    memory check S = sum_i A_i A_i^dagger is summed label by label, a term
    read from the D - r_i rows outside the inner range (``_shorter_side``)
    as L - Abar_i Abar_i^dagger for L = I_r, or outer . outer^dagger.  The
    decoding factors are B_i = S^{-1/2} A_i (inverse square root on the
    support of S), so E_i = (U B_i)(U B_i)^dagger equals N Gamma_i N for
    Gamma_i = U A_i A_i^dagger U^dagger and N = (sum_i Gamma_i)^{-1/2}.  The
    completion block is I_r - N S N (``_inverse_sqrt_on_support``).  No B_i
    is stored: B_i^dagger = P^dagger C_i (S^{-1/2} . outer)^dagger for P the
    pass-through range (U, or M), a product of per-position blocks b^dagger c
    (made once per pair of basis arrays, for the Gram sum too) applied to
    the scattered left matrix (see ``_Factors``).
    """
    inners = [inner for _, pairs in chains for _, inner in pairs]
    middles = [middle for middle, _ in chains if middle is not None]
    dtype = np.result_type(frame.dtype, *(p.dtype for p in inners + middles))
    _check_memory(frame, [p.rank for p in inners], dtype, side=[m.rank for m in middles])
    blocks = {}

    def letters(passing, inner) -> list:  # b^dagger c per pair of basis arrays
        for b, c in zip(passing.bases, inner.bases):
            if (id(b), id(c)) not in blocks:
                blocks[id(b), id(c)] = _real_if_exact(b.conj().T @ c)
        return [blocks[id(b), id(c)] for b, c in zip(passing.bases, inner.bases)]

    gram = np.zeros((frame.rank, frame.rank), dtype=dtype)
    grams = _GramSum(gram)
    digits = field_vectors(frame.bases[0].shape[0], frame.n)  # row j of the product basis
    outers = []
    for middle, pairs in chains:
        passing = frame if middle is None else middle
        outer = None if middle is None else frame.overlap(middle)
        outers.append(outer)
        flipped = 0
        for _, inner in pairs:
            rows, flip = _shorter_side(inner.index, inner.dim)
            flipped += flip
            if rows.size:
                a = _product_block(letters(passing, inner), passing.seqs, digits[rows])
                grams.add(a if outer is None else outer @ a, flip)
                del a  # else the last block lives through the completeness check
        if flipped:
            gram += flipped * (np.eye(frame.rank) if outer is None else outer @ outer.conj().T)
    grams.close()
    norm, completion = _inverse_sqrt_on_support(gram)
    del gram  # S is not held past its eigendecomposition
    generators = []
    for (middle, pairs), outer in zip(chains, outers):
        passing = frame if middle is None else middle
        left = norm if outer is None else norm @ outer
        labels = [(letters(passing, inner), inner.index) for _, inner in pairs]
        generators.append((np.ascontiguousarray(left.conj().T), passing.index, labels))
    norm = left = outers = None  # held through the completeness check only as chain copies
    labels = tuple(label for _, pairs in chains for label, _ in pairs)
    return Povm(labels + (None,), _FactoredElements(frame, generators, completion))


def _kron_trace(mats, z: np.ndarray):
    """tr((mats[0] x ... x mats[n-1]) . z) for z of shape (d^n, d^n), contracted
    one run of positions (``_runs``) at a time: about D^2 multiply-adds in all."""
    for _, _, table in _runs(mats, _KRON_WIDTH):
        w = len(table)
        z = np.einsum("ij,jaib->ab", table, z.reshape(w, len(z) // w, w, len(z) // w))
    return z[0, 0]


def _success(factors: _Factors, letters, hits) -> float:
    """sum of count * tr(B_i^dagger U^dagger rho_w U B_i) over ``hits``.

    ``hits`` lists (i, w, count) in summation order: B_i is ``factors[i]``,
    U the range basis of the factors' frame and rho_w the tensor product of
    ``letters`` along the letter word w.  Each label is read once, from its
    shorter side, in its chain's ``_Factors.order``, and traced in the
    product basis: with z the block m scattered onto the frame's rows,
    tr(m^dagger U^dagger rho_w U m) = <z, K_w z> for K_w = (x)_t b_t^dagger
    rho_{w_t} b_t, b_t the frame's basis at position t (one block per basis
    and letter).  A flipped label adds tr(U^dagger rho_w U L) - that for the
    chain's full block L: tr(K_w Z) by ``_kron_trace``, Z the D x D scatter
    of L, made once per chain with no head held.  A zero-rank factor adds
    exactly 0 and is never read.  Terms are summed in ``hits`` order (``_fold``).
    """
    frame, by_label = factors.frame, {}
    for pos, (i, word, _) in enumerate(hits):
        if factors.ranks[i]:
            by_label.setdefault(i, []).append((pos, tuple(int(v) for v in word)))
    table = {(id(b), v): _real_if_exact(b.conj().T @ mat @ b)
             for b in {id(b): b for b in frame.bases}.values() for v, mat in enumerate(letters)}
    traces = np.zeros(len(hits))
    for c in range(len(factors.chains)):
        order = [i for i in factors.order(c) if i in by_label]
        kw = {word: [table[id(b), v] for b, v in zip(frame.bases, word)]
              for i in order for _, word in by_label[i]}  # the letter blocks of K_w
        bases = {}
        if any(2 * factors.ranks[i] > frame.dim for i in order):  # a flipped label (_shorter_side)
            factors.release()
            left = factors.chains[c][0]
            z = np.zeros((frame.dim, frame.dim), dtype=factors.dtype)
            z[frame.index[:, None], frame.index] = left.conj().T @ left
            bases = {word: _kron_trace(blocks, z).real for word, blocks in kw.items()}
            del z
        for i in order:
            flipped, m = factors.split(i)
            z = np.zeros((frame.dim, m.shape[1]), dtype=m.dtype)
            z[frame.index] = m
            for pos, word in by_label[i]:
                trace = np.vdot(z, _kron_left(z, kw[word])).real
                traces[pos] = bases[word] - trace if flipped else trace
    factors.release()
    return float(_fold(np.array([count for _, _, count in hits]) * traces, 0))


def _code_words(code: NestedCosetCode):
    """((a, m), codeword) for every inner index a and message m of ``code``,
    a outer and m inner: the label order of both decoders."""
    for a in field_vectors(code.field.q, code.k):
        for m in code.messages():
            yield (tuple(int(x) for x in a), tuple(int(x) for x in m)), code.codeword(a, m)


def build_ptp_povm(code: NestedCosetCode, encoder: EncoderState, states, delta: float) -> Povm:
    """Square-root decoder POVM for a point-to-point coset code.

    For every pair (a, m) the intermediate operator is
    pi_rho . Pi_{v(a,m)} . pi_rho, zeroed when the word is not relative
    delta-typical for the code pmf; square-root normalization and an
    off-support completion element make the collection a POVM with labels
    (a, m) plus ``None``.  The elements are held factored in the range of
    pi_rho (see the module docstring).
    """
    q = code.field.q
    mats = [_as_matrix(s) for s in states]
    if len(mats) != q:
        raise ValueError(f"expected {q} letter states, got {len(mats)}")
    check_count(q ** (code.k + code.l), LABEL_BUDGET, "POVM labels")
    pmf = encoder.pmf
    rho_bar = sum(p * m for p, m in zip(pmf, mats))
    pi_rho = typical_projector(rho_bar, code.n, delta)
    labels, words = zip(*_code_words(code))
    return _square_root_povm(pi_rho, [(None, list(zip(labels, _windows(mats, words, delta, pmf))))])


def ptp_block_error(povm: Povm, encoder: EncoderState, states) -> float:
    """Exact average block error probability of the square-root decoder.

    Messages are uniform; the channel maps the selected word to the tensor
    product of letter states.  The decoder succeeds on any outcome (a, m)
    with the correct message part.  ``povm`` must come from
    ``build_ptp_povm``: each success trace tr(B^dagger U^dagger rho U B) is
    taken in the product basis (``_success``).
    """
    mats = [_as_matrix(s) for s in states]
    hits = [(i, encoder.codeword_for(m), 1) for i, (_, m) in enumerate(povm.labels[:-1])]
    success = _success(povm.elements.factors, mats, hits)
    return 1.0 - success / len(encoder.code.messages())


class Rx1Setup(Record):
    """Inputs of the receiver-1 sum decoder.

    Attributes
    ----------
    cond_states : dict
        (x1, u) -> receiver-1 letter state ndarray; pairs of probability 0
        are absent.
    p_x1, p_u : ndarrays
        Letter distributions of sender 1 and of the interference sum.
    codebook1 : tuple of int ndarrays
        Sender-1 words, indexed by its message.
    sum_code : NestedCosetCode
        The coset-sum code whose words enumerate the decodable interference;
        its dither is the sum of the two senders' dithers.
    """

    cond_states: dict
    p_x1: np.ndarray
    p_u: np.ndarray
    codebook1: tuple
    sum_code: NestedCosetCode


def rx1_setup_from_channel(channel, dist, codebook1, code2, code3) -> Rx1Setup:
    """Assemble the receiver-1 decoding problem from a 3-to-1 channel.

    The conditional letter states come from the receiver-1 block-diagonal
    state at the given input pmf; the interference code is the coset sum of
    the two senders' codes (their generators must match).  The receiver-1
    reduction must depend on the auxiliaries only through their sum, so that
    per-letter states indexed by (x1, u) describe the channel exactly; this
    is verified and a ModelViolationError raised otherwise.  A ``codebook1``
    word whose length is not the codes' blocklength, or with a letter
    outside sender 1's alphabet, raises ValueError.
    """
    sum_code = coset_sum(code2, code3)
    n_x1 = channel.input_sizes[0]
    book1 = tuple(np.asarray(w, dtype=np.int64) for w in codebook1)
    for m1, word in enumerate(book1):
        if word.shape != (sum_code.n,) or word.min() < 0 or word.max() >= n_x1:
            raise ValueError(
                f"codebook1 word {m1} must have {sum_code.n} letters in range({n_x1})"
            )
    q = dist.q
    s1 = sigma1(channel, dist)
    cond = {lab: mat for lab, (_, mat) in s1.blocks.items()}
    # Sufficiency of the sum: every (v2, v3) with one sum must induce the
    # same receiver-1 letter state as the sum-conditioned average.  One
    # batch row per pair (v2, v3), each side a single auxiliary letter; one
    # stacked trace-norm scan over every tested (x1, pair), the first
    # violation reported.
    v2, v3 = np.indices((q, q)).reshape(2, -1)
    u = (v2 + v3) % q
    weight = dist.p_v2x2.sum(axis=1)[v2] * dist.p_v3x3.sum(axis=1)[v3]
    per_pair = _aux_sums(channel, dist.p_v2x2[v2, None], dist.p_v3x3[v3, None])
    tested = {
        (x1, row): per_pair[row, x1, 0] / weight[row] - cond[(x1, u[row])]
        for x1 in range(n_x1)
        for row in range(q * q)
        if (x1, u[row]) in cond and weight[row] > 0.0
    }  # never empty: sigma1 holds the blocks of nonzero weight
    bad = np.flatnonzero(0.5 * _trace_norms(np.stack(list(tested.values()))) > 1e-9)
    if bad.size:
        x1, row = list(tested)[bad[0]]
        raise ModelViolationError(
            "receiver-1 reduction is not a function of the "
            f"auxiliary sum at x1={x1}, (v2, v3)=({v2[row]}, {v3[row]})"
        )
    return Rx1Setup(
        cond_states=cond,
        p_x1=np.asarray(dist.p_x1, dtype=float),
        p_u=dist.p_u(),
        codebook1=book1,
        sum_code=sum_code,
    )


def _pair_letters(setup: Rx1Setup) -> list:
    """Receiver-1 letter states over the flattened (x1, u) alphabet, x1 q + u;
    a pair of probability 0, absent from ``cond_states``, is the zero matrix."""
    q = setup.sum_code.field.q
    zero = np.zeros_like(next(iter(setup.cond_states.values())), dtype=complex)
    return [setup.cond_states.get((x1, u), zero) for x1 in range(setup.p_x1.size) for u in range(q)]


def build_rx1_povm(setup: Rx1Setup, delta: float) -> Povm:
    """Square-root decoder for (message 1, interference sum) at receiver 1.

    Labels are (m1, a, w): sender-1 message index, inner index and coset
    index of the interference word.  The sandwich for one label is
    pi_rho . pi_{m1} . pi^{a,w}_{m1} . pi_{m1} . pi_rho with the outer
    projector built from the average state, the middle one conditioned on
    sender 1's word alone, and the inner one conditioned on the
    (x1, u) pair sequence; pairs that are not relative delta-typical for
    p_x1 x p_u contribute zero.  The elements are held factored in the
    range of pi_rho.
    """
    code = setup.sum_code
    q = code.field.q
    n_x1 = setup.p_x1.size
    check_count(len(setup.codebook1) * q ** (code.k + code.l), LABEL_BUDGET, "POVM labels")

    # Average and x1-conditional letter states, summed in label order.
    pair_states = _pair_letters(setup)
    items = setup.cond_states.items()
    zero = np.zeros(pair_states[0].shape, dtype=complex)
    rho_bar = sum((setup.p_x1[x1] * setup.p_u[u] * mat for (x1, u), mat in items), zero)
    rho_x1 = [
        sum((setup.p_u[u] * mat for (x, u), mat in items if x == x1), zero)
        for x1 in range(n_x1)
    ]
    pi_rho = typical_projector(rho_bar, code.n, delta)
    pair_pmf = np.concatenate([setup.p_x1[x1] * setup.p_u for x1 in range(n_x1)])
    labels, words = zip(*_code_words(code))
    book1 = np.reshape(setup.codebook1, (-1, code.n))
    middles = _windows(rho_x1, book1, delta)
    pairs = np.reshape([x1 * q + word for x1 in book1 for word in words], (-1, code.n))
    inners = iter(_windows(pair_states, pairs, delta, pair_pmf))
    chains = [(middle, [((m1, a, w), next(inners)) for a, w in labels])
              for m1, middle in enumerate(middles)]
    return _square_root_povm(pi_rho, chains)


def rx1_success_probability(
    povm: Povm,
    setup: Rx1Setup,
    enc2: EncoderState,
    enc3: EncoderState,
) -> float:
    """Exact probability that receiver 1 outputs the correct (m1, a, w) label.

    Messages of all three senders are uniform.  The correct label packs the
    sum of the two encoders' chosen inner indices and the message sum; the
    corresponding interference word automatically equals the sum of the two
    transmitted words.  ``povm`` must come from ``build_rx1_povm``; message
    triples that share a label and a received word are traced once.
    """
    q = setup.sum_code.field.q
    # (a, w, interference word) counts over (m2, m3); every m1 repeats them
    sums: dict = {}
    for m2 in enc2.code.messages():
        for m3 in enc3.code.messages():
            a = enc2.chosen[tuple(int(x) for x in m2)] + enc3.chosen[tuple(int(x) for x in m3)]
            u_word = (enc2.codeword_for(m2) + enc3.codeword_for(m3)) % q
            key = tuple(tuple(int(x) for x in v) for v in (a % q, (m2 + m3) % q, u_word))
            sums[key] = sums.get(key, 0) + 1
    hits = [
        (povm._position[(m1, a, w)], x1_word * q + np.array(u_word), count)
        for m1, x1_word in enumerate(setup.codebook1)
        for (a, w, u_word), count in sums.items()
    ]
    success = _success(povm.elements.factors, _pair_letters(setup), hits)
    return success / (len(setup.codebook1) * sum(sums.values()))


class PinchingRow(Record):
    n: int
    delta: float
    trace: float
    deficiency: float


def verify_pinching(p_ab, states_b, n_list, delta: float) -> list:
    """Exact overlap sweep for the pinching bound.

    For each blocklength a deterministic delta/4-typical pair (a^n, b^n) is
    built, and the quantity tr(Pi_rho Pi_{a^n} Pi_rho rho_{b^n}) evaluated
    with both projectors at slack ``delta``.  Rows report the trace and its
    deficiency 1 - trace, which the bound drives to zero exponentially.
    With U the range basis of Pi_rho and A = U^dagger . range(Pi_{a^n}), the
    trace is tr(A^dagger U^dagger rho_{b^n} U A).
    """
    p_ab = check_pmf(p_ab, "joint pmf p_ab", (None, None))
    mats = [_as_matrix(s) for s in states_b]
    if len(mats) != p_ab.shape[1]:
        raise ValueError("one letter state per column of p_ab is required")
    p_a = p_ab.sum(axis=1)
    dim = mats[0].shape[0]
    cond_states = []
    for a in range(p_ab.shape[0]):
        if p_a[a] <= 0.0:
            cond_states.append(np.zeros((dim, dim), dtype=complex))
            continue
        cond_states.append(sum(p_ab[a, b] / p_a[a] * mats[b] for b in range(p_ab.shape[1])))
    rho_bar = sum(p_a[a] * cond_states[a] for a in range(p_ab.shape[0]))
    rows = []
    for n in n_list:
        a_seq, b_seq = pair_sequence(p_ab, int(n), delta / 4.0)
        pi_rho = typical_projector(rho_bar, int(n), delta)
        pi_a = conditional_typical_projector(cond_states, a_seq, delta)
        _check_memory(pi_rho, [pi_a.rank], np.result_type(pi_rho.dtype, pi_a.dtype))
        a = pi_rho.overlap(pi_a)
        trace = float(np.vdot(a, pi_rho.compress([mats[v] for v in b_seq]) @ a).real)
        rows.append(PinchingRow(int(n), delta, trace, 1.0 - trace))
    return rows


def gentle_measurement_check(rho, projector, slack: float = 1e-6) -> tuple:
    """Verify the gentle-operator inequality for a (state, projector) pair.

    Returns (epsilon, disturbance, ok) where epsilon = 1 - tr(P rho) and
    disturbance = trace norm of rho - P rho P; ok requires
    disturbance <= 2 sqrt(epsilon) + slack.
    """
    mat = _as_matrix(rho)
    p = _as_matrix(projector)
    eps = max(0.0, 1.0 - float(np.trace(p @ mat).real))
    disturbance = trace_norm(mat - p @ mat @ p)
    return eps, disturbance, disturbance <= 2.0 * np.sqrt(eps) + slack
