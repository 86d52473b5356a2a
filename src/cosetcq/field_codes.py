"""Prime-field arithmetic, nested coset codes, and typical-codeword selection."""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import check_count, check_memory, check_pmf
from .typicality import is_relative_typical

# Most coset members held at once while ``select_typical`` scans cosets.
SCAN_WORDS = 2**14
# Most coset members that one ``select_typical`` call scans.
SCAN_BUDGET = 2**24

__all__ = [
    "PrimeField",
    "NestedCosetCode",
    "EncoderState",
    "coset_sum",
    "select_typical",
    "field_vectors",
]


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


class PrimeField(Record):
    """The prime field F_q with component-wise array arithmetic.

    Parameters
    ----------
    q : int
        Field order; must be prime.
    """

    q: int

    def __post_init__(self) -> None:
        if not _is_prime(self.q):
            raise ValueError(f"field order must be prime, got {self.q}")

    def add(self, a, b) -> np.ndarray:
        return np.mod(np.asarray(a) + np.asarray(b), self.q)

    def sub(self, a, b) -> np.ndarray:
        return np.mod(np.asarray(a) - np.asarray(b), self.q)

    def mul(self, a, b) -> np.ndarray:
        return np.mod(np.asarray(a) * np.asarray(b), self.q)

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product over F_q (int64 internally; shapes follow numpy)."""
        return np.mod(np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64), self.q)

    def validate_array(self, arr, name: str = "array") -> np.ndarray:
        out = np.asarray(arr, dtype=np.int64)
        if out.size and (out.min() < 0 or out.max() >= self.q):
            raise ValueError(f"{name} has entries outside F_{self.q}")
        return out


def field_vectors(q: int, length: int) -> np.ndarray:
    """All ``q**length`` vectors over F_q as rows, in lexicographic order."""
    total = q**length
    # Per row: the table, the row index, one remainder, room for the headers.
    check_memory(8 * total * (length + 3), f"{q}^{length} = {total} field vectors")
    if length == 0:
        return np.zeros((1, 0), dtype=np.int64)
    idx = np.arange(total, dtype=np.int64)
    digits = np.empty((total, length), dtype=np.int64)
    for pos in range(length - 1, -1, -1):
        digits[:, pos] = idx % q
        idx //= q
    return digits


class NestedCosetCode(Record):
    """A nested coset code v(a, m) = a g_inner + m g_outer + dither over F_q.

    The inner generator rows span the coset containing a given message m;
    the outer rows index the cosets themselves.  ``k + l`` may exceed ``n``
    (overcomplete generators are allowed).

    Parameters
    ----------
    field : PrimeField
    n, k, l : int
        Blocklength, inner rows, outer rows.  All positive, k and l >= 0.
    g_inner : (k, n) int array
    g_outer : (l, n) int array
    dither : (n,) int array
    """

    field: PrimeField
    n: int
    k: int
    l: int
    g_inner: np.ndarray
    g_outer: np.ndarray
    dither: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 0 or self.l < 0:
            raise ValueError(f"invalid dimensions n={self.n} k={self.k} l={self.l}")
        gi = self.field.validate_array(self.g_inner, "g_inner")
        go = self.field.validate_array(self.g_outer, "g_outer")
        b = self.field.validate_array(self.dither, "dither")
        if gi.shape != (self.k, self.n):
            raise ValueError(f"g_inner shape {gi.shape} != ({self.k}, {self.n})")
        if go.shape != (self.l, self.n):
            raise ValueError(f"g_outer shape {go.shape} != ({self.l}, {self.n})")
        if b.shape != (self.n,):
            raise ValueError(f"dither shape {b.shape} != ({self.n},)")
        object.__setattr__(self, "g_inner", gi)
        object.__setattr__(self, "g_outer", go)
        object.__setattr__(self, "dither", b)

    def codeword(self, a, m) -> np.ndarray:
        """The word a g_inner + m g_outer + dither, mod q.

        ``a`` and ``m`` may be single vectors of lengths k, l or batches with
        matching leading dimensions.
        """
        a = np.atleast_1d(self.field.validate_array(a, "a"))
        m = np.atleast_1d(self.field.validate_array(m, "m"))
        if a.shape[-1] != self.k:
            raise ValueError(f"a has last dimension {a.shape[-1]}, expected k={self.k}")
        if m.shape[-1] != self.l:
            raise ValueError(f"m has last dimension {m.shape[-1]}, expected l={self.l}")
        word = self.field.matmul(a, self.g_inner) + self.field.matmul(m, self.g_outer)
        return np.mod(word + self.dither, self.field.q)

    def coset(self, m) -> np.ndarray:
        """All q**k words of the coset indexed by message ``m``, as rows."""
        a_all = field_vectors(self.field.q, self.k)
        m = np.asarray(m, dtype=np.int64)
        return self.codeword(a_all, np.broadcast_to(m, (a_all.shape[0], self.l)))

    def messages(self) -> np.ndarray:
        """All q**l messages as rows, in lexicographic order."""
        return field_vectors(self.field.q, self.l)

    def range_words(self) -> np.ndarray:
        """All distinct words v(a, m) over every (a, m) pair, as sorted rows.

        The range is the dither plus the row space of the stacked
        generators, so it is enumerated from a basis of that space: q^rank
        distinct words, not q^(k+l) label pairs, sorted lexicographically.
        """
        q = self.field.q
        basis = _row_basis(q, np.vstack([self.g_inner, self.g_outer]))
        rank = basis.shape[0]
        total = q**rank
        # The peak holds rank + 3n int64 per word (the coefficients, and the
        # words with two temporaries or the sort keys and sorted copy); n + 2
        # to spare.
        check_memory(8 * total * (rank + 4 * self.n + 2), f"range enumeration of {total} words")
        words = np.mod(field_vectors(q, rank) @ basis + self.dither, q)
        return words[np.lexsort(words.T[::-1])]


def _row_basis(q: int, rows: np.ndarray) -> np.ndarray:
    """A basis of the row space of ``rows`` over F_q, as rows.

    Each row in turn is reduced at the pivots of the basis rows found so
    far, which are zero at every earlier pivot, and kept, scaled to a
    leading 1, when something is left.  Plain Python integers: the matrix
    is (k + l) x n, too small for array calls to pay.
    """
    basis, pivots = [], []
    for row in np.mod(rows, q).tolist():
        for b, p in zip(basis, pivots):
            factor = row[p]
            if factor:
                row = [(x - factor * y) % q for x, y in zip(row, b)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            inverse = pow(row[lead], -1, q)
            basis.append([x * inverse % q for x in row])
            pivots.append(lead)
    return np.array(basis, dtype=np.int64).reshape(len(basis), np.shape(rows)[1])


def coset_sum(code_a: NestedCosetCode, code_b: NestedCosetCode) -> NestedCosetCode:
    """The sum code of two nested coset codes sharing generators.

    Both codes must agree in field, dimensions, and both generator matrices;
    only the dithers may differ.  The result keeps the common generators and
    adds the dithers, so its range is exactly the set of sums of words from
    the two inputs.
    """
    if code_a.field.q != code_b.field.q:
        raise ValueError("coset_sum requires codes over the same field")
    same_shape = (code_a.n, code_a.k, code_a.l) == (code_b.n, code_b.k, code_b.l)
    if not same_shape:
        raise ValueError("coset_sum requires codes with matching (n, k, l)")
    if not (
        np.array_equal(code_a.g_inner, code_b.g_inner)
        and np.array_equal(code_a.g_outer, code_b.g_outer)
    ):
        raise ValueError("coset_sum requires identical generator matrices")
    return NestedCosetCode(
        field=code_a.field,
        n=code_a.n,
        k=code_a.k,
        l=code_a.l,
        g_inner=code_a.g_inner,
        g_outer=code_a.g_outer,
        dither=code_a.field.add(code_a.dither, code_b.dither),
    )


class EncoderState(Record):
    """Result of typical-codeword selection for every message of a code.

    Attributes
    ----------
    code : NestedCosetCode
    pmf : ndarray
        Target letter distribution over F_q.
    delta : float
        Relative typicality slack used during selection.
    chosen : dict
        message tuple -> chosen inner index a (length-k ndarray).  Messages
        whose coset has no typical word get the all-zero sentinel.
    theta : dict
        message tuple -> number of typical words in the coset.
    failed : frozenset
        Messages with theta == 0 (encoding error flag).
    """

    code: NestedCosetCode
    pmf: np.ndarray
    delta: float
    chosen: dict
    theta: dict
    failed: frozenset

    def codeword_for(self, m) -> np.ndarray:
        """The transmitted word for message ``m`` (sentinel coset member if failed)."""
        key = tuple(int(x) for x in np.asarray(m).reshape(-1))
        return self.code.codeword(self.chosen[key], np.asarray(m))


def select_typical(
    code: NestedCosetCode,
    pmf,
    delta: float,
    rng: np.random.Generator,
) -> EncoderState:
    """Pick, for each message, a uniformly random typical word from its coset.

    Scans all q**(k+l) coset members (exact, no sampling), whole cosets at
    a time, at most ``SCAN_WORDS`` members per block.  Refused beyond
    ``SCAN_BUDGET`` members, or beyond the memory cap for the inner table,
    one block (3 int64 and a bool per letter and 4 float64 per field
    element, for each member) and the results (8 l + 512 bytes a message).
    A message whose coset contains no delta-typical word receives the
    all-zero inner index as a sentinel and is recorded in ``failed``.

    Parameters
    ----------
    code : NestedCosetCode
    pmf : array of length q
        Target letter distribution.
    delta : float
        Relative letter-frequency slack.
    rng : numpy Generator
        Source for the uniform choice among typical members.  The typical
        counts ``theta`` do not depend on it.
    """
    q = code.field.q
    pmf = check_pmf(pmf, "pmf", (q,))
    total = q ** (code.k + code.l)
    check_count(total, SCAN_BUDGET, "coset members in a typical-word scan")
    n_inner, n_msgs = q**code.k, q**code.l
    block = max(1, SCAN_WORDS // n_inner)
    check_memory(
        8 * n_inner * (code.k + 2 + 2 * code.n)
        + min(block, n_msgs) * n_inner * (25 * code.n + 32 * q)
        + n_msgs * (8 * code.l + 512),
        f"typical-word scan of {total} coset members",
    )

    a_all = field_vectors(q, code.k)
    inner = code.field.matmul(a_all, code.g_inner)
    msgs = code.messages()
    chosen: dict = {}
    theta: dict = {}
    failed = []
    for start in range(0, len(msgs), block):
        m_block = msgs[start : start + block]
        shift = code.field.matmul(m_block, code.g_outer) + code.dither
        masks = is_relative_typical(np.mod(inner + shift[:, None, :], q), pmf, delta)
        for m, mask in zip(m_block.tolist(), masks):
            key = tuple(m)
            count = int(mask.sum())
            theta[key] = count
            if count == 0:
                chosen[key] = np.zeros(code.k, dtype=np.int64)
                failed.append(key)
            else:
                pick = rng.integers(count)
                chosen[key] = a_all[np.flatnonzero(mask)[pick]].copy()
    return EncoderState(
        code=code,
        pmf=pmf,
        delta=delta,
        chosen=chosen,
        theta=theta,
        failed=frozenset(failed),
    )
