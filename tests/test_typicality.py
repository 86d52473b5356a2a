import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcq.typicality import is_relative_typical, letter_counts, pair_sequence


def test_letter_counts_basic():
    np.testing.assert_array_equal(letter_counts([0, 1, 1, 2, 1], 4), [1, 3, 1, 0])
    np.testing.assert_array_equal(letter_counts([], 2), [0, 0])


def test_letter_counts_rejects_out_of_range():
    with pytest.raises(ValueError):
        letter_counts([0, 3], 3)


def test_relative_typicality_band():
    pmf = np.array([0.75, 0.25])
    # 3 ones out of 8 gives freq 0.375; |0.375 - 0.25| = 0.125 <= delta * 0.25
    seq = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    assert is_relative_typical(seq, pmf, 0.5)
    assert not is_relative_typical(seq, pmf, 0.4)
    # the exact-frequency sequence is typical even at delta = 0
    exact = np.array([0, 0, 0, 1])
    assert is_relative_typical(exact, pmf, 0.0)


def test_relative_typicality_zero_probability_letter():
    pmf = np.array([0.5, 0.5, 0.0])
    assert is_relative_typical([0, 1, 0, 1], pmf, 0.1)
    # any appearance of a zero-probability letter is fatal at every delta
    assert not is_relative_typical([0, 1, 0, 2], pmf, 100.0)


def test_pair_sequence_matches_target_frequencies():
    p_ab = np.array([[0.5, 0.0], [0.25, 0.25]])
    a, b = pair_sequence(p_ab, 8, 0.1)
    assert a.shape == b.shape == (8,)
    counts = np.zeros_like(p_ab)
    for x, y in zip(a, b):
        counts[x, y] += 1
    np.testing.assert_allclose(counts / 8, p_ab, atol=1e-12)


def test_pair_sequence_deterministic():
    p_ab = np.array([[0.4, 0.1], [0.2, 0.3]])
    first = pair_sequence(p_ab, 10, 0.5)
    second = pair_sequence(p_ab, 10, 0.5)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


def test_pair_sequence_rounding_stays_typical():
    # n = 3 cannot hit 0.5/0.5 exactly; largest-remainder rounding must
    # still land inside the requested band or refuse.
    p_ab = np.array([[0.5], [0.5]])
    a, _ = pair_sequence(p_ab, 3, 0.5)
    freq = letter_counts(a, 2) / 3
    assert np.all(np.abs(freq - 0.5) <= 0.5 * 0.5 + 1e-12)


def test_pair_sequence_infeasible_band():
    p_ab = np.array([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="typical"):
        pair_sequence(p_ab, 3, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    lead=st.lists(st.integers(0, 4), min_size=1, max_size=2),
    n=st.integers(1, 12),
    delta=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_typicality_equals_each_row(q, lead, n, delta, seed):
    """Sequences with leading axes get one verdict per row, each the 1-d
    call's and the band |count/n - p| <= delta p + 1e-12 on letter counts;
    the pmf is one row's own frequencies, so some rows pass."""
    rng = np.random.default_rng(seed)
    seqs = rng.integers(0, q, tuple(lead) + (n,))
    pmf = letter_counts(seqs.reshape(-1, n)[0], q) / n if seqs.size else np.full(q, 1.0 / q)
    got = is_relative_typical(seqs, pmf, delta)
    assert got.shape == tuple(lead) and got.dtype == bool
    for idx in np.ndindex(*lead):
        row = seqs[idx]
        assert got[idx] == is_relative_typical(row, pmf, delta)
        band = np.abs(letter_counts(row, q) / n - pmf) <= delta * pmf + 1e-12
        assert got[idx] == bool(band.all())


def test_typicality_rejects_malformed_sequences():
    pmf = np.array([0.5, 0.5])
    assert type(is_relative_typical([0, 1], pmf, 0.0)) is bool
    for empty in (np.zeros((3, 0), dtype=int), 1):
        with pytest.raises(ValueError, match="no letter frequencies"):
            is_relative_typical(empty, pmf, 0.1)
    with pytest.raises(ValueError, match="out of range"):
        is_relative_typical([[0, 1], [2, 0]], pmf, 0.1)
