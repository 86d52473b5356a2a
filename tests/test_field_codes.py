from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcq import errors, field_codes
from cosetcq import (
    BudgetExceededError,
    NestedCosetCode,
    PrimeField,
    coset_sum,
    field_vectors,
    select_typical,
)


def test_prime_field_rejects_composite_order():
    for q in (0, 1, 4, 6, 9, 12):
        with pytest.raises(ValueError, match="prime"):
            PrimeField(q)


def test_prime_field_arithmetic_mod_three():
    f = PrimeField(3)
    np.testing.assert_array_equal(f.add([2, 2, 0], [2, 1, 0]), [1, 0, 0])
    np.testing.assert_array_equal(f.sub([0, 1], [2, 2]), [1, 2])
    np.testing.assert_array_equal(f.mul([2, 2], [2, 0]), [1, 0])
    np.testing.assert_array_equal(f.matmul([[1, 2]], [[1, 0], [1, 1]]), [[0, 2]])


def test_validate_array_range():
    f = PrimeField(2)
    with pytest.raises(ValueError, match="outside"):
        f.validate_array([0, 2])
    with pytest.raises(ValueError, match="outside"):
        f.validate_array([-1, 0])


def test_field_vectors_lexicographic():
    vecs = field_vectors(3, 2)
    assert vecs.shape == (9, 2)
    np.testing.assert_array_equal(vecs[0], [0, 0])
    np.testing.assert_array_equal(vecs[1], [0, 1])
    np.testing.assert_array_equal(vecs[3], [1, 0])
    np.testing.assert_array_equal(vecs[-1], [2, 2])
    # zero length gives the single empty vector
    assert field_vectors(2, 0).shape == (1, 0)


def test_field_vectors_budget(monkeypatch):
    assert field_vectors(2, 14).shape == (2**14, 14)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 2**20)
    with pytest.raises(BudgetExceededError, match="budget 1048576"):
        field_vectors(2, 14)


def test_codeword_by_hand_binary():
    # v(a, m) = a g_I + m g_O + b over F_2, entry by entry
    code = NestedCosetCode(
        PrimeField(2), 4, 1, 2,
        g_inner=[[1, 0, 1, 0]],
        g_outer=[[0, 1, 1, 0], [0, 0, 1, 1]],
        dither=[1, 1, 0, 0],
    )
    np.testing.assert_array_equal(code.codeword([0], [0, 0]), [1, 1, 0, 0])
    np.testing.assert_array_equal(code.codeword([1], [0, 0]), [0, 1, 1, 0])
    np.testing.assert_array_equal(code.codeword([1], [1, 1]), [0, 0, 1, 1])


def test_codeword_by_hand_ternary():
    code = NestedCosetCode(
        PrimeField(3), 3, 1, 1,
        g_inner=[[1, 2, 0]],
        g_outer=[[2, 2, 1]],
        dither=[0, 1, 2],
    )
    # 2*(1,2,0) + 1*(2,2,1) + (0,1,2) = (2+2, 4+2+1, 0+1+2) = (1, 1, 0) mod 3
    np.testing.assert_array_equal(code.codeword([2], [1]), [1, 1, 0])


def test_codeword_batch_shapes():
    code = NestedCosetCode(
        PrimeField(2), 3, 2, 1, [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], [0, 0, 0]
    )
    a = field_vectors(2, 2)
    m = np.zeros((4, 1), dtype=np.int64)
    words = code.codeword(a, m)
    assert words.shape == (4, 3)
    for i in range(4):
        np.testing.assert_array_equal(words[i], code.codeword(a[i], [0]))


def test_overcomplete_generators_allowed():
    # k + l may exceed n
    code = NestedCosetCode(
        PrimeField(2), 2, 2, 2,
        [[1, 0], [0, 1]], [[1, 1], [1, 0]], [0, 0]
    )
    assert code.range_words().shape == (4, 2)  # the full space


def test_coset_and_messages_counts():
    code = NestedCosetCode(
        PrimeField(3), 2, 1, 1, [[1, 1]], [[0, 1]], [0, 0]
    )
    assert code.messages().shape == (3, 1)
    for m in code.messages():
        assert code.coset(m).shape == (3, 2)


def test_range_words_distinct_and_budget(monkeypatch):
    code = NestedCosetCode(
        PrimeField(2), 3, 2, 2,
        [[1, 0, 0], [1, 0, 0]],  # dependent rows, range smaller than 2^(k+l)
        [[0, 1, 0], [0, 0, 1]],
        [0, 0, 0],
    )
    words = code.range_words()
    assert words.shape[0] == 8
    assert np.unique(words, axis=0).shape[0] == words.shape[0]
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 1024)
    # the range is enumerated from a rank-3 basis: 8 words, not 16 label pairs
    with pytest.raises(BudgetExceededError, match="range enumeration of 8 words"):
        code.range_words()


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3]),
    n=st.integers(1, 6),
    k=st.integers(0, 3),
    l=st.integers(0, 3),
    inner=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_range_words_equal_pair_enumeration(q, n, k, l, inner, seed):
    """The row-space enumeration returns the sorted distinct words of all
    q^(k+l) label pairs.  Generators are a product of random (k+l) x inner
    and inner x n matrices, so inner < min(k + l, n) forces a rank
    deficiency and larger values are mostly full rank."""
    rng = np.random.default_rng(seed)
    stacked = (rng.integers(0, q, (k + l, inner)) @ rng.integers(0, q, (inner, n))) % q
    code = NestedCosetCode(PrimeField(q), n, k, l, stacked[:k], stacked[k:],
                           rng.integers(0, q, n))
    pairs = field_vectors(q, k + l)
    want = np.unique(code.codeword(pairs[:, :k], pairs[:, k:]), axis=0)
    got = code.range_words()
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_coset_sum_requires_shared_generators():
    f = PrimeField(2)
    a = NestedCosetCode(f, 2, 1, 1, [[1, 0]], [[0, 1]], [0, 0])
    b = NestedCosetCode(f, 2, 1, 1, [[1, 1]], [[0, 1]], [1, 0])
    with pytest.raises(ValueError, match="identical generator"):
        coset_sum(a, b)
    with pytest.raises(ValueError, match="same field"):
        coset_sum(a, NestedCosetCode(PrimeField(3), 2, 1, 1, [[1, 0]], [[0, 1]], [0, 0]))


def test_coset_sum_dither_addition():
    f = PrimeField(3)
    a = NestedCosetCode(f, 2, 1, 1, [[1, 0]], [[0, 1]], [2, 1])
    b = NestedCosetCode(f, 2, 1, 1, [[1, 0]], [[0, 1]], [2, 2])
    s = coset_sum(a, b)
    np.testing.assert_array_equal(s.dither, [1, 0])
    np.testing.assert_array_equal(s.g_inner, a.g_inner)


def test_coset_sum_range_is_pairwise_sums():
    """The set of word sums from two codes equals the sum code's range."""
    f = PrimeField(3)
    a = NestedCosetCode(f, 3, 1, 1, [[1, 2, 0]], [[0, 1, 1]], [1, 0, 2])
    b = NestedCosetCode(f, 3, 1, 1, [[1, 2, 0]], [[0, 1, 1]], [0, 2, 2])
    sums = set()
    for wa in a.range_words():
        for wb in b.range_words():
            sums.add(tuple((wa + wb) % 3))
    expected = {tuple(w) for w in coset_sum(a, b).range_words()}
    assert sums == expected


def _brute_force_theta(code, pmf, delta):
    """Count typical words per coset by direct frequency checks."""
    q = code.field.q
    counts = {}
    for m in code.messages():
        n_typ = 0
        for a in field_vectors(q, code.k):
            word = code.codeword(a, m)
            freq = np.array([(word == v).mean() for v in range(q)])
            if np.all(np.abs(freq - pmf) <= delta * pmf + 1e-12):
                n_typ += 1
        counts[tuple(int(x) for x in m)] = n_typ
    return counts


def test_select_typical_counts_match_brute_force():
    code = NestedCosetCode(
        PrimeField(2), 4, 2, 1,
        [[1, 0, 1, 0], [0, 1, 0, 1]], [[1, 1, 0, 0]], [0, 1, 0, 0]
    )
    pmf = np.array([0.5, 0.5])
    enc = select_typical(code, pmf, 0.5, np.random.default_rng(0))
    assert enc.theta == _brute_force_theta(code, pmf, 0.5)
    for m in code.messages():
        key = tuple(int(x) for x in m)
        if key not in enc.failed:
            word = enc.codeword_for(m)
            freq = np.array([(word == v).mean() for v in range(2)])
            assert np.all(np.abs(freq - pmf) <= 0.5 * pmf + 1e-12)


def test_select_typical_sentinel_on_failure():
    # delta = 0 with a skewed pmf: no word of length 3 has frequency 0.7
    code = NestedCosetCode(
        PrimeField(2), 3, 1, 1, [[1, 1, 1]], [[0, 0, 1]], [0, 0, 0]
    )
    enc = select_typical(code, np.array([0.7, 0.3]), 0.0, np.random.default_rng(1))
    assert len(enc.failed) == 2
    for key in enc.failed:
        assert enc.theta[key] == 0
        np.testing.assert_array_equal(enc.chosen[key], [0])


def test_select_typical_theta_independent_of_rng():
    code = NestedCosetCode(
        PrimeField(2), 4, 2, 2,
        [[1, 0, 0, 1], [0, 1, 1, 0]], [[1, 1, 1, 1], [1, 0, 1, 0]], [0, 0, 1, 1]
    )
    pmf = np.array([0.5, 0.5])
    enc_a = select_typical(code, pmf, 0.25, np.random.default_rng(5))
    enc_b = select_typical(code, pmf, 0.25, np.random.default_rng(99))
    assert enc_a.theta == enc_b.theta
    assert enc_a.failed == enc_b.failed


def _reference_select_typical(code, pmf, delta, rng):
    """Per-message scan: one coset's words, one typicality mask, one draw."""
    a_all = field_vectors(code.field.q, code.k)
    chosen, theta, failed = {}, {}, []
    for m in code.messages():
        words = code.codeword(a_all, np.broadcast_to(m, (a_all.shape[0], code.l)))
        freq = np.stack([(words == v).mean(axis=1) for v in range(code.field.q)], axis=1)
        mask = np.all(np.abs(freq - pmf) <= delta * pmf + 1e-12, axis=1)
        key = tuple(int(x) for x in m)
        theta[key] = int(mask.sum())
        if theta[key] == 0:
            chosen[key] = np.zeros(code.k, dtype=np.int64)
            failed.append(key)
        else:
            chosen[key] = a_all[np.flatnonzero(mask)[rng.integers(theta[key])]]
    return chosen, theta, frozenset(failed)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3]),
    dims=st.tuples(st.integers(1, 6), st.integers(0, 3), st.integers(0, 3)),
    skew=st.booleans(),
    delta=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    scan=st.sampled_from([1, 5, 2**14]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_scan_matches_per_message_loop(q, dims, skew, delta, scan, seed):
    """Same picks, counts, failures and generator state at any block size.

    A skewed pmf with small slack leaves many cosets without a typical word.
    """
    n, k, l = dims
    data = np.random.default_rng(seed)
    code = NestedCosetCode(
        PrimeField(q), n, k, l,
        data.integers(0, q, size=(k, n)), data.integers(0, q, size=(l, n)),
        data.integers(0, q, size=n),
    )
    pmf = np.full(q, 1.0 / q)
    if skew:
        pmf = np.array([0.6] + [0.4 / (q - 1)] * (q - 1))
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    chosen, theta, failed = _reference_select_typical(code, pmf, delta, ref_rng)
    with mock.patch.object(field_codes, "SCAN_WORDS", scan):
        enc = select_typical(code, pmf, delta, rng)
    assert enc.theta == theta
    assert enc.failed == failed
    assert list(enc.chosen) == list(chosen)
    for key, a in chosen.items():
        np.testing.assert_array_equal(enc.chosen[key], a)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_select_typical_budget_and_pmf_validation(monkeypatch):
    code = NestedCosetCode(
        PrimeField(2), 4, 2, 2,
        [[1, 0, 0, 1], [0, 1, 1, 0]], [[1, 1, 1, 1], [1, 0, 1, 0]], [0, 0, 0, 0]
    )
    monkeypatch.setattr(field_codes, "SCAN_BUDGET", 8)
    with pytest.raises(BudgetExceededError, match="16 coset members in a typical-word scan exceed budget 8"):
        select_typical(code, [0.5, 0.5], 0.2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="probability"):
        select_typical(code, [0.9, 0.3], 0.2, np.random.default_rng(0))


def test_code_shape_validation():
    f = PrimeField(2)
    with pytest.raises(ValueError, match="g_inner shape"):
        NestedCosetCode(f, 3, 2, 1, [[1, 0, 0]], [[0, 1, 0]], [0, 0, 0])
    with pytest.raises(ValueError, match="dither shape"):
        NestedCosetCode(f, 3, 1, 1, [[1, 0, 0]], [[0, 1, 0]], [0, 0])
    with pytest.raises(ValueError, match="outside"):
        NestedCosetCode(f, 2, 1, 1, [[1, 2]], [[0, 1]], [0, 0])
