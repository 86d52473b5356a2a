"""Generated-input checks of the factored square-root decoders.

Every factored result is compared with the dense construction it replaces:
projector matrices, Gamma sandwiches and (sum Gamma)^{-1/2}, all as D x D
arrays.  Inputs are random qubit density operators, random binary nested
coset codes with n <= 4, and random blocklengths and slacks.
"""

from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcq.channels import binary_input_distribution, example1_channel, example2_channel
from cosetcq.field_codes import NestedCosetCode, PrimeField, field_vectors, select_typical
from cosetcq.povm import (
    _inverse_sqrt_on_support,
    build_ptp_povm,
    build_rx1_povm,
    conditional_typical_projector,
    ptp_block_error,
    rx1_setup_from_channel,
    rx1_success_probability,
    typical_projector,
    verify_pinching,
)
from cosetcq.typicality import pair_sequence

F2 = PrimeField(2)
UNIFORM = np.array([0.5, 0.5])
PROPERTY = settings(max_examples=25, deadline=None)

bits = st.integers(0, 1)
deltas = st.floats(0.05, 1.2)


def _kron(mats) -> np.ndarray:
    return reduce(np.kron, mats, np.array([[1.0 + 0.0j]]))


@st.composite
def qubit_states(draw):
    """A full-rank qubit density operator (G G^dagger + I/10, normalised)."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    g = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    mat = g @ g.conj().T + 0.1 * np.eye(2)
    mat /= np.trace(mat).real
    return 0.5 * (mat + mat.conj().T)


@st.composite
def binary_codes(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 2))
    l = draw(st.integers(1, 2))
    gi = draw(st.lists(st.lists(bits, min_size=n, max_size=n), min_size=k, max_size=k))
    go = draw(st.lists(st.lists(bits, min_size=n, max_size=n), min_size=l, max_size=l))
    dither = draw(st.lists(bits, min_size=n, max_size=n))
    return NestedCosetCode(F2, n, k, l, gi, go, dither)


def _square_root(gammas: list) -> list:
    """Dense square-root measurement: N Gamma_i N, then I minus their sum."""
    norm = _inverse_sqrt_on_support(sum(gammas))
    elements = [norm @ g @ norm for g in gammas]
    return elements + [np.eye(gammas[0].shape[0]) - sum(elements)]


def _dense_ptp(code, enc, states, delta) -> list:
    pi_rho = typical_projector(sum(p * s for p, s in zip(enc.pmf, states)), code.n, delta).matrix
    gammas = []
    for a in field_vectors(2, code.k):
        for m in code.messages():
            proj = conditional_typical_projector(
                states, code.codeword(a, m), delta, pmf=enc.pmf
            ).matrix
            gammas.append(pi_rho @ proj @ pi_rho)
    return _square_root(gammas)


def _dense_rx1(setup, delta) -> list:
    code = setup.sum_code
    rho_bar = sum(setup.p_x1[x1] * setup.p_u[u] * m for (x1, u), m in setup.cond_states.items())
    rho_x1 = [
        sum(setup.p_u[u] * m for (x, u), m in setup.cond_states.items() if x == x1)
        for x1 in range(setup.p_x1.size)
    ]
    pair_states = [setup.cond_states[(x1, u)] for x1 in range(setup.p_x1.size) for u in range(2)]
    pair_pmf = np.concatenate([setup.p_x1[x1] * setup.p_u for x1 in range(setup.p_x1.size)])
    pi_rho = typical_projector(rho_bar, code.n, delta).matrix
    gammas = []
    for x1_word in setup.codebook1:
        outer = pi_rho @ conditional_typical_projector(rho_x1, x1_word, delta).matrix
        for a in field_vectors(2, code.k):
            for w in code.messages():
                pair_seq = x1_word * 2 + code.codeword(a, w)
                inner = conditional_typical_projector(
                    pair_states, pair_seq, delta, pmf=pair_pmf
                ).matrix
                gammas.append(outer @ inner @ outer.conj().T)
    return _square_root(gammas)


def _assert_valid(povm) -> None:
    total = np.zeros((povm.dim, povm.dim), dtype=complex)
    for el in povm.elements:
        assert np.linalg.eigvalsh(el).min() >= -1e-9
        total += el
    assert np.abs(total - np.eye(povm.dim)).max() <= 1e-8


@PROPERTY
@given(code=binary_codes(), s0=qubit_states(), s1=qubit_states(), delta=deltas,
       seed=st.integers(0, 2**16))
def test_ptp_elements_match_dense_reference(code, s0, s1, delta, seed):
    states = [s0, s1]
    enc = select_typical(code, UNIFORM, 0.5, np.random.default_rng(seed))
    povm = build_ptp_povm(code, enc, states, delta)
    want = _dense_ptp(code, enc, states, delta)
    assert len(povm.elements) == len(want)
    for label, got, ref in zip(povm.labels, povm.elements, want):
        np.testing.assert_allclose(got, ref, atol=1e-10)
        np.testing.assert_allclose(povm.element(label), ref, atol=1e-10)
    _assert_valid(povm)
    # the exact error is the dense trace against the transmitted product state
    success = 0.0
    for m in code.messages():
        rho = _kron([states[int(v)] for v in enc.codeword_for(m)])
        for label, ref in zip(povm.labels[:-1], want):
            if label[1] == tuple(int(x) for x in m):
                success += np.trace(ref @ rho).real
    want_error = 1.0 - success / len(code.messages())
    assert abs(ptp_block_error(povm, enc, states) - want_error) <= 1e-10


@PROPERTY
@given(code=binary_codes(), family=st.sampled_from([example1_channel, example2_channel]),
       tau=st.floats(0.05, 0.95), delta=deltas, seed=st.integers(0, 2**16))
def test_rx1_elements_match_dense_reference(code, family, tau, delta, seed):
    rng = np.random.default_rng(seed)
    code3 = NestedCosetCode(F2, code.n, code.k, code.l, code.g_inner, code.g_outer,
                            rng.integers(0, 2, size=code.n))
    book1 = tuple(rng.integers(0, 2, size=code.n) for _ in range(2))
    setup = rx1_setup_from_channel(
        family(0.05, 0.1), binary_input_distribution(tau), book1, code, code3
    )
    povm = build_rx1_povm(setup, delta)
    want = _dense_rx1(setup, delta)
    assert len(povm.elements) == len(want)
    for got, ref in zip(povm.elements, want):
        np.testing.assert_allclose(got, ref, atol=1e-10)
    _assert_valid(povm)
    enc2 = select_typical(code, UNIFORM, 0.5, rng)
    enc3 = select_typical(code3, UNIFORM, 0.5, rng)
    dense = {label: ref for label, ref in zip(povm.labels, want)}
    success = []
    for m1, x1_word in enumerate(book1):
        for m2 in code.messages():
            for m3 in code3.messages():
                u_word = (enc2.codeword_for(m2) + enc3.codeword_for(m3)) % 2
                a = (enc2.chosen[tuple(int(x) for x in m2)] + enc3.chosen[tuple(int(x) for x in m3)]) % 2
                label = (m1, tuple(int(x) for x in a), tuple(int(x) for x in (m2 + m3) % 2))
                rho = _kron([setup.cond_states[(int(x), int(u))] for x, u in zip(x1_word, u_word)])
                success.append(np.trace(dense[label] @ rho).real)
    assert abs(rx1_success_probability(povm, setup, enc2, enc3) - np.mean(success)) <= 1e-10


@PROPERTY
@given(counts=st.lists(st.integers(0, 2), min_size=4, max_size=4).filter(sum),
       b0=qubit_states(), b1=qubit_states(), delta=deltas)
def test_pinching_trace_matches_dense_reference(counts, b0, b1, delta):
    n = sum(counts)
    p_ab = np.array(counts, dtype=float).reshape(2, 2) / n
    states = [b0, b1]
    row = verify_pinching(p_ab, states, [n], delta)[0]
    p_a = p_ab.sum(axis=1)
    cond = [
        sum(p_ab[a, b] / p_a[a] * states[b] for b in range(2)) if p_a[a] > 0 else np.zeros((2, 2))
        for a in range(2)
    ]
    a_seq, b_seq = pair_sequence(p_ab, n, delta / 4.0)
    pi_rho = typical_projector(p_a[0] * cond[0] + p_a[1] * cond[1], n, delta).matrix
    pi_a = conditional_typical_projector(cond, a_seq, delta).matrix
    rho_b = _kron([states[int(b)] for b in b_seq])
    want = np.trace(pi_rho @ pi_a @ pi_rho @ rho_b).real
    assert abs(row.trace - want) <= 1e-12
