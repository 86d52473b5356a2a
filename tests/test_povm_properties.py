"""Generated-input checks of the factored square-root decoders.

Every factored result is compared with the dense construction it replaces:
projector matrices, Gamma sandwiches and (sum Gamma)^{-1/2}, all as D x D
arrays.  Inputs are random qubit density operators, random binary nested
coset codes with n <= 4, and random blocklengths and slacks.  The generated
factors are also compared with the per-label construction (on binary and
ternary codes), the product-block gathers with the np.ix_ / np.kron
formula, the letter-Kronecker kernel and the prefix-shared factors with a
dense np.kron product, the product-basis traces with r x r traces against
compressed states, the wide-product Gram sum with one product per label,
and the completeness verdict with the spectral-norm bound it skips.
"""

from functools import reduce
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcq.channels import binary_input_distribution, example1_channel, example2_channel
from cosetcq.field_codes import NestedCosetCode, PrimeField, field_vectors, select_typical
import cosetcq.povm as povm_module
from cosetcq.errors import ConsistencyError
from cosetcq.povm import (
    _SUPPORT_CUTOFF,
    Povm,
    TypicalProjector,
    _FactoredElements,
    _Factors,
    _GramSum,
    _inverse_sqrt_on_support,
    _kron_left,
    _kron_trace,
    _norm_bound,
    _product_block,
    _success,
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
F3 = PrimeField(3)
UNIFORM = np.array([0.5, 0.5])
PROPERTY = settings(max_examples=25, deadline=None)

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
def binary_codes(draw, max_n=4, field=F2):
    """A random nested coset code, over F2 unless ``field`` is given."""
    digits = st.integers(0, field.q - 1)
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 2))
    l = draw(st.integers(1, 2))
    gi = draw(st.lists(st.lists(digits, min_size=n, max_size=n), min_size=k, max_size=k))
    go = draw(st.lists(st.lists(digits, min_size=n, max_size=n), min_size=l, max_size=l))
    dither = draw(st.lists(digits, min_size=n, max_size=n))
    return NestedCosetCode(field, n, k, l, gi, go, dither)


def _square_root(gammas: list) -> list:
    """Dense square-root measurement: N Gamma_i N, then I minus their sum."""
    norm, _ = _inverse_sqrt_on_support(sum(gammas))
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


def _ix_kron_product_block(letters, rows, cols) -> np.ndarray:
    """The product block as first written: np.kron tables and np.ix_ gathers."""
    letters = [povm_module._real_if_exact(m) for m in letters]
    d = letters[0].shape[0]
    step = 1
    while step < len(letters) and d ** (step + 1) <= 64:
        step += 1
    out = np.ones((rows.shape[0], cols.shape[0]), dtype=np.result_type(*letters))
    for start in range(0, len(letters), step):
        run = letters[start:start + step]
        table = reduce(np.kron, run)
        place = d ** np.arange(len(run) - 1, -1, -1)
        stop = start + len(run)
        out *= table[np.ix_(rows[:, start:stop] @ place, cols[:, start:stop] @ place)]
    return out


@PROPERTY
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 9), complex_letters=st.booleans(),
       n_rows=st.integers(0, 12), n_cols=st.integers(0, 12), seed=st.integers(0, 2**16))
def test_product_block_equals_ix_kron_formula(d, n, complex_letters, n_rows, n_cols, seed):
    # d = 2 merges 6 positions into a 64-wide table and d = 3 merges 3, so
    # n = 7..9 (d = 2) and n = 4..9 (d = 3) run past the first table
    rng = np.random.default_rng(seed)
    letters = [rng.normal(size=(d, d)) for _ in range(n)]
    if complex_letters:
        letters = [m + 1j * rng.normal(size=(d, d)) for m in letters]
    rows = rng.integers(0, d, size=(n_rows, n))
    cols = rng.integers(0, d, size=(n_cols, n))
    got = _product_block(letters, rows, cols)
    want = _ix_kron_product_block(letters, rows, cols)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@PROPERTY
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 5), complex_letters=st.booleans(),
       cols=st.integers(0, 3), picks=st.integers(0, 12), seed=st.integers(0, 2**16))
def test_kron_left_equals_dense_kron(d, n, complex_letters, cols, picks, seed):
    # every run split: runs of `step` positions for each step in 1..n, and
    # x of 0 to 3 columns, real or complex like the letters
    rng = np.random.default_rng(seed)
    letters = [rng.normal(size=(d, d)) for _ in range(n)]
    x = rng.normal(size=(d**n, cols))
    if complex_letters:
        letters = [m + 1j * rng.normal(size=(d, d)) for m in letters]
        x = x + 1j * rng.normal(size=x.shape)
    want = _kron(letters).conj().T @ x
    atol = 1e-12 * (1.0 + np.abs(want).max(initial=0.0))
    rows = rng.integers(0, d**n, size=picks)
    # the rows a factor reads: columns of the dense product, conjugated
    want_rows = _kron(letters)[:, rows].conj().T @ x
    for step in range(1, n + 1):
        with mock.patch.object(povm_module, "_KRON_WIDTH", d**step):
            got = _kron_left(x, letters)
        assert got.shape == x.shape
        assert got.dtype == (np.complex128 if complex_letters else np.float64)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        np.testing.assert_allclose(got[rows], want_rows, rtol=0, atol=atol)


@PROPERTY
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 5), complex_letters=st.booleans(),
       kinds=st.lists(st.sampled_from(["empty", "single", "full", "some"]), min_size=1, max_size=6),
       seed=st.integers(0, 2**16), data=st.data())
def test_prefix_shared_generator_equals_kron_left(d, n, complex_letters, kinds, seed, data):
    """Factors read through one ``_Factors`` in any order equal the rows of
    ``_kron_left`` on the scattered left matrix and of the dense Kronecker
    product, for every run split.  Each position draws its letter from two,
    so some labels share the first run's letters and some do not; a label
    reads no row, one row, all rows or some rows, and also its shorter side."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        m = rng.normal(size=shape)
        return m + 1j * rng.normal(size=shape) if complex_letters else m

    dim = d**n
    alphabet = [[draw((d, d)) for _ in range(2)] for _ in range(n)]
    r = int(rng.integers(1, dim + 1))
    frame = TypicalProjector(n, (np.eye(d),) * n, field_vectors(d, n)[:r])
    rows = np.sort(rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False))
    left = draw((rows.size, r))
    x = np.zeros((dim, r), dtype=left.dtype)
    x[rows] = left
    some = lambda: np.sort(rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False))
    labels = [
        ([alphabet[t][int(rng.integers(0, 2))] for t in range(n)],
         {"empty": rows[:0], "single": rows[:1], "full": np.arange(dim), "some": some()}[kind])
        for kind in kinds
    ]
    order = data.draw(st.permutations(range(len(labels))))
    for step in range(1, n + 1):
        with mock.patch.object(povm_module, "_KRON_WIDTH", d**step):
            factors = _Factors(frame, [(left, rows, labels)])  # keys its labels at this width
            for i in [*order, *factors.order(0)]:
                letters, seqs = labels[i]
                want = _kron_left(x, letters)
                atol = 1e-12 * (1.0 + np.abs(want).max(initial=0.0))
                got = factors[i]
                assert got.shape == (r, seqs.size)
                np.testing.assert_allclose(got, want[seqs].conj().T, rtol=0, atol=atol)
                np.testing.assert_allclose(got, (_kron(letters).conj().T @ x)[seqs].conj().T,
                                           rtol=0, atol=atol)
                flipped, m = factors.split(i)
                picked = np.setdiff1d(np.arange(dim), seqs) if flipped else seqs
                assert flipped == (2 * seqs.size > dim)
                np.testing.assert_allclose(m, want[picked].conj().T, rtol=0, atol=atol)
            factors.release()


def _dense_traces(factors, letters, hits) -> float:
    """sum of count * trace over ``hits`` as an r x r reference takes them:
    tr(m^dagger rho m) against the compressed state rho, or tr(rho L) minus
    it for a flipped label, L the chain's full block."""
    total = 0.0
    for i, word, count in hits:
        rho = factors.frame.compress([letters[v] for v in word])
        flipped, m = factors.split(i)
        trace = np.vdot(m, rho @ m).real
        if flipped:
            left = factors.chains[factors.where[i][0]][0]
            trace = np.vdot(left.conj().T @ left, rho).real - trace
        total += count * trace
    factors.release()
    return total


@PROPERTY
@given(code=binary_codes(max_n=5), s0=qubit_states(), s1=qubit_states(), real=st.booleans(),
       delta=deltas, seed=st.integers(0, 2**16))
@example(  # an open window: every typical-word label is flipped, with an empty complement
    code=NestedCosetCode(F2, 3, 1, 1, [[1, 0, 1]], [[0, 1, 1]], [1, 0, 0]),
    s0=np.array([[0.7, 0.2j], [-0.2j, 0.3]]), s1=np.diag([0.4, 0.6]).astype(complex),
    real=False, delta=50.0, seed=0,
)
def test_product_basis_traces_equal_dense_traces(code, s0, s1, real, delta, seed):
    """``_success``'s product-basis traces equal the dense r x r reference on
    random hits: labels read once or several times, against any received
    word and with any count, flipped or not, complex letters or real."""
    states = [s.real if real else s for s in (s0, s1)]
    rng = np.random.default_rng(seed)
    enc = select_typical(code, UNIFORM, 0.5, rng)
    factors = build_ptp_povm(code, enc, states, delta).elements.factors
    hits = [
        (int(rng.integers(0, len(factors))), rng.integers(0, 2, code.n), int(rng.integers(1, 4)))
        for _ in range(int(rng.integers(1, 2 * len(factors) + 1)))
    ]
    want = _dense_traces(factors, states, [hit for hit in hits if factors.ranks[hit[0]]])
    assert abs(_success(factors, states, hits) - want) <= 1e-12


def _per_label_square_root(frame, factors: list) -> tuple:
    """The square-root normalization one label at a time: (B_i list,
    completion, atol).

    The block path sums S in another order, and S^{-1/2} turns a rounding
    of eps lambda_max in S into a relative error of about eps kappa on the
    smallest kept eigenvalue, kappa = lambda_max / lambda_min over the
    eigenvalues of S above the support cutoff.  ``atol`` is 16 eps kappa,
    ten times the largest ratio seen over 1500 random ptp inputs, and never
    below 1e-12.
    """
    gram = np.zeros((frame.rank, frame.rank))
    for a in factors:
        gram = gram + a @ a.conj().T
    norm, _ = _inverse_sqrt_on_support(gram)
    kept = np.linalg.eigvalsh(gram)
    kept = kept[kept > _SUPPORT_CUTOFF]
    kappa = kept.max() / kept.min() if kept.size else 1.0
    atol = max(1e-12, 16 * np.finfo(float).eps * kappa)
    return [norm @ a for a in factors], np.eye(frame.rank) - norm @ gram @ norm, atol


def _per_label_ptp(code, enc, states, delta) -> tuple:
    pi_rho = typical_projector(sum(p * s for p, s in zip(enc.pmf, states)), code.n, delta)
    projs = [
        conditional_typical_projector(states, code.codeword(a, m), delta, pmf=enc.pmf)
        for a in field_vectors(code.field.q, code.k)
        for m in code.messages()
    ]
    factors = [pi_rho.overlap(p) for p in projs]
    return (pi_rho, *_per_label_square_root(pi_rho, factors))


def _per_label_rx1(setup, delta) -> tuple:
    code = setup.sum_code
    n_x1 = setup.p_x1.size
    rho_bar = sum(setup.p_x1[x1] * setup.p_u[u] * m for (x1, u), m in setup.cond_states.items())
    rho_x1 = [
        sum(setup.p_u[u] * m for (x, u), m in setup.cond_states.items() if x == x1)
        for x1 in range(n_x1)
    ]
    pair_states = [setup.cond_states[(x1, u)] for x1 in range(n_x1) for u in range(2)]
    pair_pmf = np.concatenate([setup.p_x1[x1] * setup.p_u for x1 in range(n_x1)])
    pi_rho = typical_projector(rho_bar, code.n, delta)
    factors = []
    for x1_word in setup.codebook1:
        middle = conditional_typical_projector(rho_x1, x1_word, delta)
        for a in field_vectors(2, code.k):
            for w in code.messages():
                inner = conditional_typical_projector(
                    pair_states, x1_word * 2 + code.codeword(a, w), delta, pmf=pair_pmf
                )
                factors.append(pi_rho.overlap(middle) @ middle.overlap(inner))
    return (pi_rho, *_per_label_square_root(pi_rho, factors))


def _assert_factors_match(povm, factors, completion, atol) -> None:
    els = povm.elements
    assert len(els.factors) == len(factors)
    for got, want in zip(els.factors, factors):
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
    np.testing.assert_allclose(els.completion, completion, rtol=0, atol=atol)


@PROPERTY
@given(code=st.one_of(binary_codes(), binary_codes(field=F3)), s0=qubit_states(),
       s1=qubit_states(), s2=qubit_states(), real=st.booleans(), delta=deltas,
       seed=st.integers(0, 2**16))
@example(  # S has kappa = 2.3e5: S^{-1/2} amplifies rounding in S the most
    code=NestedCosetCode(F2, 4, 1, 2, [[0, 0, 0, 1]], [[0, 0, 1, 0], [0, 1, 0, 0]], [0] * 4),
    s0=np.array([[0.5207756232686981, 0.027700831024930747j],
                 [-0.027700831024930747j, 0.47922437673130197]]),
    s1=np.diag([0.08333333333333333, 0.9166666666666666]).astype(complex),
    s2=None, real=False, delta=0.25, seed=0,
)
@example(  # an open window: every typical-word label has rank D, an empty complement
    code=NestedCosetCode(F2, 3, 1, 1, [[1, 0, 1]], [[0, 1, 1]], [1, 0, 0]),
    s0=np.array([[0.7, 0.2j], [-0.2j, 0.3]]), s1=np.diag([0.4, 0.6]).astype(complex),
    s2=None, real=False, delta=50.0, seed=0,
)
def test_block_ptp_decoder_matches_per_label_loop(code, s0, s1, s2, real, delta, seed):
    # the factors are generated from S^{-1/2} by letter-Kronecker products,
    # the oracle multiplies S^{-1/2} by each A_i; a ternary code takes the
    # third letter s2
    q = code.field.q
    states = [s0, s1, s2][:q]
    if real:
        states = [s.real for s in states]
    enc = select_typical(code, np.full(q, 1.0 / q), 0.5, np.random.default_rng(seed))
    povm = build_ptp_povm(code, enc, states, delta)
    if real:
        assert all(b.dtype == np.float64 for b in povm.elements.factors)
    pi_rho, factors, completion, atol = _per_label_ptp(code, enc, states, delta)
    _assert_factors_match(povm, factors, completion, atol)
    success = 0.0
    for (_, m), b in zip(povm.labels, factors):
        rho = pi_rho.compress([states[int(v)] for v in enc.codeword_for(m)])
        success += float(np.vdot(b, rho @ b).real)
    want = 1.0 - success / len(code.messages())
    assert abs(ptp_block_error(povm, enc, states) - want) <= 1e-12


@PROPERTY
@given(code=binary_codes(), family=st.sampled_from([example1_channel, example2_channel]),
       tau=st.floats(0.05, 0.95), delta=deltas, seed=st.integers(0, 2**16))
@example(  # an open window: every typical-word label has rank D, an empty complement
    code=NestedCosetCode(F2, 3, 1, 1, [[1, 0, 1]], [[0, 1, 1]], [1, 0, 0]),
    family=example2_channel, tau=0.5, delta=50.0, seed=0,
)
def test_block_rx1_decoder_matches_per_label_loop(code, family, tau, delta, seed):
    rng = np.random.default_rng(seed)
    code3 = NestedCosetCode(F2, code.n, code.k, code.l, code.g_inner, code.g_outer,
                            rng.integers(0, 2, size=code.n))
    book1 = tuple(rng.integers(0, 2, size=code.n) for _ in range(2))
    setup = rx1_setup_from_channel(
        family(0.05, 0.1), binary_input_distribution(tau), book1, code, code3
    )
    povm = build_rx1_povm(setup, delta)
    pi_rho, factors, completion, atol = _per_label_rx1(setup, delta)
    _assert_factors_match(povm, factors, completion, atol)
    enc2 = select_typical(code, UNIFORM, 0.5, rng)
    enc3 = select_typical(code3, UNIFORM, 0.5, rng)
    by_label = dict(zip(povm.labels, factors))
    success = []
    for m1, x1_word in enumerate(book1):
        for m2 in code.messages():
            for m3 in code3.messages():
                u_word = (enc2.codeword_for(m2) + enc3.codeword_for(m3)) % 2
                a2 = enc2.chosen[tuple(int(x) for x in m2)]
                a3 = enc3.chosen[tuple(int(x) for x in m3)]
                a = tuple(int(x) for x in (a2 + a3) % 2)
                b = by_label[(m1, a, tuple(int(x) for x in (m2 + m3) % 2))]
                rho = pi_rho.compress(
                    [setup.cond_states[(int(x), int(u))] for x, u in zip(x1_word, u_word)]
                )
                success.append(float(np.vdot(b, rho @ b).real))
    got = rx1_success_probability(povm, setup, enc2, enc3)
    assert abs(got - np.mean(success)) <= 1e-12


@PROPERTY
@given(size=st.integers(1, 8), complex_entries=st.booleans(),
       skew=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1.0]), seed=st.integers(0, 2**16))
def test_norm_bound_is_never_below_the_operator_norm(size, complex_entries, skew, seed):
    rng = np.random.default_rng(seed)

    def draw():
        m = rng.normal(size=(size, size))
        return m + 1j * rng.normal(size=(size, size)) if complex_entries else m

    h = draw()
    k = draw()
    scale = 10.0 ** rng.uniform(-14, 0)
    residual = scale * (0.5 * (h + h.conj().T) + skew * 0.5 * (k - k.conj().T))
    exact = np.linalg.norm(residual, 2)
    # the bound and the SVD round differently; allow a few ulps of the norm
    assert _norm_bound(residual) >= exact * (1.0 - 1e-13)


@PROPERTY
@given(r=st.integers(1, 7), complex_entries=st.booleans(),
       blocks=st.lists(st.tuples(st.integers(0, 17), st.booleans()), max_size=12),
       seed=st.integers(0, 2**16))
def test_gram_sum_equals_per_label_sum(r, complex_entries, blocks, seed):
    """Widths up to 17 > 2r cross the flush point, zero widths add nothing,
    and added and subtracted blocks share the buffer."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        m = rng.normal(size=shape)
        return m + 1j * rng.normal(size=shape) if complex_entries else m

    start = draw((r, r))
    ms = [(draw((r, width)), negative) for width, negative in blocks]
    want = start.copy()
    for m, negative in ms:
        want += (-1.0 if negative else 1.0) * (m @ m.conj().T)
    got = start.copy()
    sums = _GramSum(got)
    for m, negative in ms:
        sums.add(m, negative)
    sums.close()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@PROPERTY
@given(size=st.integers(1, 6), complex_entries=st.booleans(),
       skew=st.sampled_from([0.0, 1e-3, 1.0]), rank_one=st.booleans(),
       anchor=st.sampled_from(["bound", "frobenius"]), factor=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**16))
@example(size=2, complex_entries=False, skew=0.0, rank_one=True, anchor="bound", factor=1.0, seed=0)
@example(size=3, complex_entries=True, skew=1.0, rank_one=True, anchor="frobenius", factor=1.3, seed=1)
def test_completeness_verdict_equals_the_norm_bound(size, complex_entries, skew, rank_one, anchor,
                                                     factor, seed):
    """The completeness check refuses exactly when ``_norm_bound`` of the
    residual is above 1e-8, though it computes the bound only when 1.5 times
    the residual's Frobenius norm is.  Residuals are scaled across both
    thresholds; a rank-one Hermitian part and an anti-Hermitian part of the
    same Frobenius norm (``skew`` = 1) bring the bound to sqrt(2) times the
    Frobenius norm, its largest ratio."""
    rng = np.random.default_rng(seed)

    def draw():
        m = rng.normal(size=(size, size))
        return m + 1j * rng.normal(size=(size, size)) if complex_entries else m

    h = draw()
    if rank_one:
        h = np.outer(h[:, 0], h[:, 0].conj())
    k = draw()
    herm, anti = 0.5 * (h + h.conj().T), 0.5 * (k - k.conj().T)
    shape = herm + skew * np.linalg.norm(herm) / max(np.linalg.norm(anti), 1e-300) * anti
    norm = _norm_bound(shape) if anchor == "bound" else 1.5 * np.linalg.norm(shape)
    completion = np.eye(size) + factor * 1e-8 / norm * shape
    frame = typical_projector(np.eye(size) / size, 1, 0.0)
    chain = (np.zeros((size, size)), frame.index, [([np.eye(size)], frame.index[:0])])
    bound = _norm_bound(completion - np.eye(size))  # the residual: the one factor is empty
    try:
        Povm((0, None), _FactoredElements(frame, [chain], completion))
    except ConsistencyError as err:
        assert bound > 1e-8 and f"residual {bound:.1e} above 1e-8" in str(err)
    else:
        assert bound <= 1e-8


def _completion_tolerance(gram: np.ndarray) -> float:
    """max(1e-12, 16 eps kappa), kappa over the eigenvalues of S above the
    support cutoff: the tolerance of the block tests."""
    kept = np.linalg.eigvalsh(gram)
    kept = kept[kept > _SUPPORT_CUTOFF]
    kappa = kept.max() / kept.min() if kept.size else 1.0
    return max(1e-12, 16 * np.finfo(float).eps * kappa)


@PROPERTY
@given(r=st.integers(1, 8), rank=st.integers(0, 10), repeats=st.integers(1, 3),
       weak=st.sampled_from([1.0, 1e-3, 1e-4]), complex_entries=st.booleans(),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16))
@example(r=4, rank=0, repeats=1, weak=1.0, complex_entries=False, scale=1.0, seed=0)  # S = 0
@example(r=3, rank=2, repeats=1, weak=1e-4, complex_entries=True, scale=1.0, seed=0)
def test_completion_equals_one_minus_nsn(r, rank, repeats, weak, complex_entries, scale, seed):
    """The completion block from ``_inverse_sqrt_on_support`` equals I - N S N
    within the block tests' tolerance.  S = sum of the columns' outer
    products, each column repeated (as repeated codewords repeat a label's
    term), the first scaled by ``weak``; with fewer distinct columns than r,
    S is rank-deficient.  Well conditioned (tolerance 1e-12), the block is
    the projector onto the kernel of S; else it is I - N S N itself."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(r, rank))
    if complex_entries:
        g = g + 1j * rng.normal(size=(r, rank))
    g[:, :1] *= weak
    gram = scale * np.tile(g, repeats) @ np.tile(g, repeats).conj().T
    norm, completion = _inverse_sqrt_on_support(gram)
    want = np.eye(r) - norm @ gram @ norm
    tolerance = _completion_tolerance(gram)
    np.testing.assert_allclose(completion, want, rtol=0, atol=tolerance)
    if tolerance > 1e-12:
        np.testing.assert_array_equal(completion, want)
        return
    assert completion.any() == (rank < r)  # exactly zero at full support: no product formed
    np.testing.assert_allclose(completion @ completion, completion, rtol=0, atol=1e-12)
    assert abs(np.trace(completion) - (r - min(r, rank))) <= 1e-12 * r
    np.testing.assert_allclose(gram @ completion, 0.0, rtol=0, atol=1e-12 * scale * (1 + rank) * r)


def test_ill_conditioned_decoder_keeps_the_product_completion():
    """A decoder whose S has kappa = 4e8 (a letter 6e-6 off diagonal): the
    kernel projector misses I - N S N by 7e-8, above the completeness
    check's 1e-8, so the block is I - N S N itself and the decoder builds."""
    code = NestedCosetCode(F2, 4, 1, 1, [[0, 0, 0, 0]], [[0, 0, 0, 0]], [0, 0, 1, 1])
    states = [np.diag([0.38095238, 0.61904762]).astype(complex),
              np.array([[0.53623188, -5.79710145e-06j], [5.79710145e-06j, 0.46376812]])]
    enc = select_typical(code, UNIFORM, 0.5, np.random.default_rng(0))
    seen = []

    def recorded(gram):
        seen.append((gram, *_inverse_sqrt_on_support(gram)))
        return seen[-1][1:]

    with mock.patch.object(povm_module, "_inverse_sqrt_on_support", recorded):
        povm = build_ptp_povm(code, enc, states, 0.0625)
    [(gram, norm, completion)] = seen
    assert _completion_tolerance(gram) > 1e-6
    np.testing.assert_array_equal(completion, np.eye(len(gram)) - norm @ gram @ norm)
    assert povm.elements.completion is completion
    _assert_valid(povm)


def test_rank_deficient_decoder_completion_is_the_kernel_projector():
    """A ptp decoder whose four labels name two codewords, each twice, on
    orthogonal letters: S has rank 2 in the rank-4 frame, and the completion
    block is the projector onto the two frame vectors no label covers,
    equal to I - N S N of the per-label loop."""
    code = NestedCosetCode(F2, 2, 1, 1, [[1, 1]], [[1, 1]], [0, 0])
    assert {tuple(code.codeword(a, m)) for a in ([0], [1]) for m in ([0], [1])} == {(0, 0), (1, 1)}
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    enc = select_typical(code, UNIFORM, 1.0, np.random.default_rng(0))
    povm = build_ptp_povm(code, enc, states, 1.0)
    completion = povm.elements.completion
    assert povm.elements.frame.rank == 4 and sorted(povm.elements.factors.ranks) == [1, 1, 1, 1]
    np.testing.assert_allclose(completion @ completion, completion, rtol=0, atol=1e-12)
    assert abs(np.trace(completion) - 2.0) <= 1e-12
    _, _, want, atol = _per_label_ptp(code, enc, states, 1.0)
    np.testing.assert_allclose(completion, want, rtol=0, atol=atol)
    _assert_valid(povm)


@PROPERTY
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 5), complex_entries=st.booleans(),
       width=st.sampled_from([2, 8, 64]), seed=st.integers(0, 2**16))
def test_kron_trace_equals_dense_trace(d, n, complex_entries, width, seed):
    """``_kron_trace`` equals np.trace(kron(mats) @ M) for any run width."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        m = rng.normal(size=shape)
        return m + 1j * rng.normal(size=shape) if complex_entries else m

    mats = [draw((d, d)) for _ in range(n)]
    z = draw((d**n, d**n))
    want = np.trace(_kron(mats) @ z)
    with mock.patch.object(povm_module, "_KRON_WIDTH", width):
        got = _kron_trace(mats, z)
    assert abs(got - want) <= 1e-12 * (1.0 + np.abs(z).sum() * max(np.abs(m).max() for m in mats) ** n)
