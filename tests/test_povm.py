import time
import tracemalloc
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetcq.povm as povm_module
from cosetcq.channels import (
    CqChannel,
    InputDistribution,
    binary_input_distribution,
    example1_channel,
    example2_channel,
    example2_mix,
)
from cosetcq.errors import MEMORY_BUDGET, BudgetExceededError, ConsistencyError, ModelViolationError
from cosetcq.field_codes import NestedCosetCode, PrimeField, field_vectors, select_typical
from cosetcq.linalg import DensityOperator, eig_hermitian, random_density
from cosetcq.povm import (
    Povm,
    Rx1Setup,
    TypicalProjector,
    _Factors,
    _GramSum,
    build_ptp_povm,
    build_rx1_povm,
    conditional_typical_projector,
    gentle_measurement_check,
    ptp_block_error,
    rx1_setup_from_channel,
    rx1_success_probability,
    typical_projector,
    verify_pinching,
)
from cosetcq.typicality import pair_sequence

F2 = PrimeField(2)
UNIFORM = np.array([0.5, 0.5])


def _factors(elements) -> list:
    """Every factor B_i of a decoder in label order, from one pass."""
    got = {i: b for i, _, b in elements.blocks(range(len(elements) - 1), shorter=False)}
    return [got[i] for i in range(len(got))]


def test_field_vectors_any_enumeration():
    # label sequences over any alphabet size, as the typical projectors use them
    vecs = field_vectors(4, 2)
    assert vecs.shape == (16, 2)
    np.testing.assert_array_equal(vecs[0], [0, 0])
    np.testing.assert_array_equal(vecs[5], [1, 1])
    np.testing.assert_array_equal(field_vectors(1, 3), [[0, 0, 0]])


def test_typical_projector_pure_state():
    proj = typical_projector(np.diag([1.0, 0.0]), 3, 0.4)
    assert proj.rank == 1
    want = np.zeros((8, 8))
    want[0, 0] = 1.0
    np.testing.assert_allclose(proj.matrix, want, atol=1e-12)


def test_typical_projector_maximally_mixed():
    # every label sequence has sample surprisal exactly log2(d)
    proj = typical_projector(np.eye(2) / 2, 4, 0.0)
    assert proj.rank == 16
    np.testing.assert_allclose(proj.matrix, np.eye(16), atol=1e-12)


def test_typical_projector_binomial_window():
    """At delta = 0.2 only the weight-one label sequences are kept.

    For diag(3/4, 1/4) at n = 4 the sample surprisal of a sequence with j
    heavy labels is ((4 - j) log2(4/3) + 2 j) / 4, which hits the entropy
    hb(1/4) exactly at j = 1 and misses the window everywhere else.
    """
    proj = typical_projector(np.diag([0.75, 0.25]), 4, 0.2)
    assert proj.rank == 4
    diag = np.real(np.diag(proj.matrix))
    kept = {i for i in range(16) if diag[i] > 0.5}
    assert kept == {1, 2, 4, 8}  # exactly one low-eigenvalue factor


def test_typical_projector_is_projector():
    rng = np.random.default_rng(6)
    rho = random_density(2, rng)
    proj = typical_projector(rho, 3, 0.3)
    np.testing.assert_allclose(proj.matrix @ proj.matrix, proj.matrix, atol=1e-10)
    np.testing.assert_allclose(proj.matrix, proj.matrix.conj().T, atol=1e-12)


def test_real_letter_bases_keep_ranges_and_elements_real():
    states = [example2_mix(0.8), example2_mix(0.2)]
    proj = conditional_typical_projector(states, [0, 1, 1, 0], 0.4)
    assert proj.dtype == np.float64 and proj.cols.dtype == np.float64
    for j, seq in enumerate(proj.seqs):
        want = reduce(np.kron, [b[:, s] for b, s in zip(proj.bases, seq)])
        assert np.array_equal(proj.cols[:, j], want)
    _, _, povm = _ptp_instance(states, 0.6)
    assert povm.elements.dtype == np.float64
    assert all(b.dtype == np.float64 for b in _factors(povm.elements))
    dense = list(povm.elements)
    assert all(el.dtype == np.float64 for el in dense)
    np.testing.assert_allclose(sum(dense), np.eye(povm.dim), atol=1e-12)
    # one complex basis makes the range complex
    phase = np.diag([1.0, 1j])
    rotated = phase @ example2_mix(0.8) @ phase.conj().T
    assert typical_projector(rotated, 2, 0.4).cols.dtype == complex


def test_typical_projector_budget():
    with pytest.raises(BudgetExceededError, match="budget"):
        typical_projector(np.eye(2) / 2, 13, 0.1)


def _single_state_window(rho, n, delta):
    """(bases, seqs) of the entropy window written for one state."""
    w, v = eig_hermitian(rho)
    spectrum = np.clip(w, 0.0, None)
    pos = spectrum > 0.0
    logs = np.full(spectrum.shape, np.inf)
    logs[pos] = -np.log2(spectrum[pos])
    seqs = field_vectors(spectrum.size, n)
    sample = logs[seqs].mean(axis=1)
    target = float(-(spectrum[pos] * np.log2(spectrum[pos])).sum())
    mask = np.isfinite(sample) & (np.abs(sample - target) <= delta + 1e-12)
    return (v,) * n, seqs[mask]


@st.composite
def window_cases(draw):
    """A state (random of rank 1..d for d = 2, 3, 4, or a fixed example) and n."""
    fixed = [
        np.eye(2) / 2,
        np.diag([0.75, 0.25]),
        np.diag([1.0, 0.0]),
        np.diag([0.7, 0.3]),
        np.diag([0.4, 0.6]),
        example2_mix(0.9),
        example2_mix(0.3),
    ]
    if draw(st.booleans()):
        rho = draw(st.sampled_from(fixed))
    else:
        d = draw(st.integers(2, 4))
        rank = draw(st.integers(1, d))
        size = d * rank
        parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * size, max_size=2 * size)))
        g = (parts[:size] + 1j * parts[size:]).reshape(d, rank)
        if not np.abs(g).max() > 1e-3:
            g[0, 0] = 1.0
        rho = g @ g.conj().T
        rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    d = rho.shape[0]
    n = draw(st.integers(1, {2: 10, 3: 7, 4: 6}[d]))
    return rho, n


@settings(max_examples=150, deadline=None)
@given(case=window_cases(), delta=st.floats(0.0, 1.0))
def test_conditional_projector_constant_word_matches_plain(case, delta):
    """The plain projector is the window along a constant word: same seqs and
    bases as the single-state formula, and as the conditional projector."""
    rho, n = case
    want_bases, want_seqs = _single_state_window(rho, n, delta)
    plain = typical_projector(rho, n, delta)
    other = np.eye(rho.shape[0]) / rho.shape[0]
    cond = conditional_typical_projector([other, rho], np.ones(n, dtype=int), delta)
    for proj in (plain, cond):
        assert np.array_equal(proj.seqs, want_seqs)
        assert len(proj.bases) == n
        assert all(np.array_equal(b, want_bases[0]) for b in proj.bases)


def test_conditional_projector_pmf_gate():
    states = [np.diag([0.8, 0.2]), np.diag([0.3, 0.7])]
    # the all-ones word is far from relative typical for a (0.9, 0.1) pmf
    proj = conditional_typical_projector(states, [1, 1, 1, 1], 0.2, pmf=[0.9, 0.1])
    np.testing.assert_allclose(proj.matrix, 0.0, atol=1e-15)
    # without the gate the same word gets a nonzero projector
    assert conditional_typical_projector(states, [1, 1, 1, 1], 0.2).rank > 0


def test_conditional_projector_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        conditional_typical_projector([np.eye(2) / 2, np.eye(3) / 3], [0, 1], 0.1)


def test_factored_povm_validation():
    frame = typical_projector(np.eye(2) / 2, 1, 0.0)
    rows = frame.index

    def elements(scale, completion):
        # one label whose factor is ``scale`` times the first range vector
        chain = (scale * np.eye(2), rows, [([np.eye(2)], np.array([0]))])
        return _Factors(frame, [chain], completion)

    good = Povm((0, None), elements(1.0, np.diag([0.0, 1.0])))
    assert good.dim == 2
    np.testing.assert_array_equal(_factors(good.elements)[0], [[1.0], [0.0]])
    np.testing.assert_allclose(good.element(0), frame.cols @ np.diag([1.0, 0.0]) @ frame.cols.T)
    np.testing.assert_allclose(good.elements[0] + good.elements[-1], np.eye(2), atol=1e-15)
    with pytest.raises(ConsistencyError, match="identity"):
        Povm((0, None), elements(1.0, np.eye(2)))
    # a factor of norm above one forces a negative completion block
    with pytest.raises(ConsistencyError, match="below"):
        Povm((0, None), elements(np.sqrt(1.5), np.diag([-0.5, 1.0])))
    with pytest.raises(ValueError, match="last"):
        Povm((None, 0), elements(1.0, np.diag([0.0, 1.0])))
    with pytest.raises(ValueError, match="equal length"):
        Povm((None,), elements(1.0, np.diag([0.0, 1.0])))


def _ptp_instance(states, delta, rng_seed=0):
    code = NestedCosetCode(F2, 2, 1, 1, [[1, 0]], [[0, 1]], [0, 0])
    enc = select_typical(code, UNIFORM, 1.0, np.random.default_rng(rng_seed))
    povm = build_ptp_povm(code, enc, states, delta)
    return code, enc, povm


def test_ptp_povm_orthogonal_states_decode_perfectly():
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    code, enc, povm = _ptp_instance(states, 1.0)
    assert len(povm.labels) == 5  # 2^(k+l) sandwich labels plus completion
    assert povm.labels[-1] is None
    assert ptp_block_error(povm, enc, states) == pytest.approx(0.0, abs=1e-10)


def test_ptp_povm_identical_states_guess_uniformly():
    # both letters map to the same state, so the decoder can do no better
    # than 1/|messages|
    states = [np.eye(2) / 2, np.eye(2) / 2]
    _, enc, povm = _ptp_instance(states, 1.0)
    assert ptp_block_error(povm, enc, states) == pytest.approx(0.5, abs=1e-10)


def test_ptp_povm_manual_sandwich_cross_check():
    """One element of a tiny build, recomputed from scratch."""
    rng = np.random.default_rng(12)
    states = [random_density(2, rng).matrix, random_density(2, rng).matrix]
    code = NestedCosetCode(F2, 2, 1, 1, [[1, 1]], [[0, 1]], [1, 0])
    enc = select_typical(code, UNIFORM, 1.0, np.random.default_rng(1))
    delta = 0.8
    povm = build_ptp_povm(code, enc, states, delta)

    from cosetcq.povm import _inverse_sqrt_on_support

    rho_bar = 0.5 * states[0] + 0.5 * states[1]
    pi_rho = typical_projector(rho_bar, 2, delta).matrix
    gammas = {}
    for a in range(2):
        for m in range(2):
            word = code.codeword([a], [m])
            cond = conditional_typical_projector(
                states, word, delta, pmf=UNIFORM
            ).matrix
            gammas[((a,), (m,))] = pi_rho @ cond @ pi_rho
    norm, _ = _inverse_sqrt_on_support(sum(gammas.values()))
    for label, gamma in gammas.items():
        np.testing.assert_allclose(
            povm.element(label), norm @ gamma @ norm, atol=1e-10
        )


def test_ptp_povm_label_budget(monkeypatch):
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    code = NestedCosetCode(F2, 2, 1, 1, [[1, 0]], [[0, 1]], [0, 0])
    enc = select_typical(code, UNIFORM, 1.0, np.random.default_rng(0))
    monkeypatch.setattr(povm_module, "LABEL_BUDGET", 3)
    with pytest.raises(BudgetExceededError, match="labels"):
        build_ptp_povm(code, enc, states, 0.5)


def test_ptp_povm_memory_budget_checked_before_allocation():
    """n = 12 with 32 labels passes the dimension and label caps but not memory.

    The request is refused from the projector ranks alone, before any
    factor or D x D array exists, so it fails fast.
    """
    rng = np.random.default_rng(3)
    code = NestedCosetCode(
        F2, 12, 2, 3,
        rng.integers(0, 2, size=(2, 12)),
        rng.integers(0, 2, size=(3, 12)),
        rng.integers(0, 2, size=12),
    )
    enc = select_typical(code, UNIFORM, 0.5, rng)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"budget {MEMORY_BUDGET}"):
        build_ptp_povm(code, enc, [example2_mix(0.9), example2_mix(0.1)], 0.3)
    assert time.perf_counter() - start < 1.0


def test_ptp_povm_memory_count_admits_n11_with_64_labels():
    """The benchmark's ptp shape at n = 11 (k = 2, l = 4, example-2
    mixtures at delta = 0.3) fits the memory cap, though one r x (sum r_i)
    array of all its factors alone would not.  Counted from the projector
    ranks only; no decoder is built."""
    rng = np.random.default_rng(11)
    code = NestedCosetCode(F2, 11, 2, 4, rng.integers(0, 2, (2, 11)), rng.integers(0, 2, (4, 11)),
                           rng.integers(0, 2, 11))
    enc = select_typical(code, UNIFORM, 0.5, rng)
    states = [example2_mix(0.9), example2_mix(0.1)]
    frame = typical_projector(0.5 * (states[0] + states[1]), 11, 0.3)
    ranks = [
        conditional_typical_projector(states, code.codeword(a, m), 0.3, pmf=enc.pmf).rank
        for a in field_vectors(2, 2)
        for m in code.messages()
    ]
    assert len(ranks) == 64 and frame.dtype == np.float64
    need = povm_module._check_memory(frame, ranks, frame.dtype)
    assert need <= MEMORY_BUDGET < 8 * frame.rank * sum(ranks)


def _ptp_n8_code() -> tuple:
    rng = np.random.default_rng(8)
    code = NestedCosetCode(F2, 8, 2, 3, rng.integers(0, 2, (2, 8)), rng.integers(0, 2, (3, 8)),
                           rng.integers(0, 2, 8))
    return code, select_typical(code, UNIFORM, 0.5, rng)


def _ptp_n8_build(states):
    code, enc = _ptp_n8_code()
    return lambda: build_ptp_povm(code, enc, states, 0.3)


def _ptp_n8_exact(states):
    """(build, exact): the ptp n = 8 decoder and its exact block error."""
    code, enc = _ptp_n8_code()
    return lambda: build_ptp_povm(code, enc, states, 0.3), lambda povm: ptp_block_error(povm, enc, states)


def _rx1_n8_setup() -> tuple:
    rng = np.random.default_rng(9)
    code2 = NestedCosetCode(F2, 8, 1, 2, rng.integers(0, 2, (1, 8)), rng.integers(0, 2, (2, 8)),
                            rng.integers(0, 2, 8))
    code3 = NestedCosetCode(F2, 8, 1, 2, code2.g_inner, code2.g_outer, rng.integers(0, 2, 8))
    book1 = tuple(rng.permutation(np.repeat([1, 0], 4)) for _ in range(4))
    setup = rx1_setup_from_channel(
        example2_channel(0.01, 0.1), binary_input_distribution(0.5), book1, code2, code3
    )
    return setup, select_typical(code2, UNIFORM, 0.5, rng), select_typical(code3, UNIFORM, 0.5, rng)


def _rx1_n8_build():
    setup, _, _ = _rx1_n8_setup()
    return lambda: build_rx1_povm(setup, 0.5)


def _rx1_n8_exact():
    """(build, exact): the rx1 n = 8 decoder and its exact success probability."""
    setup, enc2, enc3 = _rx1_n8_setup()
    return lambda: build_rx1_povm(setup, 0.5), lambda povm: rx1_success_probability(povm, setup, enc2, enc3)


@pytest.mark.parametrize("case", ["ptp_real", "ptp_complex", "rx1"])
def test_decoder_build_peak_within_memory_count(monkeypatch, case):
    """From the memory check to the validated POVM and then through its
    exact error (ptp) or success probability (rx1), the traced peak stays
    within the bytes ``_check_memory`` counted, and below the bytes of one
    r x (sum_i r_i) array of all the factors: each factor is generated when
    it is read, and a complex factor's conjugate is one label wide."""
    phase = np.diag([1.0, np.exp(0.7j)])  # same spectra, complex eigenvectors
    build, exact = {
        "ptp_real": lambda: _ptp_n8_exact([example2_mix(0.9), example2_mix(0.1)]),
        "ptp_complex": lambda: _ptp_n8_exact(
            [phase @ example2_mix(p) @ phase.conj().T for p in (0.9, 0.1)]
        ),
        "rx1": _rx1_n8_exact,
    }[case]()
    seen = {}
    check = povm_module._check_memory

    def counted(*args, **kwargs):
        seen["count"] = check(*args, **kwargs)
        seen["base"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return seen["count"]

    monkeypatch.setattr(povm_module, "_check_memory", counted)
    tracemalloc.start()
    try:
        povm = build()
        assert 0.0 < exact(povm) < 1.0
        peak = tracemalloc.get_traced_memory()[1] - seen["base"]
    finally:
        tracemalloc.stop()
    els = povm.elements
    assert els.dtype == (np.complex128 if case == "ptp_complex" else np.float64)
    r = els.frame.rank
    assert sum(els.ranks) > 10 * r  # all factors together dwarf every r x r array
    assert peak <= seen["count"]
    assert peak < r * sum(els.ranks) * els.dtype.itemsize


def _recorded_passes(monkeypatch) -> list:
    """Record every pass of ``_Factors.blocks``: one dict per pass, listing
    the heads it made (chain and first-run letters) and (label, width) of
    every block it yielded."""
    passes = []
    blocks, head = _Factors.blocks, _Factors._head

    def recorded_blocks(self, labels, shorter=True):
        passes.append({"heads": [], "reads": []})
        for i, flipped, m in blocks(self, labels, shorter):
            passes[-1]["reads"].append((i, m.shape[1]))
            yield i, flipped, m

    def recorded_head(self, chain, letters):
        passes[-1]["heads"].append((chain, tuple(m.tobytes() for m in letters)))
        return head(self, chain, letters)

    monkeypatch.setattr(_Factors, "blocks", recorded_blocks)
    monkeypatch.setattr(_Factors, "_head", recorded_head)
    return passes


@pytest.mark.parametrize("case", ["ptp", "rx1"])
def test_each_pass_makes_one_head_per_prefix(monkeypatch, case):
    """The completeness pass of a build and the exact-error pass each compute
    the first Kronecker run at most once per distinct prefix (the letters of
    the first three positions) of a chain's nonzero labels.  The ptp decoder
    has fewer prefixes than nonzero labels: labels that share a prefix share
    the run's output."""
    build, exact = {
        "ptp": lambda: _ptp_n8_exact([example2_mix(0.9), example2_mix(0.1)]),
        "rx1": _rx1_n8_exact,
    }[case]()
    passes = _recorded_passes(monkeypatch)
    povm = build()
    in_build = [h for p in passes for h in p["heads"]]
    passes[:] = []
    exact(povm)
    made = [h for p in passes for h in p["heads"]]
    els = povm.elements
    assert len(passes) == len(els.chains)  # one pass per chain in each
    prefixes = {
        (c, tuple(m.tobytes() for m in els.chains[c][2][j][0][:3]))
        for i, (c, j) in enumerate(els.where)
        if els.ranks[i]
    }
    assert case == "rx1" or len(prefixes) < sum(r > 0 for r in els.ranks)
    for heads in (in_build, made):
        assert 0 < len(heads) == len(set(heads)) <= len(prefixes)


@pytest.mark.parametrize("case", ["ptp", "rx1"])
def test_no_head_outlives_its_pass(monkeypatch, case):
    """The head of a pass dies with the pass: after the build's pass, a full
    pass, a pass closed or left by ``break`` after its first block, and a
    dense element read; and none is alive when ``_success`` scatters a
    chain's full block into its D x D Z, so only one head is ever alive, as
    ``_check_memory`` counts."""
    build, exact = {
        "ptp": lambda: _ptp_n8_exact([example2_mix(0.9), example2_mix(0.1)]),
        "rx1": _rx1_n8_exact,
    }[case]()
    heads, at_z = [], []
    head, kron_trace = _Factors._head, povm_module._kron_trace

    def recorded_head(self, chain, letters):
        out = head(self, chain, letters)
        heads.append(weakref.ref(out if out.base is None else out.base))
        return out

    def alive() -> int:
        return sum(ref() is not None for ref in heads)

    def recorded_trace(mats, z):
        at_z.append(alive())
        return kron_trace(mats, z)

    monkeypatch.setattr(_Factors, "_head", recorded_head)
    monkeypatch.setattr(povm_module, "_kron_trace", recorded_trace)
    povm = build()
    els = povm.elements
    assert heads and alive() == 0
    read = [i for i, rank in enumerate(els.ranks) if 0 < rank < povm.dim]
    assert len(list(els.blocks(read))) == len(read) and alive() == 0
    gen = els.blocks(read)
    next(gen)
    assert alive() == 1
    gen.close()
    assert alive() == 0
    for _ in els.blocks(read):
        assert alive() == 1
        break
    assert alive() == 0
    made = len(heads)
    assert els[read[-1]].shape == (povm.dim, povm.dim)
    assert len(heads) == made + 1 and alive() == 0
    exact(povm)
    assert alive() == 0
    assert len(at_z) > (case == "rx1") and set(at_z) == {0}


@pytest.mark.parametrize("case", ["ptp", "rx1"])
def test_build_decomposes_each_letter_state_once(monkeypatch, case):
    """A build calls ``eig_hermitian`` once for the frame's average state and
    once per distinct letter state that a window uses: two letters for ptp,
    and for rx1 sender 1's two conditional states plus the pair letters."""
    build = {
        "ptp": _ptp_n8_build([example2_mix(0.9), example2_mix(0.1)]),
        "rx1": _rx1_n8_build(),
    }[case]
    calls = []

    def counted(mat, *args, **kwargs):
        calls.append(np.asarray(mat).tobytes())
        return eig_hermitian(mat, *args, **kwargs)

    monkeypatch.setattr(povm_module, "eig_hermitian", counted)
    povm = build()
    assert len(calls) == len(set(calls))
    assert len(calls) == (3 if case == "ptp" else 1 + 2 + 4)
    assert len(povm.labels) == (33 if case == "ptp" else 4 * 2 * 4 + 1)


def test_label_blocks_are_read_from_the_shorter_side(monkeypatch):
    """Every label block that the Gram sum, the completeness residual and
    the traces multiply has at most min(r_i, D - r_i) columns: on this
    decoder most inner ranges hold more than half of the D rows."""
    states = [example2_mix(0.9), example2_mix(0.1)]
    code, enc = _ptp_n8_code()
    gram = []
    product_block = povm_module._product_block

    def recorded_block(letters, rows, cols):
        gram.append(len(cols))  # the columns of the block A_i (or Abar_i)
        return product_block(letters, rows, cols)

    passes = _recorded_passes(monkeypatch)
    monkeypatch.setattr(povm_module, "_product_block", recorded_block)
    povm = build_ptp_povm(code, enc, states, 0.3)
    residual_reads = [read for p in passes for read in p["reads"]]
    ptp_block_error(povm, enc, states)
    reads = [read for p in passes for read in p["reads"]]
    dim, ranks = povm.dim, povm.elements.ranks
    shorter = [min(r, dim - r) for r in ranks]
    assert sum(2 * r > dim for r in ranks) > len(ranks) // 2
    assert gram == [w for w in shorter if w]
    assert sorted(i for i, _ in residual_reads) == list(range(len(ranks)))
    assert len(reads) > len(residual_reads)
    assert all(width <= shorter[index] for index, width in reads)


def test_label_blocks_are_summed_in_wide_products(monkeypatch):
    """The Gram sum and the completeness residual each empty their column
    buffer into the r x r target at most ceil(sum_i min(r_i, D - r_i) / r) + 1
    times.  On this decoder every nonzero block is subtracted, so each flush
    is one product: a handful of products, not one per label."""
    counts = []
    init, flush = _GramSum.__init__, _GramSum.flush

    def recorded_init(self, target):
        init(self, target)
        counts.append({"flushes": 0, "products": 0})
        self.count = counts[-1]

    def recorded_flush(self):
        lo, hi = self.ends
        self.count["flushes"] += 1
        self.count["products"] += (lo > 0) + (hi < self.target.shape[0])
        flush(self)

    monkeypatch.setattr(_GramSum, "__init__", recorded_init)
    monkeypatch.setattr(_GramSum, "flush", recorded_flush)
    povm = _ptp_n8_build([example2_mix(0.9), example2_mix(0.1)])()
    dim, r = povm.dim, povm.elements.frame.rank
    widths = [min(rank, dim - rank) for rank in povm.elements.ranks]
    bound = -(-sum(widths) // r) + 1
    assert len(counts) == 2  # the Gram pass, then the residual pass
    assert sum(w > 0 for w in widths) > 3 * bound
    for count in counts:
        assert 0 < count["products"] <= count["flushes"] <= bound


def test_valid_ptp_build_settles_both_checks_without_eigvalsh(monkeypatch):
    """A valid decoder passes the completeness check on the Frobenius norm of
    its residual and the completion check on a Cholesky factor: no
    ``eigvalsh`` runs (S^{-1/2} is one ``eigh``)."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    povm = _ptp_n8_build([example2_mix(0.9), example2_mix(0.1)])()
    assert len(povm.labels) == 33 and calls == []


def _completed(completion: np.ndarray) -> _Factors:
    """Elements of one label whose factor B has B B^dagger = I - completion."""
    frame = typical_projector(np.eye(len(completion)) / len(completion), 1, 0.0)
    w, v = np.linalg.eigh(np.eye(len(completion)) - completion)
    left = (v * np.sqrt(np.clip(w, 0.0, None))).T  # left^dagger . left = I - completion
    chain = (left, frame.index, [([np.eye(len(completion))], frame.index)])
    return _Factors(frame, [chain], completion)


@pytest.mark.parametrize("least, refused", [(-2e-8, True), (-5e-9, False), (-1e-13, False)])
def test_completion_positivity_verdict_at_the_tolerance(least, refused):
    """A completion block with an eigenvalue below -1e-8 is refused and the
    message names it; one at -5e-9 passes, as with ``eigvalsh`` alone."""
    rotation = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    completion = rotation @ np.diag([least, 0.3, 1.0]) @ rotation.T
    completion = 0.5 * (completion + completion.T)
    if refused:
        with pytest.raises(ConsistencyError, match=f"element None has eigenvalue {least:.3e} below -1e-8"):
            Povm((0, None), _completed(completion))
    else:
        assert Povm((0, None), _completed(completion)).dim == 3


@pytest.mark.parametrize("case", ["ptp", "rx1"])
def test_full_support_build_makes_no_cholesky_call(monkeypatch, case):
    """When S has full support the completion block is exactly zero, every
    eigenvalue 0: the build settles the positivity check without a
    ``cholesky`` call (and without ``eigvalsh``)."""
    build = _ptp_n8_build([example2_mix(0.9), example2_mix(0.1)]) if case == "ptp" else _rx1_n8_build()
    calls = []
    cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh

    def counted(name, fn):
        return lambda a, *args, **kwargs: calls.append(name) or fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", cholesky))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
    povm = build()
    assert povm.elements.completion.shape[0] == povm.elements.frame.rank > 0
    assert not povm.elements.completion.any()
    assert calls == []


def test_projector_index_is_computed_once():
    """``TypicalProjector.index`` is made once and kept, like ``cols``."""
    proj = conditional_typical_projector([example2_mix(0.9), example2_mix(0.1)], [0, 1, 1, 0], 0.3)
    d = proj.bases[0].shape[0]
    assert proj.index is proj.index
    np.testing.assert_array_equal(proj.index, proj.seqs @ d ** np.arange(proj.n - 1, -1, -1))


def test_rx1_decoder_on_nearly_clean_parity_channel():
    """Exact success probability against the independent closed form.

    With commuting outputs and every projector window wide open the decoder
    reduces to exact parity matching, so only a zero-flip noise draw at
    receiver 1 decodes; that has probability (1 - delta1)^n.
    """
    delta1 = 0.01
    chan = example1_channel(delta1, 0.01)
    dist = binary_input_distribution(0.5)
    book1 = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    code2 = NestedCosetCode(F2, 4, 1, 1, [[0, 1, 0, 0]], [[1, 0, 1, 1]], [1, 1, 1, 1])
    code3 = NestedCosetCode(F2, 4, 1, 1, [[0, 1, 0, 0]], [[1, 0, 1, 1]], [1, 0, 0, 1])
    setup = rx1_setup_from_channel(chan, dist, book1, code2, code3)
    enc2 = select_typical(code2, UNIFORM, 0.5, np.random.default_rng(7))
    enc3 = select_typical(code3, UNIFORM, 0.5, np.random.default_rng(8))
    povm = build_rx1_povm(setup, 0.5)
    assert povm.dim == 16
    assert povm.labels[-1] is None
    success = rx1_success_probability(povm, setup, enc2, enc3)
    assert success == pytest.approx((1.0 - delta1) ** 4, abs=1e-9)


def _parity_setup():
    code2 = NestedCosetCode(F2, 4, 1, 1, [[0, 1, 0, 0]], [[1, 0, 1, 1]], [1, 1, 1, 1])
    code3 = NestedCosetCode(F2, 4, 1, 1, [[0, 1, 0, 0]], [[1, 0, 1, 1]], [1, 0, 0, 1])
    book1 = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    setup = rx1_setup_from_channel(
        example1_channel(0.01, 0.01), binary_input_distribution(0.5), book1, code2, code3
    )
    return setup, code2, code3


def test_rx1_povm_label_budget_checked_before_projectors(monkeypatch):
    setup, _, _ = _parity_setup()  # 2 sender-1 words x 2^(1 + 1) sum labels
    assert len(build_rx1_povm(setup, 0.5).labels) == 8 + 1
    built = []

    def record(*args, **kwargs):
        built.append(args)

    monkeypatch.setattr(povm_module, "typical_projector", record)
    monkeypatch.setattr(povm_module, "conditional_typical_projector", record)
    monkeypatch.setattr(povm_module, "LABEL_BUDGET", 7)
    with pytest.raises(BudgetExceededError, match="8 POVM labels exceed budget 7"):
        build_rx1_povm(setup, 0.5)
    assert built == []


def _reference_rx1_success(povm, setup, enc2, enc3) -> float:
    """Each distinct (label, received word) pair traced once and weighted by its
    count, in the order the message triples first reach it."""
    hits: dict = {}
    for m1, x1_word in enumerate(setup.codebook1):
        for m2 in enc2.code.messages():
            for m3 in enc3.code.messages():
                u_word = (enc2.codeword_for(m2) + enc3.codeword_for(m3)) % 2
                a = enc2.chosen[tuple(int(x) for x in m2)] + enc3.chosen[tuple(int(x) for x in m3)]
                label = (m1, tuple(int(x) for x in a % 2), tuple(int(x) for x in (m2 + m3) % 2))
                key = (label, tuple(int(u) for u in u_word))
                hits[key] = hits.get(key, 0) + 1
    success, factors = 0.0, _factors(povm.elements)
    for (label, u_word), count in hits.items():
        x1_word = setup.codebook1[label[0]]
        rho = povm.elements.frame.compress(
            [setup.cond_states[(int(x1), u)] for x1, u in zip(x1_word, u_word)]
        )
        b = factors[povm.labels.index(label)]
        success += count * float(np.vdot(b, rho @ b).real)
    return success / sum(hits.values())


def test_rx1_success_probability_matches_reference_loop():
    for tau in (0.3, 0.5):
        rng = np.random.default_rng(5)
        code2 = NestedCosetCode(F2, 5, 1, 2, rng.integers(0, 2, (1, 5)),
                                rng.integers(0, 2, (2, 5)), rng.integers(0, 2, 5))
        code3 = NestedCosetCode(F2, 5, 1, 2, code2.g_inner, code2.g_outer,
                                rng.integers(0, 2, 5))
        book1 = tuple(rng.integers(0, 2, 5) for _ in range(3))
        setup = rx1_setup_from_channel(
            example2_channel(0.05, 0.1), binary_input_distribution(tau), book1, code2, code3
        )
        enc2 = select_typical(code2, UNIFORM, 0.5, rng)
        enc3 = select_typical(code3, UNIFORM, 0.5, rng)
        povm = build_rx1_povm(setup, 0.6)
        got = rx1_success_probability(povm, setup, enc2, enc3)
        assert 0.0 < got <= 1.0
        assert abs(got - _reference_rx1_success(povm, setup, enc2, enc3)) <= 1e-12


@pytest.mark.parametrize(
    "dist",
    [
        binary_input_distribution(0.0),
        binary_input_distribution(1.0),
        # v2 = v3 = 0 with x2, x3 uniform: the interference sum is never 1
        InputDistribution(2, np.array([0.5, 0.5]), np.array([[0.5, 0.5], [0.0, 0.0]]),
                          np.array([[0.5, 0.5], [0.0, 0.0]])),
    ],
    ids=["tau0", "tau1", "sum_never_1"],
)
def test_rx1_decoder_with_zero_probability_letters(dist):
    """A sender-1 or sum letter of probability 0 leaves its (x1, u) pairs out
    of ``cond_states``; the decoder reads them as zero states, and every label
    or received word that uses one adds exactly 0."""
    rng = np.random.default_rng(3)
    code2 = NestedCosetCode(F2, 4, 1, 1, [[1, 0, 1, 0]], [[0, 1, 1, 1]], [0, 0, 0, 0])
    code3 = NestedCosetCode(F2, 4, 1, 1, code2.g_inner, code2.g_outer, [0, 0, 0, 0])
    book1 = ([0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0])
    setup = rx1_setup_from_channel(example2_channel(0.05, 0.1), dist, book1, code2, code3)
    assert len(setup.cond_states) == 2
    povm = build_rx1_povm(setup, 0.6)
    enc2 = select_typical(code2, UNIFORM, 0.5, rng)
    enc3 = select_typical(code3, UNIFORM, 0.5, rng)
    got = rx1_success_probability(povm, setup, enc2, enc3)
    assert got > 0.0
    # the reference reads every pair it meets, so it gets the absent ones as zeros
    zero = np.zeros_like(next(iter(setup.cond_states.values())))
    full = {(x1, u): setup.cond_states.get((x1, u), zero) for x1 in range(2) for u in range(2)}
    padded = Rx1Setup(full, setup.p_x1, setup.p_u, setup.codebook1, setup.sum_code)
    assert abs(got - _reference_rx1_success(povm, padded, enc2, enc3)) <= 1e-12


@pytest.mark.parametrize("bad", [[0, 2, 0, 0], [0, 1, 0], [0, -1, 0, 0]],
                         ids=["letter_2", "length_3", "letter_minus_1"])
def test_rx1_setup_rejects_malformed_sender1_words(bad):
    code = NestedCosetCode(F2, 4, 1, 1, [[1, 0, 1, 0]], [[0, 1, 1, 1]], [0, 0, 0, 0])
    with pytest.raises(ValueError, match="codebook1 word 1 must have 4 letters in range"):
        rx1_setup_from_channel(
            example2_channel(0.05, 0.1), binary_input_distribution(0.5),
            ([0, 0, 0, 0], bad), code, code,
        )


def test_rx1_setup_rejects_sum_insufficient_channel():
    cases = [
        # receiver 1 sees x2 directly, which the auxiliary sum cannot express
        (lambda x1, x2, x3: x2, r"x1=0, \(v2, v3\)=\(0, 0\)"),
        # x2 shows only when x1 = 1 and x2 != x3: every pair with sum 0 passes
        (lambda x1, x2, x3: x2 if x1 == 1 and x2 != x3 else 0, r"x1=1, \(v2, v3\)=\(0, 1\)"),
    ]
    flip = [np.diag([0.9, 0.1]), np.diag([0.1, 0.9])]
    code = NestedCosetCode(F2, 2, 1, 1, [[1, 0]], [[0, 1]], [0, 0])
    for sees_x2, first in cases:
        states = {}
        for x1 in range(2):
            for x2 in range(2):
                for x3 in range(2):
                    y1 = flip[sees_x2(x1, x2, x3)]
                    states[(x1, x2, x3)] = DensityOperator(np.kron(np.kron(y1, flip[x2]), flip[x3]))
        chan = CqChannel((2, 2, 2), (2, 2, 2), states, (np.zeros(2),) * 3)
        with pytest.raises(ModelViolationError, match=f"auxiliary sum at {first}"):
            rx1_setup_from_channel(
                chan, binary_input_distribution(0.5), (np.zeros(2, dtype=int),), code, code
            )


def _classical_pinching_oracle(p_ab, diag_states, n, delta):
    """Enumerate the sandwich trace over computational basis strings.

    Valid only for diagonal letter states, where all three operators in
    tr(Pi_rho Pi_a Pi_rho rho_b) commute and reduce to indicator sums.
    """
    p_ab = np.asarray(p_ab, dtype=float)
    p_a = p_ab.sum(axis=1)
    cond = [p_ab[a] / p_a[a] @ np.stack(diag_states) for a in range(p_ab.shape[0])]
    rho_bar = p_a @ np.stack(cond)
    a_seq, b_seq = pair_sequence(p_ab, n, delta / 4.0)

    def entropy(p):
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    s_bar = entropy(rho_bar)
    s_cond = np.mean([entropy(np.asarray(cond[int(a)])) for a in a_seq])
    total = 0.0
    for bits in range(2**n):
        x = [(bits >> t) & 1 for t in range(n)]
        if any(rho_bar[xt] <= 0 for xt in x):
            continue
        samp_bar = -np.mean([np.log2(rho_bar[xt]) for xt in x])
        if abs(samp_bar - s_bar) > delta + 1e-12:
            continue
        probs = [cond[int(a)][xt] for a, xt in zip(a_seq, x)]
        if any(p <= 0 for p in probs):
            continue
        if abs(-np.mean(np.log2(probs)) - s_cond) > delta + 1e-12:
            continue
        total += float(np.prod([diag_states[int(b)][xt] for b, xt in zip(b_seq, x)]))
    return total


def test_verify_pinching_against_classical_enumeration():
    p_ab = np.diag([0.5, 0.5])
    diag_states = [np.array([0.7, 0.3]), np.array([0.4, 0.6])]
    states = [np.diag(d) for d in diag_states]
    rows = verify_pinching(p_ab, states, [4], 0.2)
    want = _classical_pinching_oracle(p_ab, diag_states, 4, 0.2)
    assert rows[0].trace == pytest.approx(want, abs=1e-10)
    assert rows[0].deficiency == pytest.approx(1.0 - want, abs=1e-10)
    assert rows[0].n == 4


def test_verify_pinching_decreasing_deficiency():
    rows = verify_pinching(
        np.diag([0.5, 0.5]), [example2_mix(0.7), example2_mix(0.3)], [2, 4, 6], 0.2
    )
    defs = [r.deficiency for r in rows]
    assert defs[0] > defs[1] > defs[2]
    for r in rows:
        assert 0.0 <= r.trace <= 1.0 + 1e-12


def test_verify_pinching_validation():
    with pytest.raises(ValueError, match="joint"):
        verify_pinching(np.array([0.5, 0.5]), [np.eye(2) / 2], [2], 0.1)
    with pytest.raises(ValueError, match="letter state"):
        verify_pinching(np.diag([0.5, 0.5]), [np.eye(2) / 2], [2], 0.1)


@pytest.mark.parametrize("family, delta", [("classical", 0.1), ("example2", 0.2)])
@pytest.mark.parametrize("n", [6, 8, 10])
def test_pinching_peak_within_memory_count(monkeypatch, family, delta, n):
    """From the sweep's own memory check through the trace, the traced peak
    stays within the bytes it counted from the two ranks; the sweep never
    runs the decoder's count."""
    from cosetcq.cli import _pinching_instance

    seen = {}
    check = povm_module.check_memory

    def counted(need, what):
        seen["count"], seen["what"] = check(need, what), what
        seen["base"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return need

    def decoder_count(*args, **kwargs):
        raise AssertionError("the pinching sweep ran the decoder's memory count")

    monkeypatch.setattr(povm_module, "check_memory", counted)
    monkeypatch.setattr(povm_module, "_check_memory", decoder_count)
    p_ab, states = _pinching_instance(family, 0.3)
    tracemalloc.start()
    try:
        [row] = verify_pinching(p_ab, states, [n], delta)
        peak = tracemalloc.get_traced_memory()[1] - seen["base"]
    finally:
        tracemalloc.stop()
    assert seen["what"] == f"pinching overlap at n = {n}"
    assert 0.0 < row.trace <= 1.0
    assert peak <= seen["count"]


def test_refused_pinching_sweep_names_its_stage(monkeypatch):
    """Above the memory cap the sweep is refused before its arrays exist,
    and the error names the sweep's stage, not the decoder's factors."""
    monkeypatch.setattr("cosetcq.errors.MEMORY_BUDGET", 5 * 10**6)
    states = [example2_mix(0.7), example2_mix(0.3)]
    with pytest.raises(BudgetExceededError, match="^pinching overlap at n = 10 need "):
        verify_pinching(np.diag([0.5, 0.5]), states, [8, 10], 0.2)


def test_gentle_measurement_check():
    eps, disturbance, ok = gentle_measurement_check(
        np.diag([0.9, 0.1]), np.diag([1.0, 0.0])
    )
    assert eps == pytest.approx(0.1, abs=1e-12)
    assert disturbance == pytest.approx(0.1, abs=1e-12)
    assert ok
    # a typical projector on a product state disturbs it gently
    rho = np.diag([0.75, 0.25])
    proj = typical_projector(rho, 6, 0.3)
    big = np.diag([0.75, 0.25])
    for _ in range(5):
        big = np.kron(big, rho)
    eps, disturbance, ok = gentle_measurement_check(big, proj.matrix)
    assert ok
    assert disturbance <= 2.0 * np.sqrt(eps) + 1e-6
    # the projector object itself is accepted in place of its matrix
    assert gentle_measurement_check(big, proj) == (eps, disturbance, ok)


def test_inverse_sqrt_real_path_matches_complex_path():
    """A real Gram matrix goes through a real eigh: same result within 1e-12."""
    from cosetcq.povm import _inverse_sqrt_on_support

    rng = np.random.default_rng(4)
    for r, rank in ((6, 6), (9, 4), (40, 23)):
        g = rng.normal(size=(r, rank)) / np.sqrt(rank)
        gram = g @ g.T
        got, _ = _inverse_sqrt_on_support(gram)
        assert got.dtype == np.float64
        want, _ = _inverse_sqrt_on_support(gram.astype(complex))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    skew = np.eye(3)
    skew[0, 1] = 2e-10
    with pytest.raises(ValueError, match="Hermitian"):
        _inverse_sqrt_on_support(skew)


def _reference_ptp_block_error(povm, encoder, states) -> float:
    """Every message's compressed state kept in a dict, traces added in label order."""
    mats = [np.asarray(getattr(s, "matrix", s), dtype=complex) for s in states]
    els = povm.elements
    received: dict = {}
    success = 0.0
    for (_, m), b in zip(povm.labels, _factors(els)):
        if not b.shape[1]:
            continue
        if m not in received:
            word = encoder.codeword_for(m)
            received[m] = els.frame.compress([mats[int(v)] for v in word])
        success += float(np.vdot(b, received[m] @ b).real)
    return 1.0 - success / len(encoder.code.messages())


def _ptp_n6_value() -> tuple:
    """(value, reference): the exact block error of a random-state n = 6 decoder
    and ``_reference_ptp_block_error``, each a callable of no argument."""
    rng = np.random.default_rng(21)
    states = [random_density(2, rng).matrix, random_density(2, rng).matrix]
    code = NestedCosetCode(
        F2, 6, 1, 2, rng.integers(0, 2, (1, 6)), rng.integers(0, 2, (2, 6)),
        rng.integers(0, 2, 6),
    )
    enc = select_typical(code, UNIFORM, 0.5, rng)
    povm = build_ptp_povm(code, enc, states, 0.3)
    traced = {m for (_, m), b in zip(povm.labels, _factors(povm.elements)) if b.shape[1]}
    assert len(traced) >= 2
    return (lambda: ptp_block_error(povm, enc, states),
            lambda: _reference_ptp_block_error(povm, enc, states))


def _ptp_n8_value() -> tuple:
    """(value, reference) for the ptp n = 8 decoder, most of whose labels are flipped."""
    states = [example2_mix(0.9), example2_mix(0.1)]
    code, enc = _ptp_n8_code()
    povm = build_ptp_povm(code, enc, states, 0.3)
    assert sum(2 * r > povm.dim for r in povm.elements.ranks) > 16
    return (lambda: ptp_block_error(povm, enc, states),
            lambda: _reference_ptp_block_error(povm, enc, states))


def _rx1_n8_value() -> tuple:
    """(value, reference) for the rx1 n = 8 decoder's exact success probability."""
    setup, enc2, enc3 = _rx1_n8_setup()
    povm = build_rx1_povm(setup, 0.5)
    return (lambda: rx1_success_probability(povm, setup, enc2, enc3),
            lambda: _reference_rx1_success(povm, setup, enc2, enc3))


@pytest.mark.parametrize("case", ["ptp", "ptp_flipped", "rx1"])
def test_exact_errors_never_compress_a_state(monkeypatch, case):
    """``ptp_block_error`` and ``rx1_success_probability`` take every trace in
    the product basis, the flipped labels' base traces included (the n = 6
    ptp decoder has none, the others many): no r x r compressed state is
    formed, and the values match the references, which trace against
    compressed states, within 1e-12."""
    value, reference = {"ptp": _ptp_n6_value, "ptp_flipped": _ptp_n8_value, "rx1": _rx1_n8_value}[case]()
    want = reference()
    calls = []
    compress = TypicalProjector.compress

    def counted(self, mats):
        calls.append(len(mats))
        return compress(self, mats)

    monkeypatch.setattr(TypicalProjector, "compress", counted)
    got = value()
    assert calls == []
    assert abs(got - want) <= 1e-12
