"""Generated-input checks of the receiver-marginal layer of ``channels``.

Channels are random 3-to-1 product channels with ternary inputs,
rho(x1, x2, x3) = A(x1, x2, x3) (x) B(x2) (x) C(x3) on three qubits, and the
auxiliary letters live in F_3, so the cyclic sum wraps with non-diagonal
pmfs.  Every cached or averaged quantity is compared with its definition
written over fresh partial traces.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcq.channels import (
    CqChannel,
    CqState,
    InputDistribution,
    SplitInputDistribution,
    _cyclic_sum_pmf,
    _fold,
    _joint_state,
    _sum_products,
    _sum_state,
    cq_entropy,
    cq_mutual_information,
    is_3to1,
    label_entropy,
    sigma1,
    sigma2,
    split_sigma1,
    split_sigma_receiver,
)
from cosetcq.linalg import (
    DensityOperator,
    partial_trace,
    random_density,
    trace_distance,
    von_neumann_entropy,
)
from cosetcq.regions import _theorem1_rhs, theorem1_region, theorem3_region, usb_region

Q = 3
SIZES = (3, 3, 3)
DIMS = (2, 2, 2)
PROPERTY = settings(max_examples=20, deadline=None)

seeds = st.integers(0, 2**32 - 1)


def _random_channel(rng) -> CqChannel:
    rx1 = {x: random_density(2, rng).matrix for x in itertools.product(range(3), repeat=3)}
    rx2 = [random_density(2, rng).matrix for _ in range(3)]
    rx3 = [random_density(2, rng).matrix for _ in range(3)]
    states = {
        x: DensityOperator(np.kron(np.kron(rx1[x], rx2[x[1]]), rx3[x[2]]))
        for x in rx1
    }
    costs = tuple(rng.random(3) for _ in range(3))
    return CqChannel(SIZES, DIMS, states, costs)


def _random_pmf(rng, shape, sparse: bool) -> np.ndarray:
    """A random pmf; ``sparse`` zeroes about a third of the entries."""
    p = rng.random(shape)
    if sparse:
        p[rng.random(shape) < 0.35] = 0.0
        p.flat[rng.integers(p.size)] = 1.0
    return p / p.sum()


def _rx1_tensor(chan) -> np.ndarray:
    """rho_Y1(x1, x2, x3) from fresh partial traces, shape (3, 3, 3, 2, 2)."""
    out = np.empty(SIZES + (2, 2), dtype=complex)
    for x in chan.inputs():
        out[x] = partial_trace(chan.states[x].matrix, DIMS, [0])
    return out


def _sum_mask() -> np.ndarray:
    """mask[a2, a3, s] = 1 when a2 + a3 = s mod q."""
    mask = np.zeros((Q, Q, Q))
    for a2, a3 in itertools.product(range(Q), repeat=2):
        mask[a2, a3, (a2 + a3) % Q] = 1.0
    return mask


def _check_sum_blocks(state, p_x1, p_a2x2, p_a3x3, rho1) -> None:
    """Blocks (x1, s) against p(x1) p(s) and the einsum of their definition."""
    joint = np.einsum("abs,ax,by,ixyjk->isjk", _sum_mask(), p_a2x2, p_a3x3, rho1)
    p_s = np.einsum("abs,ax,by->s", _sum_mask(), p_a2x2, p_a3x3)
    labels = {
        (x1, s) for x1 in range(3) for s in range(Q) if p_x1[x1] > 0 and p_s[s] > 0
    }
    assert set(state.blocks) == labels
    for (x1, s), (p, mat) in state.blocks.items():
        assert p == pytest.approx(p_x1[x1] * p_s[s], abs=1e-12)
        np.testing.assert_allclose(mat, joint[x1, s] / p_s[s], rtol=0, atol=1e-12)


@PROPERTY
@given(seeds, st.booleans())
def test_sigma1_blocks_match_definition(seed, sparse):
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng)
    dist = InputDistribution(
        Q,
        _random_pmf(rng, 3, sparse),
        _random_pmf(rng, (Q, 3), sparse),
        _random_pmf(rng, (Q, 3), sparse),
    )
    _check_sum_blocks(
        sigma1(chan, dist), dist.p_x1, dist.p_v2x2, dist.p_v3x3, _rx1_tensor(chan)
    )


@PROPERTY
@given(seeds, st.booleans(), st.integers(1, 3))
def test_split_sigma1_blocks_match_definition(seed, sparse, n_v):
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng)
    dist = SplitInputDistribution(
        Q,
        _random_pmf(rng, 3, sparse),
        _random_pmf(rng, (Q, n_v, 3), sparse),
        _random_pmf(rng, (Q, n_v, 3), sparse),
    )
    _check_sum_blocks(
        split_sigma1(chan, dist),
        dist.p_x1,
        dist.p_u2v2x2.sum(axis=1),
        dist.p_u3v3x3.sum(axis=1),
        _rx1_tensor(chan),
    )


@PROPERTY
@given(seeds, st.booleans())
def test_degenerate_split_region_equals_usb(seed, sparse):
    """With u2 = u3 = 0 (so w = 0) the splitting region is the baseline."""
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng)
    p_x = [_random_pmf(rng, 3, sparse) for _ in range(3)]
    split = []
    for p in p_x[1:]:
        p_uvx = np.zeros((Q, 3, 3))
        p_uvx[0, np.arange(3), np.arange(3)] = p  # v_j = x_j, u_j degenerate
        split.append(p_uvx)
    structured = theorem3_region(chan, SplitInputDistribution(Q, p_x[0], *split))
    baseline = usb_region(chan, *p_x)
    assert [c.name for c in structured.constraints] == [
        c.name for c in baseline.constraints
    ]
    for got, want in zip(structured.constraints, baseline.constraints):
        assert got.coeffs == want.coeffs
        assert got.rhs == pytest.approx(want.rhs, abs=1e-12)
    np.testing.assert_allclose(
        structured.cost_expectations, baseline.cost_expectations, rtol=0, atol=1e-12
    )


def _reference_cq_mi(state, classical, given=()):
    """Holevo information with one ``von_neumann_entropy`` call per block."""
    joint = state.marginal_registers(given + classical)
    groups: dict = {}
    for label, (p, mat) in joint.blocks.items():
        if p > 0.0:
            groups.setdefault(label[: len(given)], {})[label[len(given):]] = (p, mat)
    total = 0.0
    for sub in groups.values():
        p_c = sum(p for p, _ in sub.values())
        avg = sum(p * mat for p, mat in sub.values()) / p_c
        inner = sum((p / p_c) * von_neumann_entropy(mat) for p, mat in sub.values())
        total += p_c * (von_neumann_entropy(avg) - inner)
    return float(total)


def _reference_cq_entropy(state, registers):
    reduced = state.marginal_registers(registers)
    return label_entropy(reduced, reduced.registers) + sum(
        p * von_neumann_entropy(mat) for p, mat in reduced.blocks.values() if p > 0.0
    )


@PROPERTY
@given(seeds, st.booleans())
def test_stacked_entropy_sums_equal_per_block_loops(seed, sparse):
    """Same blocks, same summation order: the stacked kernel keeps every bit."""
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng)
    dist = InputDistribution(
        Q,
        _random_pmf(rng, 3, sparse),
        _random_pmf(rng, (Q, 3), sparse),
        _random_pmf(rng, (Q, 3), sparse),
    )
    state = sigma1(chan, dist)
    for classical, given_ in ((("x1",), ("u",)), (("u",), ("x1",)), (("x1", "u"), ())):
        got = cq_mutual_information(state, classical, given_)
        assert got == _reference_cq_mi(state, classical, given_)
    for registers in ((), ("x1",), ("u",), ("x1", "u")):
        got = cq_entropy(state, registers)
        want = _reference_cq_entropy(state, registers)
        assert type(got) is type(want) and got == want


@PROPERTY
@given(seeds)
def test_cached_marginals_equal_partial_traces(seed):
    chan = _random_channel(np.random.default_rng(seed))
    for x in chan.inputs():
        for j in range(3):
            want = partial_trace(chan.states[x].matrix, DIMS, [j])
            np.testing.assert_array_equal(chan.output_marginal(x, j), want)
    assert chan.three_to_one == (True, None)


def _reference_is_3to1(chan, tol=1e-9):
    """Receivers 2 and 3 by the definition: one trace distance per pair."""
    for j in (1, 2):
        groups: dict = {}
        for x in chan.inputs():
            groups.setdefault(x[j], []).append(x)
        for members in groups.values():
            ref = chan.output_marginal(members[0], j)
            for other in members[1:]:
                if trace_distance(ref, chan.output_marginal(other, j)) > tol:
                    return False, (j + 1, members[0], other)
    return True, None


@PROPERTY
@given(seeds)
def test_is_3to1_equals_per_pair_trace_distances(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(1, 4, size=3))
    dims = tuple(int(d) for d in rng.integers(1, 4, size=3))
    inputs = list(itertools.product(*(range(s) for s in sizes)))
    factors = [
        {x: random_density(dims[0], rng).matrix for x in inputs},
        [random_density(dims[1], rng).matrix for _ in range(sizes[1])],
        [random_density(dims[2], rng).matrix for _ in range(sizes[2])],
    ]
    # a random set of inputs leaks into receiver 2 or 3, by a weight that
    # keeps the trace distance below the tolerance (1e-12) or not (1e-6, 0.3)
    leaks = {}
    for x in inputs:
        if rng.random() < 0.2:
            j = int(rng.integers(1, 3))
            eps = float(rng.choice([1e-12, 1e-6, 0.3]))
            leaks[(x, j)] = (1 - eps) * factors[j][x[j]] + eps * random_density(dims[j], rng).matrix
    states = {}
    for x in inputs:
        rx2, rx3 = leaks.get((x, 1), factors[1][x[1]]), leaks.get((x, 2), factors[2][x[2]])
        states[x] = DensityOperator(np.kron(np.kron(factors[0][x], rx2), rx3))
    chan = CqChannel(sizes, dims, states, tuple(np.zeros(s) for s in sizes))
    got = is_3to1(chan)
    assert got == _reference_is_3to1(chan)
    assert chan.three_to_one == got
    if not got[0]:
        assert all(type(v) is int for v in got[1][1] + got[1][2])


def test_marginals_are_read_only():
    chan = _random_channel(np.random.default_rng(0))
    for arr in chan.marginals:
        assert arr.shape == SIZES + (2, 2)
        with pytest.raises(ValueError):
            arr[0, 0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        chan.output_marginal((0, 0, 0), 1)[0, 0] = 1.0
    assert chan.marginals is chan.marginals


def _random_dist(rng, sparse: bool) -> InputDistribution:
    return InputDistribution(
        Q,
        _random_pmf(rng, 3, sparse),
        _random_pmf(rng, (Q, 3), sparse),
        _random_pmf(rng, (Q, 3), sparse),
    )


def _reference_marginal(state, keep) -> dict:
    """``marginal_registers`` as a dict merge: blocks added in label order."""
    idx = [state.registers.index(name) for name in keep]
    merged: dict = {}
    for label, (p, mat) in state.blocks.items():
        sub = tuple(label[i] for i in idx)
        if sub in merged:
            merged[sub][0] += p
            merged[sub][1] += p * mat
        else:
            merged[sub] = [p, p * mat.copy()]
    return {lab: (p, mat / p) for lab, (p, mat) in merged.items()}


def _assert_same_blocks(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for label, (p, mat) in want.items():
        assert got[label][0] == p and got[label][1].tobytes() == mat.tobytes()


def _assert_state_functions_match_references(state, register_sets, mi_cases) -> None:
    for keep in register_sets:
        _assert_same_blocks(state.marginal_registers(keep).blocks, _reference_marginal(state, keep))
        got = cq_entropy(state, keep)
        want = _reference_cq_entropy(state, keep)
        assert type(got) is type(want) and got == want
    for classical, given_ in mi_cases:
        assert cq_mutual_information(state, classical, given_) == _reference_cq_mi(
            state, classical, given_
        )


@PROPERTY
@given(seeds, st.booleans(), st.integers(1, 3))
def test_split_states_match_per_block_references(seed, sparse, n_v):
    """theorem3_region's states: receiver 1's (x1, w) and receivers 2, 3's (u, x)."""
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng)
    dist = SplitInputDistribution(
        Q,
        _random_pmf(rng, 3, sparse),
        _random_pmf(rng, (Q, n_v, 3), sparse),
        _random_pmf(rng, (Q, n_v, 3), sparse),
    )
    _assert_state_functions_match_references(
        split_sigma1(chan, dist),
        ((), ("x1",), ("w",), ("x1", "w")),
        ((("x1",), ("w",)), (("w",), ("x1",)), (("x1", "w"), ())),
    )
    for j in (2, 3):
        _assert_state_functions_match_references(
            split_sigma_receiver(chan, dist, j),
            ((), ("u",), ("x",), ("u", "x")),
            ((("u", "x"), ()), (("x",), ("u",))),
        )


@PROPERTY
@given(seeds, st.lists(st.booleans(), min_size=2, max_size=5))
def test_batch_rows_equal_one_pmf_results(seed, sparse_flags):
    """States of several pmfs at once: every row == its one-pmf result."""
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng)
    dists = [_random_dist(rng, sparse) for sparse in sparse_flags]
    p_x1, p_v2x2, p_v3x3 = (
        np.stack([getattr(d, name) for d in dists]) for name in ("p_x1", "p_v2x2", "p_v3x3")
    )
    p_u = np.stack([d.p_u() for d in dists])
    batch = _sum_state(chan, p_x1, p_v2x2, p_v3x3, p_u, ("x1", "u"))
    joint = _joint_state(chan, p_x1, p_v2x2, p_v3x3)
    ones = [sigma1(chan, d) for d in dists]
    for state in ones:
        _assert_state_functions_match_references(
            state,
            ((), ("x1",), ("u",), ("x1", "u")),
            ((("x1",), ("u",)), (("u",), ("x1",)), (("x1", "u"), ())),
        )
    for classical, given_ in ((("x1",), ("u",)), (("u",), ("x1",)), (("x1", "u"), ())):
        rows = cq_mutual_information(batch, classical, given_)
        assert rows.shape == (len(dists),)
        assert rows.tolist() == [cq_mutual_information(s, classical, given_) for s in ones]
    for registers in ((), ("x1",), ("u",), ("x1", "u")):
        rows = cq_entropy(batch, registers)
        assert rows.tolist() == [cq_entropy(s, registers) for s in ones]
        if registers:
            rows = label_entropy(batch, registers)
            assert rows.tolist() == [label_entropy(s, registers) for s in ones]
    for factor, reg in ((1, "v2"), (2, "v3")):
        rows = cq_mutual_information(joint.reduce_quantum([factor]), (reg,))
        want = [cq_mutual_information(sigma2(chan, d).reduce_quantum([factor]), (reg,)) for d in dists]
        assert rows.tolist() == want
    # Theorem 1's right-hand sides row by row, as theorem1_region reports them.
    rhs = _theorem1_rhs(chan, p_x1, p_v2x2, p_v3x3)
    for row, dist in zip(rhs, dists):
        region = theorem1_region(chan, dist)
        assert [max(r, 0.0) for r in row.tolist()] == [c.rhs for c in region.constraints]


def _signed(p: np.ndarray) -> np.ndarray:
    """``p`` with every zero entry made -0.0."""
    return np.where(p == 0.0, -0.0, p)


def _reference_cyclic_sum(p_a, p_b) -> np.ndarray:
    """The double-loop definition of ``_cyclic_sum_pmf``."""
    q = p_a.shape[-1]
    out = np.zeros(np.broadcast_shapes(p_a.shape, p_b.shape))
    for i in range(q):
        for j in range(q):
            out[..., (i + j) % q] += p_a[..., i] * p_b[..., j]
    return out


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.booleans(), st.booleans(),
       st.booleans())
def test_cyclic_sum_pmf_equals_double_loop(seed, q, batch, sparse, signed, single_b):
    rng = np.random.default_rng(seed)
    p_a = np.stack([_random_pmf(rng, q, sparse) for _ in range(batch)])
    p_b = _random_pmf(rng, q, sparse) if single_b else np.stack(
        [_random_pmf(rng, q, sparse) for _ in range(batch)]
    )
    if signed:
        p_a, p_b = _signed(p_a), _signed(p_b)
    got, want = _cyclic_sum_pmf(p_a, p_b), _reference_cyclic_sum(p_a, p_b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@PROPERTY
@given(seeds, st.integers(1, 4), st.booleans())
def test_fold_equals_slice_loop(seed, ndim, signed):
    rng = np.random.default_rng(seed)
    terms = rng.standard_normal(tuple(rng.integers(1, 4, size=ndim)))
    terms[rng.random(terms.shape) < 0.3] = 0.0
    if signed:
        terms = _signed(terms)
    for axis in range(-ndim, ndim):
        for start, got in ((0, _fold(terms, axis)), (-0.0, _fold(terms, axis, -0.0))):
            want = start
            for k in range(terms.shape[axis]):
                want = want + np.take(terms, k, axis=axis)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@PROPERTY
@given(seeds, st.booleans())
def test_marginal_of_signed_zero_blocks_matches_reference(seed, sparse):
    """Blocks with -0.0 entries: a label's first block is taken as it is."""
    rng = np.random.default_rng(seed)
    weights = _random_pmf(rng, (2, 3, 2), sparse)
    blocks = {}
    for label in zip(*np.nonzero(weights)):
        mat = random_density(2, rng).matrix.copy()
        mat[rng.random((2, 2)) < 0.5] = complex(-0.0, -0.0)
        mat.imag[np.diag_indices(2)] = -0.0
        blocks[tuple(int(i) for i in label)] = (weights[label], mat)
    state = CqState(("a", "b", "c"), (2,), blocks)
    for keep in ((), ("a",), ("c", "b"), ("a", "b", "c")):
        want = _reference_marginal(state, keep)
        _assert_same_blocks(state.marginal_registers(keep).blocks, want)
    assert any(np.signbit(mat.imag).any() for _, mat in want.values())


@PROPERTY
@given(seeds, st.integers(1, 6))
def test_sum_products_equals_builtin_sum(seed, count):
    """In-place accumulation keeps builtin ``sum``'s bits, -0.0 terms included."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        w = _signed(np.where(rng.random((2, 3, 1, 1)) < 0.4, 0.0, rng.random((2, 3, 1, 1))))
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m[rng.random((4, 4)) < 0.3] = complex(-0.0, -0.0)
        pairs.append((w, m))
    got = _sum_products(iter(pairs))
    want = sum(w * m for w, m in pairs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
