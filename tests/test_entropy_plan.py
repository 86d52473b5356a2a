"""The entropy plan behind Theorems 1 and 3 against per-quantity evaluation.

``channels._entropy_plan`` builds each marginal once and diagonalises every
block in one stacked ``eigvalsh`` per quantum dimension.  The right-hand
sides it gives are compared, bit for bit, with the same formulas evaluated
one quantity at a time by copies of ``cq_mutual_information`` and
``cq_entropy`` as they were before the plan (each with its own marginal and
entropy call).  Channels are random 3-to-1
product channels with a qubit or qutrit receiver 1, input alphabets of one
to three letters and auxiliary fields of order 2 or 3; sparse pmfs give
labels of zero weight.
"""

import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcq.channels import (
    CqChannel,
    InputDistribution,
    SplitInputDistribution,
    _cyclic_sum_pmf,
    _entropy_plan,
    _fold,
    _joint_state,
    _per_pmf,
    _shannon_bits,
    _sum_state,
    binary_input_distribution,
    binary_split_distribution,
    cq_entropy,
    cq_mutual_information,
    example2_channel,
    label_entropy,
    split_sigma1,
    split_sigma_receiver,
)
from cosetcq.linalg import DensityOperator, _entropies, random_density
from cosetcq.regions import _theorem1_rhs, shannon, theorem1_region, theorem3_region

PROPERTY = settings(max_examples=40, deadline=None)

seeds = st.integers(0, 2**32 - 1)
sizes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


def _random_channel(rng, input_sizes, d1: int) -> CqChannel:
    """rho(x1, x2, x3) = A(x1, x2, x3) (x) B(x2) (x) C(x3), A on C^d1."""
    rx1 = {x: random_density(d1, rng).matrix for x in itertools.product(*map(range, input_sizes))}
    rx2 = [random_density(2, rng).matrix for _ in range(input_sizes[1])]
    rx3 = [random_density(2, rng).matrix for _ in range(input_sizes[2])]
    states = {
        x: DensityOperator(np.kron(np.kron(rx1[x], rx2[x[1]]), rx3[x[2]])) for x in rx1
    }
    costs = tuple(rng.random(n) for n in input_sizes)
    return CqChannel(input_sizes, (d1, 2, 2), states, costs)


def _random_pmf(rng, shape, sparse: bool) -> np.ndarray:
    """A random pmf; ``sparse`` zeroes about 40 % of the entries."""
    p = rng.random(shape)
    if sparse:
        p[rng.random(shape) < 0.4] = 0.0
        p.flat[rng.integers(p.size)] = 1.0
    return p / p.sum()


def _per_quantity_mi(state, classical, given=()):
    """``cq_mutual_information`` as it was before the plan: its own marginal
    and one stacked entropy call for its averages and members."""
    joint = state.marginal_registers(given + classical)
    groups = prod(joint.weights.shape[1 : 1 + len(given)])
    w = joint.weights.reshape(len(joint.weights), groups, -1)
    mats = joint.mats.reshape(w.shape + joint.mats.shape[-2:])
    p_c = _fold(w, 2)
    avg = _fold(w[..., None, None] * mats, 2)
    safe = np.where(p_c > 0.0, p_c, 1.0)
    stack = np.concatenate([(avg / safe[..., None, None])[:, :, None], mats], axis=2)
    ents = np.reshape(_entropies(stack), stack.shape[:3])
    inner = _fold((w / safe[..., None]) * ents[:, :, 1:], 2)
    total = _fold(p_c * (ents[:, :, 0] - inner), 1)
    return _per_pmf(total, float)


def _per_quantity_entropy(state, registers):
    """``cq_entropy`` as it was before the plan: its own marginal and one
    entropy call for its blocks."""
    reduced = state.marginal_registers(sorted(registers, key=state.registers.index))
    w = reduced.weights.reshape(len(reduced.weights), -1)
    avg = _fold(w * np.reshape(_entropies(reduced.mats), w.shape), 1)
    return _per_pmf(label_entropy(reduced, reduced.registers) + avg, np.float64)


def _reference_theorem1_rhs(channel, p_x1, p_v2x2, p_v3x3) -> np.ndarray:
    """Theorem 1's right-hand sides (B, 7), one entropy call per quantity."""
    p_v2, p_v3 = p_v2x2.sum(axis=-1), p_v3x3.sum(axis=-1)
    p_u = _cyclic_sum_pmf(p_v2, p_v3)
    s1 = _sum_state(channel, p_x1, p_v2x2, p_v3x3, p_u, ("x1", "u"))
    s2 = _joint_state(channel, p_x1, p_v2x2, p_v3x3)
    i_x1_given_u = _per_quantity_mi(s1, ("x1",), ("u",))
    i_u_given_x1 = _per_quantity_mi(s1, ("u",), ("x1",))
    i_x1u = _per_quantity_mi(s1, ("x1", "u"))
    h_u = _shannon_bits(p_u)
    h_v2, h_v3 = _shannon_bits(p_v2), _shannon_bits(p_v3)
    min_hv = np.where(h_v3 < h_v2, h_v3, h_v2)
    direct = [
        _per_quantity_mi(s2.reduce_quantum([j - 1]), (reg,))
        for j, reg in ((2, "v2"), (3, "v3"))
    ]
    coset_rhs = min_hv - h_u + i_u_given_x1
    sum_rhs = min_hv - h_u + i_x1u
    return np.column_stack([i_x1_given_u, *direct, coset_rhs, coset_rhs, sum_rhs, sum_rhs])


def _reference_theorem3_rhs(channel, dist) -> list:
    """Theorem 3's five right-hand sides, one entropy call per quantity."""
    s1 = split_sigma1(channel, dist)
    h_w = _per_quantity_entropy(s1, ("w",))
    h_w_given_y1 = h_w - _per_quantity_entropy(s1, ())
    i_x1_wy1 = (label_entropy(s1, ("x1",)) + h_w) - _per_quantity_entropy(s1, ("x1", "w"))
    h_u = {j: shannon(dist.p_uj(j)) for j in (2, 3)}
    direct, cond = {}, {}
    for j in (2, 3):
        sj = split_sigma_receiver(channel, dist, j)
        direct[j] = _per_quantity_mi(sj, ("u", "x"))
        cond[j] = _per_quantity_mi(sj, ("x",), ("u",))
    return [
        min(0.0, h_u[2] - h_w_given_y1, h_u[3] - h_w_given_y1) + i_x1_wy1,
        direct[2],
        direct[3],
        cond[2] + i_x1_wy1 + h_u[2] - h_w_given_y1,
        cond[3] + i_x1_wy1 + h_u[3] - h_w_given_y1,
    ]


def _clamped(rhs) -> bytes:
    """The bytes of the right-hand sides as ``regions._region`` reports them."""
    return np.array([0.0 if r < 0.0 else float(r) for r in rhs]).tobytes()


@PROPERTY
@given(seeds, sizes, st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.integers(1, 4),
       st.booleans())
def test_theorem1_rhs_equals_per_quantity_reference(seed, input_sizes, q, d1, batch, sparse):
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng, input_sizes, d1)
    n1, n2, n3 = input_sizes
    p_x1 = np.stack([_random_pmf(rng, n1, sparse) for _ in range(batch)])
    p_v2x2 = np.stack([_random_pmf(rng, (q, n2), sparse) for _ in range(batch)])
    p_v3x3 = np.stack([_random_pmf(rng, (q, n3), sparse) for _ in range(batch)])
    got = _theorem1_rhs(chan, p_x1, p_v2x2, p_v3x3)
    want = _reference_theorem1_rhs(chan, p_x1, p_v2x2, p_v3x3)
    assert got.shape == want.shape == (batch, 7)
    assert got.tobytes() == want.tobytes()
    region = theorem1_region(chan, InputDistribution(q, p_x1[0], p_v2x2[0], p_v3x3[0]))
    assert _clamped(c.rhs for c in region.constraints) == _clamped(want[0])


@PROPERTY
@given(seeds, sizes, st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.integers(1, 3),
       st.booleans())
def test_theorem3_rhs_equals_per_quantity_reference(seed, input_sizes, q, d1, n_v, sparse):
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng, input_sizes, d1)
    n1, n2, n3 = input_sizes
    dist = SplitInputDistribution(
        q,
        _random_pmf(rng, n1, sparse),
        _random_pmf(rng, (q, n_v, n2), sparse),
        _random_pmf(rng, (q, n_v, n3), sparse),
    )
    region = theorem3_region(chan, dist)
    want = _reference_theorem3_rhs(chan, dist)
    assert _clamped(c.rhs for c in region.constraints) == _clamped(want)


def _counting_eigvalsh(monkeypatch) -> list:
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


@pytest.mark.parametrize("theorem", [1, 3])
def test_one_eigvalsh_call_per_region_evaluation(monkeypatch, theorem):
    chan = example2_channel(0.01, 0.1)
    assert chan.three_to_one == (True, None)  # the cached 3-to-1 check runs first
    calls = _counting_eigvalsh(monkeypatch)
    if theorem == 1:
        theorem1_region(chan, binary_input_distribution(0.3))
    else:
        theorem3_region(chan, binary_split_distribution(0.3))
    assert len(calls) == 1


def test_one_eigvalsh_call_per_receiver_dimension(monkeypatch):
    """A qutrit receiver 1 and qubit receivers 2, 3: two stacked calls."""
    chan = _random_channel(np.random.default_rng(4), (2, 2, 2), 3)
    assert chan.three_to_one == (True, None)
    calls = _counting_eigvalsh(monkeypatch)
    theorem1_region(chan, binary_input_distribution(0.3))
    assert sorted(shape[-1] for shape in calls) == [2, 3]
    calls.clear()
    theorem3_region(chan, binary_split_distribution(0.3))
    assert sorted(shape[-1] for shape in calls) == [2, 3]


def test_plan_answers_as_the_one_request_functions():
    """Mixed requests on two states, registers in either order, in one plan."""
    rng = np.random.default_rng(11)
    chan = _random_channel(rng, (3, 2, 2), 2)
    dist = InputDistribution(3, _random_pmf(rng, 3, True), _random_pmf(rng, (3, 2), True),
                             _random_pmf(rng, (3, 2), False))
    s1 = _sum_state(chan, *(p[None] for p in (dist.p_x1, dist.p_v2x2, dist.p_v3x3, dist.p_u())),
                    ("x1", "u"))
    s2 = _joint_state(chan, *(p[None] for p in (dist.p_x1, dist.p_v2x2, dist.p_v3x3)))
    requests = [
        ("S", s1, ("u", "x1")), ("I", s1, ("x1",), ("u",)), ("S", s1, ()),
        ("I", s1, ("u",), ("x1",)), ("S", s2, ("v3", "v2")), ("I", s2, ("v2",), ("v3",)),
        ("I", s2, ("v3", "v2"), ()), ("S", s1, ("x1", "u")),
    ]
    got = _entropy_plan(*requests)
    want = [
        _per_quantity_entropy(state, *rest) if kind == "S" else _per_quantity_mi(state, *rest)
        for kind, state, *rest in requests
    ]
    assert [type(g) for g in got] == [type(w) for w in want]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert got == [
        cq_entropy(state, *rest) if kind == "S" else cq_mutual_information(state, *rest)
        for kind, state, *rest in requests
    ]
    with pytest.raises(ValueError, match="both sides"):
        _entropy_plan(("I", s1, ("x1",), ("u",)), ("I", s1, ("u",), ("u",)))
    # a dropped ``given`` or a stray one is refused, not read as the other kind
    for bad in [("I", s1, ("x1", "u")), ("S", s1, ("x1", "u"), ()), ("H", s1, ("u",))]:
        with pytest.raises(ValueError, match="malformed"):
            _entropy_plan(bad)
