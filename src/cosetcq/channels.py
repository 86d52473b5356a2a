"""Three-user classical-quantum interference channels and their CQ states.

A channel maps a classical input triple (x1, x2, x3) to a density operator on
the tensor product of three receiver spaces.  Channels of interest here are
3-to-1: receivers 2 and 3 each see a reduced state depending only on their
own input, so all interference lands on receiver 1.

Classical-quantum states are kept block-diagonal: a ``CqState`` holds one
weight and one density matrix per classical label, as arrays over the label
grid with a leading axis over input pmfs, never an explicit diagonal
embedding.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from math import prod

import numpy as np

from ._record import Record
from .errors import ModelViolationError, check_pmf
from .linalg import (
    DensityOperator,
    _entropies,
    _row_dots,
    _trace_norms,
    partial_trace,
)

__all__ = [
    "CqChannel",
    "CqState",
    "InputDistribution",
    "SplitInputDistribution",
    "is_3to1",
    "sigma1",
    "sigma2",
    "split_sigma1",
    "split_sigma_receiver",
    "cq_mutual_information",
    "cq_entropy",
    "label_entropy",
    "classical_conditional_entropy",
    "classical_quantum_mi",
    "example1_channel",
    "example2_channel",
    "example2_mix",
    "binary_input_distribution",
    "binary_split_distribution",
    "EX2_SIGMA0",
    "EX2_SIGMA1",
]

# Qubit pair generating the second worked channel; equal entropy, non-commuting.
EX2_SIGMA0 = np.array([[2.0 / 3.0, 0.0], [0.0, 1.0 / 3.0]], dtype=complex)
EX2_SIGMA1 = np.array([[0.5, 1.0 / 6.0], [1.0 / 6.0, 0.5]], dtype=complex)


def example2_mix(p: float) -> np.ndarray:
    """The qubit p*sigma0 + (1-p)*sigma1 interpolating the pair above."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    return p * EX2_SIGMA0 + (1.0 - p) * EX2_SIGMA1


class CqChannel(Record):
    """A classical-quantum channel for three senders and three receivers.

    Parameters
    ----------
    input_sizes : (3,) ints
        Alphabet sizes of the three senders.
    output_dims : (3,) ints
        Hilbert space dimensions of the three receivers.
    states : dict
        (x1, x2, x3) -> DensityOperator on the full output product space.
        Every input triple must be present.
    costs : 3-tuple of arrays
        costs[j][x] >= 0 is the symbol cost of sender j+1 sending x.
    """

    input_sizes: tuple
    output_dims: tuple
    states: dict
    costs: tuple

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.input_sizes)
        dims = tuple(int(d) for d in self.output_dims)
        if len(sizes) != 3 or len(dims) != 3:
            raise ValueError("expected exactly three senders and three receivers")
        if any(s < 1 for s in sizes) or any(d < 1 for d in dims):
            raise ValueError("alphabet sizes and output dims must be positive")
        total = int(np.prod(dims))
        for x in itertools.product(*(range(s) for s in sizes)):
            if x not in self.states:
                raise ValueError(f"missing channel state for input {x}")
            st = self.states[x]
            if not isinstance(st, DensityOperator):
                raise ValueError(f"state for input {x} is not a DensityOperator")
            if st.dim != total:
                raise ValueError(
                    f"state for input {x} has dim {st.dim}, expected {total}"
                )
        costs = tuple(np.asarray(c, dtype=float) for c in self.costs)
        for j, c in enumerate(costs):
            if c.shape != (sizes[j],):
                raise ValueError(f"cost table {j} has shape {c.shape}")
            if not np.all(np.isfinite(c) & (c >= 0)):
                raise ValueError(f"cost table {j} has negative or non-finite entries")
        object.__setattr__(self, "input_sizes", sizes)
        object.__setattr__(self, "output_dims", dims)
        object.__setattr__(self, "costs", costs)

    def inputs(self):
        return itertools.product(*(range(s) for s in self.input_sizes))

    @cached_property
    def marginals(self) -> tuple:
        """Per receiver j, the reduced output states as a read-only
        (|X1|, |X2|, |X3|, d_j, d_j) array, traced out once on first use."""
        states = np.stack([self.states[x].matrix for x in self.inputs()])
        out = []
        for j, d in enumerate(self.output_dims):
            arr = partial_trace(states, self.output_dims, [j]).reshape(self.input_sizes + (d, d))
            arr.setflags(write=False)
            out.append(arr)
        return tuple(out)

    @cached_property
    def three_to_one(self) -> tuple:
        """The verdict of ``is_3to1`` at its default tolerance, found once."""
        return is_3to1(self)

    def output_marginal(self, x: tuple, receiver: int) -> np.ndarray:
        """Reduced output state at one receiver (0-based index) for input x."""
        return self.marginals[receiver][tuple(x)]

    def expected_costs(self, p_x1, p_x2, p_x3) -> np.ndarray:
        """E[cost_j(X_j)] for the three senders under the given input pmfs."""
        pmfs = (p_x1, p_x2, p_x3)
        return np.array([float(p @ c) for p, c in zip(pmfs, self.costs)])


def is_3to1(channel: CqChannel, tol: float = 1e-9):
    """Check that receivers 2 and 3 see point-to-point marginals.

    Returns ``(True, None)`` when for j in {2, 3} the reduced state on Y_j
    depends only on x_j (all pairwise trace distances within ``tol``), else
    ``(False, (j, x, x_prime))`` with a violating input pair.  Inputs are
    grouped by x_j and each group's first input (in input order) is compared
    with the others: one stacked ``eigvalsh`` per receiver, the first
    violating pair in (x_j, input) order reported.
    """
    sizes = channel.input_sizes
    inputs = np.moveaxis(np.indices(sizes), 0, -1)  # (|X1|, |X2|, |X3|, 3)
    for j in (1, 2):
        d = channel.output_dims[j]
        groups = np.moveaxis(channel.marginals[j], j, 0).reshape(sizes[j], -1, d, d)
        dists = 0.5 * _trace_norms((groups[:, :1] - groups[:, 1:]).reshape(-1, d, d))
        bad = np.flatnonzero(dists > tol)
        if bad.size:
            members = np.moveaxis(inputs, j, 0).reshape(sizes[j], -1, 3).tolist()
            group, other = divmod(int(bad[0]), len(members[0]) - 1)
            return False, (j + 1, tuple(members[group][0]), tuple(members[group][other + 1]))
    return True, None


class CqState:
    """Block-diagonal classical-quantum state on a grid of register labels.

    Held as arrays with a leading pmf axis of length B: ``weights``
    (B, *label_sizes) and ``mats`` (B, *label_sizes, d, d), one block per
    label; a label absent from the state has weight 0.  ``label_entropy``,
    ``cq_entropy`` and ``cq_mutual_information`` answer with one value per
    pmf, or a single number when B = 1.  Every sum over labels is a
    ``_fold`` in label order, zero-weight terms included.

    ``CqState(registers, quantum_dims, blocks)`` builds a one-pmf state from
    a dict mapping label tuples of non-negative ints to (probability,
    density matrix).  Every pmf's weights must sum to 1.
    """

    def __init__(self, registers, quantum_dims, blocks: dict) -> None:
        dim = int(np.prod(quantum_dims))
        sizes = [0] * len(registers)
        for label, (_, mat) in blocks.items():
            if len(label) != len(registers) or min(label, default=0) < 0:
                raise ValueError(f"label {label} does not match registers")
            if np.shape(mat) != (dim, dim):
                raise ValueError(f"block {label} has shape {np.shape(mat)}")
            sizes = [max(n, int(i) + 1) for n, i in zip(sizes, label)]
        weights = np.zeros([1] + sizes)
        mats = np.zeros([1] + sizes + [dim, dim], dtype=complex)
        for label, (p, mat) in blocks.items():
            weights[(0, *label)], mats[(0, *label)] = p, mat
        self._fill(registers, quantum_dims, weights, mats)._check()

    @classmethod
    def _of(cls, registers, quantum_dims, weights, mats) -> "CqState":
        """A state over given arrays, unchecked: only built states need ``_check``."""
        return cls.__new__(cls)._fill(registers, quantum_dims, weights, mats)

    def _fill(self, registers, quantum_dims, weights, mats) -> "CqState":
        self.registers = tuple(registers)
        self.quantum_dims = tuple(int(d) for d in quantum_dims)
        self.weights, self.mats = weights, mats
        return self

    def _check(self) -> "CqState":
        """Every pmf's weights sum to 1 within 1e-9; none is below -1e-12."""
        totals = self.weights.reshape(len(self.weights), -1).sum(axis=1)
        off = totals[np.abs(totals - 1.0) > 1e-9]
        if len(off):
            raise ValueError(f"block weights sum to {float(off[0])!r}, expected 1")
        if self.weights.min() < -1e-12:
            label = np.argwhere(self.weights < -1e-12)[0][1:]
            raise ValueError(f"negative weight for label {tuple(label.tolist())}")
        return self

    @property
    def blocks(self) -> dict:
        """label -> (probability, block) for the labels of nonzero weight, in
        label order; one-pmf states only."""
        if len(self.weights) != 1:
            raise ValueError(f"a state of {len(self.weights)} pmfs has a block dict per pmf")
        labels = (tuple(label.tolist()) for label in np.argwhere(self.weights[0]))
        return {label: (self.weights[0][label], self.mats[0][label]) for label in labels}

    def mixture(self) -> np.ndarray:
        """The unconditional quantum state (classical registers traced out)."""
        w = self.weights.reshape(len(self.weights), -1)
        mats = self.mats.reshape(w.shape + self.mats.shape[-2:])
        out = _fold(w[..., None, None] * mats, 1)
        return out if len(out) > 1 else out[0]

    def marginal_registers(self, keep: tuple) -> "CqState":
        """Marginalize classical registers not named in ``keep``: the blocks
        of one kept label give (p_1 rho_1 + p_2 rho_2 + ...) / (p_1 + p_2 + ...),
        a ``_fold`` in label order; a zero weight's term is -0.0, which the
        fold from -0.0 skips exactly, so a label's first block is taken as it is."""
        keep = tuple(keep)
        w = _regroup(self.weights, self.registers, keep)
        mats = _regroup(self.mats, self.registers, keep, 2)
        pos = w > 0.0
        weights = _fold(np.where(pos, w, 0.0), -1)
        zero = complex(-0.0, -0.0)
        terms = np.where(pos[..., None, None], w[..., None, None] * mats, zero)
        acc = _fold(terms, -3, zero)
        acc /= np.where(weights > 0.0, weights, 1.0)[..., None, None]
        return CqState._of(keep, self.quantum_dims, weights, acc)

    def reduce_quantum(self, keep) -> "CqState":
        """Partial-trace every block down to the given quantum factors."""
        keep = sorted(int(i) for i in keep)
        mats = partial_trace(self.mats, self.quantum_dims, keep)
        dims = tuple(self.quantum_dims[i] for i in keep)
        return CqState._of(self.registers, dims, self.weights, mats)


_ZERO = np.zeros(())
_ZERO.setflags(write=False)


def _fold(terms: np.ndarray, axis: int, start=_ZERO):
    """Builtin ``sum`` of the slices of ``terms`` along ``axis``, in index
    order from ``start``: the one summation order of every label sum.

    Adding slice by slice (not ``np.sum``'s pairwise blocks) keeps every
    bit of a letter-by-letter loop, and zero terms may be added: x + 0 == x
    unless x is -0.0, a fold from +0 never yields -0.0, and -0.0 + x == x.
    Terms stay NumPy values, as ``sum`` compensates Python floats from
    Python 3.12 on; +0 is a 0-d array, as NumPy adds a Python int slowly.
    """
    lead = (slice(None),) * (axis % terms.ndim)
    return sum((terms[lead + (k,)] for k in range(terms.shape[axis])), start)


def _regroup(arr: np.ndarray, registers: tuple, keep: tuple, trailing: int = 0) -> np.ndarray:
    """``arr`` (B, *label_sizes, *trailing axes) with the ``keep`` registers'
    axes first, in that order, then one axis over the other registers'
    labels in label order."""
    idx = [registers.index(name) for name in keep]
    order = idx + [i for i in range(len(registers)) if i not in idx]
    if order != sorted(order):
        tail = list(range(1 + len(registers), arr.ndim))
        arr = arr.transpose([0] + [1 + i for i in order] + tail)
    return arr.reshape(arr.shape[: 1 + len(keep)] + (-1,) + arr.shape[arr.ndim - trailing :])


def _per_pmf(values: np.ndarray, cast):
    """``values``, one per pmf, or for a single pmf its entry as ``cast``."""
    return values if len(values) > 1 else cast(values[0])


def _shannon_bits(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the positive entries of each row of ``p``, in order."""
    pos = p > 0.0
    return -_row_dots(np.where(pos, p, 0.0), np.log2(np.where(pos, p, 1.0)))


def label_entropy(state: CqState, registers: tuple):
    """Shannon entropy (bits) of the named classical registers' marginal."""
    registers = sorted(registers, key=state.registers.index)  # sums in label order
    pmf = _fold(_regroup(state.weights, state.registers, registers), -1)
    return _per_pmf(_shannon_bits(pmf.reshape(len(pmf), -1)), float)


def cq_entropy(state: CqState, registers: tuple = None):
    """Von Neumann entropy (bits) of the state with only ``registers`` kept.

    ``registers=None`` keeps every classical register; ``()`` gives the
    entropy of the bare quantum mixture.  For a block-diagonal state this is
    H(labels) plus the average block entropy.  A one-request ``_entropy_plan``.
    """
    registers = state.registers if registers is None else tuple(registers)
    return _entropy_plan(("S", state, registers))[0]


def cq_mutual_information(state: CqState, classical: tuple, given: tuple = ()):
    """Holevo information I(quantum ; classical | given) in bits.

    Computed as sum_c p(c) [ S(rho_c) - sum_a p(a|c) S(rho_{a,c}) ] where
    ``a`` runs over the ``classical`` registers and ``c`` over ``given``.
    A one-request ``_entropy_plan``.
    """
    return _entropy_plan(("I", state, tuple(classical), tuple(given)))[0]


def _entropy_plan(*requests) -> list:
    """Several entropy quantities of one or more states, in request order:
    ``("S", state, registers)`` asks for ``cq_entropy``, ``("I", state,
    classical, given)`` for ``cq_mutual_information``, each answered as that
    function answers.

    Each distinct marginal is built once, in the state's register order, and
    a request naming its registers in another order transposes it: a
    label's block has the same bits in any ``keep`` order.  Its blocks
    (members) are diagonalised once for every request on them; with the
    group averages of the Holevo requests they are stacked by quantum
    dimension, one ``_entropies`` call per dimension.
    """
    marginals, stacks, pending = {}, {}, []

    def queue(mats):
        """Stack ``mats`` (..., d, d); the slot of their entropies."""
        d, shape = mats.shape[-1], mats.shape[:-2]
        stack = stacks.setdefault(d, [])
        start = sum(len(m) for m in stack)
        stack.append(mats.reshape(-1, d, d))
        return d, slice(start, start + len(stack[-1])), shape

    for kind, state, registers, *given in requests:
        if (kind, len(given)) not in (("S", 0), ("I", 1)):
            raise ValueError(f"malformed {kind!r} entropy request")
        given = tuple(given[0]) if given else None
        if given and set(registers) & set(given):
            raise ValueError(f"registers {set(registers) & set(given)} appear on both sides")
        keep = (given or ()) + tuple(registers)
        order = tuple(sorted(keep, key=state.registers.index))
        if (id(state), order) not in marginals:
            reduced = state.marginal_registers(order)
            marginals[id(state), order] = reduced, queue(reduced.mats)
        reduced, members = marginals[id(state), order]
        if given is None:
            pending.append((reduced, members))
            continue
        # the joint state over given + registers: groups c, members a
        axes = [0] + [1 + order.index(name) for name in keep]
        groups = prod(reduced.weights.shape[a] for a in axes[1 : 1 + len(given)])
        w = reduced.weights.transpose(axes).reshape(len(reduced.weights), groups, -1)
        mats = reduced.mats.transpose(axes + [len(axes), len(axes) + 1])
        mats = mats.reshape(w.shape + mats.shape[-2:])
        p_c = _fold(w, 2)
        safe = np.where(p_c > 0.0, p_c, 1.0)
        avg = _fold(w[..., None, None] * mats, 2) / safe[..., None, None]
        pending.append((reduced, members, axes, w / safe[..., None], p_c, queue(avg)))

    values = {d: np.array(_entropies(np.concatenate(stack))) for d, stack in stacks.items()}
    ents = lambda slot: values[slot[0]][slot[1]].reshape(slot[2])
    out = []
    for reduced, members, *holevo in pending:
        if not holevo:
            w = reduced.weights.reshape(len(reduced.weights), -1)
            avg = _fold(w * ents(members).reshape(w.shape), 1)
            # H(labels) is label_entropy's: its fold adds +0 to weights that are never -0.0
            out.append(_per_pmf(_shannon_bits(w) + avg, np.float64))
            continue
        axes, cond, p_c, group = holevo
        inner = _fold(cond * ents(members).transpose(axes).reshape(cond.shape), 2)
        out.append(_per_pmf(_fold(p_c * (ents(group) - inner), 1), float))
    return out


def classical_conditional_entropy(state: CqState, registers: tuple):
    """H(registers | quantum part) in bits, other registers marginalized."""
    h, h_quantum = _entropy_plan(("S", state, tuple(registers)), ("S", state, ()))
    return h - h_quantum


def classical_quantum_mi(state: CqState, a_regs: tuple, b_regs: tuple):
    """I(A ; B, quantum) in bits for disjoint classical register sets A, B."""
    a_regs, b_regs = tuple(a_regs), tuple(b_regs)
    if set(a_regs) & set(b_regs):
        raise ValueError("register sets must be disjoint")
    h_b, h_ab = _entropy_plan(("S", state, b_regs), ("S", state, a_regs + b_regs))
    return label_entropy(state, a_regs) + h_b - h_ab


def _cyclic_sum_pmf(p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    """Distribution of a + b mod q for independent a ~ p_a, b ~ p_b over Z_q,
    along the last axis (leading axes index pmfs): term [..., i, s] is
    p_a(i) p_b(s - i), folded over i."""
    return _fold(p_a[..., :, None] * p_b[..., _shifts(p_a.shape[-1])], -2)


@cache
def _shifts(q: int) -> np.ndarray:
    """The read-only index table [i, s] = s - i mod q."""
    table = (np.arange(q) - np.arange(q)[:, None]) % q
    table.setflags(write=False)
    return table


class InputDistribution(Record):
    """Product input pmf p(x1) p(v2, x2) p(v3, x3) with v_j over F_q.

    Parameters
    ----------
    q : int
        Field order shared by the two auxiliary letters.
    p_x1 : (|X1|,) array
    p_v2x2 : (q, |X2|) array
    p_v3x3 : (q, |X3|) array
    """

    q: int
    p_x1: np.ndarray
    p_v2x2: np.ndarray
    p_v3x3: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_x1", check_pmf(self.p_x1, "p_x1", (None,)))
        for name in ("p_v2x2", "p_v3x3"):
            object.__setattr__(self, name, check_pmf(getattr(self, name), name, (self.q, None)))

    @property
    def p_v2(self) -> np.ndarray:
        return self.p_v2x2.sum(axis=-1)

    @property
    def p_v3(self) -> np.ndarray:
        return self.p_v3x3.sum(axis=-1)

    def p_u(self) -> np.ndarray:
        """Distribution of u = v2 + v3 mod q."""
        return _cyclic_sum_pmf(self.p_v2, self.p_v3)

    def cost_expectations(self, channel: CqChannel) -> np.ndarray:
        """E[cost_j(X_j)] for the three senders under this distribution."""
        return channel.expected_costs(
            self.p_x1, self.p_v2x2.sum(axis=0), self.p_v3x3.sum(axis=0)
        )


class SplitInputDistribution(Record):
    """Product pmf p(x1) p(u2, v2, x2) p(u3, v3, x3); u_j over F_q, v_j free.

    The structured letters u2, u3 live in the same prime field; w = u2 + u3
    is the decoded sum at receiver 1.  The v_j are unstructured auxiliaries
    with arbitrary finite alphabets.
    """

    q: int
    p_x1: np.ndarray
    p_u2v2x2: np.ndarray
    p_u3v3x3: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_x1", check_pmf(self.p_x1, "p_x1", (None,)))
        for name in ("p_u2v2x2", "p_u3v3x3"):
            object.__setattr__(self, name, check_pmf(getattr(self, name), name, (self.q, None, None)))

    def _p_ujvjxj(self, j: int) -> np.ndarray:
        if j not in (2, 3):
            raise ValueError(f"sender index must be 2 or 3, got {j}")
        return self.p_u2v2x2 if j == 2 else self.p_u3v3x3

    def p_uj(self, j: int) -> np.ndarray:
        return self._p_ujvjxj(j).sum(axis=(1, 2))

    def p_ujxj(self, j: int) -> np.ndarray:
        return self._p_ujvjxj(j).sum(axis=1)

    def p_w(self) -> np.ndarray:
        """Distribution of w = u2 + u3 mod q."""
        return _cyclic_sum_pmf(self.p_uj(2), self.p_uj(3))

    def cost_expectations(self, channel: CqChannel) -> np.ndarray:
        return channel.expected_costs(
            self.p_x1, self.p_u2v2x2.sum(axis=(0, 1)), self.p_u3v3x3.sum(axis=(0, 1))
        )


def _require_3to1(channel: CqChannel) -> None:
    ok, witness = channel.three_to_one
    if not ok:
        raise ModelViolationError(
            f"channel is not 3-to-1: receiver {witness[0]} distinguishes "
            f"inputs {witness[1]} and {witness[2]}"
        )


def _side_states(channel: CqChannel) -> tuple:
    """Receivers 2 and 3's states by their own input, (|X_j|, d_j, d_j) each,
    for a 3-to-1 channel (else ``ModelViolationError``): the Y_j reduction
    depends on x_j alone, so the other inputs are held at 0."""
    _require_3to1(channel)
    return channel.marginals[1][0, :, 0], channel.marginals[2][0, 0, :]


def _aux_sums(channel: CqChannel, p_a2x2: np.ndarray, p_a3x3: np.ndarray) -> np.ndarray:
    """For B pmfs ``p_a2x2`` (B, q, |X2|) and ``p_a3x3`` (B, q, |X3|), entry
    [b, x1, s] of the (B, |X1|, q, d1, d1) result is the sum over a2 + a3 = s
    (mod q) and (x2, x3) of p(a2, x2) p(a3, x3) rho_Y1(x1, x2, x3), added in
    (a2, x2, x3) order: receiver 1's states with the auxiliary sum fixed."""
    # w[a2, x2, x3], shaped (B, 1, q, 1, 1), is p(a2, x2) p(s - a2, x3) over
    # s, complex as the blocks (the same bits, and no cast buffers per product)
    p3 = p_a3x3[:, _shifts(p_a2x2.shape[1])].transpose(1, 3, 0, 2)
    w = (p_a2x2.transpose(1, 2, 0)[:, :, None, :, None] * p3[:, None])[..., None, :, None, None]
    w = w.astype(complex)
    rho1 = channel.marginals[0].transpose(1, 2, 0, 3, 4)[:, :, :, None]
    return _sum_products((w[i], rho1[i[1:]]) for i in itertools.product(*map(range, w.shape[:3])))


def _sum_products(pairs) -> np.ndarray:
    """``sum(w * m for w, m in pairs)`` bit for bit (from 0, in order), added
    in place: one product buffer and one accumulator, not an array per term."""
    acc = buf = None
    for w, m in pairs:
        buf = np.multiply(w, m, out=buf)
        # 0.0 + x, as sum's 0 + x, turns a -0.0 entry of the first term to +0.0
        acc = buf + 0.0 if acc is None else np.add(acc, buf, out=acc)
    return acc


def _sum_state(channel, p_x1, p_a2x2, p_a3x3, p_s, registers) -> CqState:
    """Batched receiver-1 state with registers (x1, s), s the auxiliary sum
    mod q: block (x1, s) is ``_aux_sums`` over p(s), of weight p(x1) p(s).
    Arrays carry a leading pmf axis."""
    _require_3to1(channel)
    weights = p_x1[:, :, None] * p_s[:, None, :]
    mats = _aux_sums(channel, p_a2x2, p_a3x3)
    mats /= np.where(p_s > 0.0, p_s, 1.0)[:, None, :, None, None]
    return CqState._of(registers, (channel.output_dims[0],), weights, mats)._check()


def sigma1(channel: CqChannel, dist: InputDistribution) -> CqState:
    """Receiver-1 auxiliary state with classical registers (x1, u).

    Block (x1, u) carries the Y_1 reduction of the channel output averaged
    over (v2, x2, v3, x3) conditioned on v2 + v3 = u, weighted by
    p(x1) p_U(u).  Labels with p_U(u) = 0 are omitted.
    """
    pmfs = (dist.p_x1, dist.p_v2x2, dist.p_v3x3, dist.p_u())
    return _sum_state(channel, *(p[None] for p in pmfs), ("x1", "u"))


def _joint_state(channel: CqChannel, p_x1, p_v2x2, p_v3x3) -> CqState:
    """``sigma2`` for B pmfs: block (v2, v3) adds p(x1) p(v2, x2) p(v3, x3)
    rho(x1, x2, x3) over the inputs in order and divides by p(v2) p(v3)."""
    _require_3to1(channel)
    weights = p_v2x2.sum(axis=-1)[:, :, None] * p_v3x3.sum(axis=-1)[:, None, :]
    # w[x1, x2, x3], shaped (B, q, q, 1, 1), is p(x1) p(v2, x2) p(v3, x3),
    # complex as the states (see ``_aux_sums``)
    w = p_x1.T[:, None, None, :, None, None] * p_v2x2.transpose(2, 0, 1)[:, None, :, :, None]
    w = (w * p_v3x3.transpose(2, 0, 1)[:, :, None, :])[..., None, None].astype(complex)
    acc = _sum_products((w[x], channel.states[x].matrix) for x in channel.inputs())
    acc /= np.where(weights > 0.0, weights, 1.0)[..., None, None]
    return CqState._of(("v2", "v3"), channel.output_dims, weights, acc)._check()


def sigma2(channel: CqChannel, dist: InputDistribution) -> CqState:
    """Joint-output state with classical registers (v2, v3).

    Block (v2, v3) is the full three-receiver output averaged over x1 and
    over x2, x3 conditioned on the auxiliaries.
    """
    pmfs = (dist.p_x1, dist.p_v2x2, dist.p_v3x3)
    return _joint_state(channel, *(p[None] for p in pmfs))


def split_sigma1(channel: CqChannel, dist: SplitInputDistribution) -> CqState:
    """Receiver-1 state with classical registers (x1, w), w = u2 + u3 mod q."""
    pmfs = (dist.p_x1, dist.p_ujxj(2), dist.p_ujxj(3), dist.p_w())
    return _sum_state(channel, *(p[None] for p in pmfs), ("x1", "w"))


def split_sigma_receiver(
    channel: CqChannel, dist: SplitInputDistribution, j: int
) -> CqState:
    """Receiver-j state with classical registers (u, x) for j in {2, 3}."""
    side = _side_states(channel)
    if j not in (2, 3):
        raise ValueError(f"receiver index must be 2 or 3, got {j}")
    p_ux, own = dist.p_ujxj(j)[None], side[j - 2]
    mats = np.broadcast_to(own, p_ux.shape + own.shape[1:])
    dims = (channel.output_dims[j - 1],)
    return CqState._of(("u", "x"), dims, p_ux, mats)._check()


def _classical_qubit(b: int, flip: float) -> np.ndarray:
    mat = np.zeros((2, 2), dtype=complex)
    mat[b, b] = 1.0 - flip
    mat[1 - b, 1 - b] = flip
    return mat


def _check_biases(delta1: float, delta: float) -> None:
    for name, val in (("delta1", delta1), ("delta", delta)):
        if not 0.0 < val < 0.5:
            raise ValueError(f"{name} must lie strictly inside (0, 0.5), got {val}")


def _parity_channel(factor, delta1: float, delta: float) -> CqChannel:
    """Binary channel with outputs factor(x1 + x2 + x3 mod 2, delta1) at
    receiver 1 and factor(x_j, delta) at receiver j; sender 1 pays unit
    cost for the symbol 1."""
    _check_biases(delta1, delta)
    states = {}
    for x1, x2, x3 in itertools.product(range(2), repeat=3):
        parity = (x1 + x2 + x3) % 2
        mat = np.kron(
            np.kron(factor(parity, delta1), factor(x2, delta)),
            factor(x3, delta),
        )
        states[(x1, x2, x3)] = DensityOperator(mat)
    costs = (np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
    return CqChannel((2, 2, 2), (2, 2, 2), states, costs)


def example1_channel(delta1: float, delta: float) -> CqChannel:
    """Binary-input channel with commuting (classical) qubit outputs.

    Receiver 1 sees the parity x1 + x2 + x3 through a flip-probability
    ``delta1`` symmetric channel embedded in the computational basis;
    receivers 2 and 3 see their own inputs through bias ``delta``.
    Sender 1 pays unit cost for the symbol 1.
    """
    return _parity_channel(_classical_qubit, delta1, delta)


def _mixed_qubit(bit: int, flip: float) -> np.ndarray:
    return example2_mix(1.0 - flip) if bit == 0 else example2_mix(flip)


def example2_channel(delta1: float, delta: float) -> CqChannel:
    """Binary-input channel whose outputs mix the non-commuting qubit pair.

    The receiver-1 factor is example2_mix(1 - delta1) when the input parity
    is 0 and example2_mix(delta1) otherwise; receivers 2 and 3 get the same
    construction from their own inputs at bias ``delta``.  Sender 1 pays
    unit cost for the symbol 1.
    """
    return _parity_channel(_mixed_qubit, delta1, delta)


def binary_input_distribution(tau: float) -> InputDistribution:
    """The canonical binary pmf: v_j = x_j uniform, x1 Bernoulli(tau)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    coupling = np.array([[0.5, 0.0], [0.0, 0.5]])
    return InputDistribution(
        q=2,
        p_x1=np.array([1.0 - tau, tau]),
        p_v2x2=coupling,
        p_v3x3=coupling,
    )


def binary_split_distribution(tau: float, mode: str = "structured") -> SplitInputDistribution:
    """Canonical split pmfs for the message-splitting region on binary channels.

    ``structured``: u_j = x_j uniform with a degenerate v_j; ``usb``: u_j
    degenerate (empty structured part) with v_j = x_j uniform.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if mode == "structured":
        p = np.zeros((2, 1, 2))
        p[0, 0, 0] = 0.5
        p[1, 0, 1] = 0.5
    elif mode == "usb":
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = 0.5
        p[0, 1, 1] = 0.5
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return SplitInputDistribution(
        q=2,
        p_x1=np.array([1.0 - tau, tau]),
        p_u2v2x2=p,
        p_u3v3x3=p.copy(),
    )
