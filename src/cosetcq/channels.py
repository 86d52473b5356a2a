"""Three-user classical-quantum interference channels and their CQ states.

A channel maps a classical input triple (x1, x2, x3) to a density operator on
the tensor product of three receiver spaces.  Channels of interest here are
3-to-1: receivers 2 and 3 each see a reduced state depending only on their
own input, so all interference lands on receiver 1.

Classical-quantum states are kept block-diagonal: a ``CqState`` is a map
from classical register labels to (probability, density matrix) pairs, never
an explicit diagonal embedding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelViolationError
from .linalg import DensityOperator, _entropies, partial_trace, trace_distance

__all__ = [
    "CqChannel",
    "CqState",
    "InputDistribution",
    "SplitInputDistribution",
    "is_3to1",
    "aux_average",
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


@dataclass(frozen=True)
class CqChannel:
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
            if c.min() < 0:
                raise ValueError(f"cost table {j} has negative entries")
        object.__setattr__(self, "input_sizes", sizes)
        object.__setattr__(self, "output_dims", dims)
        object.__setattr__(self, "costs", costs)

    def inputs(self):
        return itertools.product(*(range(s) for s in self.input_sizes))

    @cached_property
    def marginals(self) -> tuple:
        """Per receiver j, the reduced output states as a read-only
        (|X1|, |X2|, |X3|, d_j, d_j) array, traced out once on first use."""
        out = []
        for j, d in enumerate(self.output_dims):
            arr = np.empty(self.input_sizes + (d, d), dtype=complex)
            for x in self.inputs():
                arr[x] = partial_trace(self.states[x].matrix, self.output_dims, [j])
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
    ``(False, (j, x, x_prime))`` with a violating input pair.
    """
    for j in (1, 2):
        groups: dict = {}
        for x in channel.inputs():
            groups.setdefault(x[j], []).append(x)
        for _, members in groups.items():
            ref = members[0]
            ref_state = channel.output_marginal(ref, j)
            for other in members[1:]:
                dist = trace_distance(ref_state, channel.output_marginal(other, j))
                if dist > tol:
                    return False, (j + 1, ref, other)
    return True, None


@dataclass(frozen=True)
class CqState:
    """Block-diagonal classical-quantum state.

    Attributes
    ----------
    registers : tuple of str
        Names of the classical registers, in label order.
    quantum_dims : tuple of int
        Factor dimensions of the quantum part.
    blocks : dict
        label tuple -> (probability, density matrix ndarray).  Zero-weight
        labels may be omitted; weights must sum to 1.
    """

    registers: tuple
    quantum_dims: tuple
    blocks: dict

    def __post_init__(self) -> None:
        total = sum(p for p, _ in self.blocks.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"block weights sum to {total!r}, expected 1")
        dim = int(np.prod(self.quantum_dims))
        for label, (p, mat) in self.blocks.items():
            if len(label) != len(self.registers):
                raise ValueError(f"label {label} does not match registers")
            if p < -1e-12:
                raise ValueError(f"negative weight for label {label}")
            if mat.shape != (dim, dim):
                raise ValueError(f"block {label} has shape {mat.shape}")

    def mixture(self) -> np.ndarray:
        """The unconditional quantum state (classical registers traced out)."""
        dim = int(np.prod(self.quantum_dims))
        out = np.zeros((dim, dim), dtype=complex)
        for p, mat in self.blocks.values():
            out += p * mat
        return out

    def marginal_registers(self, keep: tuple) -> "CqState":
        """Marginalize classical registers not named in ``keep``."""
        idx = [self.registers.index(name) for name in keep]
        merged: dict = {}
        for label, (p, mat) in self.blocks.items():
            if p <= 0.0:
                continue
            sub = tuple(label[i] for i in idx)
            if sub in merged:
                merged[sub][0] += p
                merged[sub][1] += p * mat
            else:
                merged[sub] = [p, p * mat.copy()]
        blocks = {lab: (p, mat / p) for lab, (p, mat) in merged.items()}
        return CqState(tuple(keep), self.quantum_dims, blocks)

    def reduce_quantum(self, keep) -> "CqState":
        """Partial-trace every block down to the given quantum factors."""
        keep = sorted(int(i) for i in keep)
        blocks = {
            lab: (p, partial_trace(mat, self.quantum_dims, keep))
            for lab, (p, mat) in self.blocks.items()
        }
        new_dims = tuple(self.quantum_dims[i] for i in keep)
        return CqState(self.registers, new_dims, blocks)


def label_entropy(state: CqState, registers: tuple) -> float:
    """Shannon entropy (bits) of the named classical registers' marginal."""
    idx = [state.registers.index(name) for name in registers]
    pmf: dict = {}
    for label, (p, _) in state.blocks.items():
        key = tuple(label[i] for i in idx)
        pmf[key] = pmf.get(key, 0.0) + p
    probs = np.array([p for p in pmf.values() if p > 0.0])
    return float(-(probs @ np.log2(probs)))


def cq_entropy(state: CqState, registers: tuple = None) -> float:
    """Von Neumann entropy (bits) of the state with only ``registers`` kept.

    ``registers=None`` keeps every classical register; ``()`` gives the
    entropy of the bare quantum mixture.  For a block-diagonal state this is
    H(labels) plus the average block entropy.
    """
    if registers is None:
        registers = state.registers
    reduced = state.marginal_registers(tuple(registers))
    h_labels = label_entropy(reduced, reduced.registers)
    blocks = reduced.blocks.values()  # all of positive weight
    ents = _entropies([mat for _, mat in blocks])
    return h_labels + sum(p * h for (p, _), h in zip(blocks, ents))


def cq_mutual_information(state: CqState, classical: tuple, given: tuple = ()) -> float:
    """Holevo information I(quantum ; classical | given) in bits.

    Computed as sum_c p(c) [ S(rho_c) - sum_a p(a|c) S(rho_{a,c}) ] where
    ``a`` runs over the ``classical`` registers and ``c`` over ``given``.
    Zero-probability conditioning labels are skipped.
    """
    classical = tuple(classical)
    given = tuple(given)
    overlap = set(classical) & set(given)
    if overlap:
        raise ValueError(f"registers {overlap} appear on both sides")
    joint = state.marginal_registers(given + classical)  # drops zero weights
    groups: dict = {}
    for label, (p, mat) in joint.blocks.items():
        groups.setdefault(label[: len(given)], []).append((p, mat))
    # Per group c: its average state, then its members; one stacked call.
    stack = []
    for sub in groups.values():
        p_c = sum(p for p, _ in sub)
        stack += [sum(p * mat for p, mat in sub) / p_c] + [mat for _, mat in sub]
    ents = iter(_entropies(stack))
    total = 0.0
    for sub in groups.values():
        p_c = sum(p for p, _ in sub)
        h_avg = next(ents)
        total += p_c * (h_avg - sum((p / p_c) * next(ents) for p, _ in sub))
    return float(total)


def classical_conditional_entropy(state: CqState, registers: tuple) -> float:
    """H(registers | quantum part) in bits, other registers marginalized."""
    return cq_entropy(state, tuple(registers)) - cq_entropy(state, ())


def classical_quantum_mi(state: CqState, a_regs: tuple, b_regs: tuple) -> float:
    """I(A ; B, quantum) in bits for disjoint classical register sets A, B."""
    a_regs, b_regs = tuple(a_regs), tuple(b_regs)
    if set(a_regs) & set(b_regs):
        raise ValueError("register sets must be disjoint")
    return (
        label_entropy(state, a_regs)
        + cq_entropy(state, b_regs)
        - cq_entropy(state, a_regs + b_regs)
    )


def _cyclic_sum_pmf(p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    """Distribution of a + b mod q for independent a ~ p_a, b ~ p_b over Z_q."""
    q = len(p_a)
    out = np.zeros(q)
    for i in range(q):
        for j in range(q):
            out[(i + j) % q] += p_a[i] * p_b[j]
    return out


def _check_pmf(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.min() < 0 or abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} is not a probability array")
    return arr


@dataclass(frozen=True)
class InputDistribution:
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
        object.__setattr__(self, "p_x1", _check_pmf(self.p_x1, "p_x1"))
        for name in ("p_v2x2", "p_v3x3"):
            arr = _check_pmf(getattr(self, name), name)
            if arr.ndim != 2 or arr.shape[0] != self.q:
                raise ValueError(f"{name} must have shape (q, |X|)")
            object.__setattr__(self, name, arr)

    @property
    def p_v2(self) -> np.ndarray:
        return self.p_v2x2.sum(axis=1)

    @property
    def p_v3(self) -> np.ndarray:
        return self.p_v3x3.sum(axis=1)

    def p_u(self) -> np.ndarray:
        """Distribution of u = v2 + v3 mod q."""
        return _cyclic_sum_pmf(self.p_v2, self.p_v3)

    def cost_expectations(self, channel: CqChannel) -> np.ndarray:
        """E[cost_j(X_j)] for the three senders under this distribution."""
        return channel.expected_costs(
            self.p_x1, self.p_v2x2.sum(axis=0), self.p_v3x3.sum(axis=0)
        )


@dataclass(frozen=True)
class SplitInputDistribution:
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
        object.__setattr__(self, "p_x1", _check_pmf(self.p_x1, "p_x1"))
        for name in ("p_u2v2x2", "p_u3v3x3"):
            arr = _check_pmf(getattr(self, name), name)
            if arr.ndim != 3 or arr.shape[0] != self.q:
                raise ValueError(f"{name} must have shape (q, |V|, |X|)")
            object.__setattr__(self, name, arr)

    def p_uj(self, j: int) -> np.ndarray:
        arr = self.p_u2v2x2 if j == 2 else self.p_u3v3x3
        return arr.sum(axis=(1, 2))

    def p_ujxj(self, j: int) -> np.ndarray:
        arr = self.p_u2v2x2 if j == 2 else self.p_u3v3x3
        return arr.sum(axis=1)

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


def aux_average(
    channel: CqChannel, x1: int, p_a2x2: np.ndarray, p_a3x3: np.ndarray, s: int
) -> np.ndarray:
    """Receiver-1 state at input x1 summed over auxiliary pairs with one sum.

    Returns the unnormalised sum over a2 + a3 = s (mod q) and (x2, x3) of
    p(a2, x2) p(a3, x3) rho_Y1(x1, x2, x3), q the row count of ``p_a2x2``.
    Terms are added in (a2, x2, x3) order, zero weights skipped.
    """
    q = len(p_a2x2)
    rho1 = channel.marginals[0][x1]
    dim1 = channel.output_dims[0]
    acc = np.zeros((dim1, dim1), dtype=complex)
    for a2 in range(q):
        a3 = (s - a2) % q
        for x2 in range(channel.input_sizes[1]):
            for x3 in range(channel.input_sizes[2]):
                w = p_a2x2[a2, x2] * p_a3x3[a3, x3]
                if w <= 0.0:
                    continue
                acc += w * rho1[x2, x3]
    return acc


def _sum_state(channel, p_x1, p_a2x2, p_a3x3, p_s, registers) -> CqState:
    """Receiver-1 state with registers (x1, s), s the auxiliary sum mod q."""
    _require_3to1(channel)
    blocks: dict = {}
    for x1 in range(channel.input_sizes[0]):
        p1 = p_x1[x1]
        if p1 <= 0.0:
            continue
        for s in range(len(p_s)):
            if p_s[s] <= 0.0:
                continue
            acc = aux_average(channel, x1, p_a2x2, p_a3x3, s)
            blocks[(x1, s)] = (p1 * p_s[s], acc / p_s[s])
    return CqState(registers, (channel.output_dims[0],), blocks)


def sigma1(channel: CqChannel, dist: InputDistribution) -> CqState:
    """Receiver-1 auxiliary state with classical registers (x1, u).

    Block (x1, u) carries the Y_1 reduction of the channel output averaged
    over (v2, x2, v3, x3) conditioned on v2 + v3 = u, weighted by
    p(x1) p_U(u).  Labels with p_U(u) = 0 are omitted.
    """
    return _sum_state(
        channel, dist.p_x1, dist.p_v2x2, dist.p_v3x3, dist.p_u(), ("x1", "u")
    )


def sigma2(channel: CqChannel, dist: InputDistribution) -> CqState:
    """Joint-output state with classical registers (v2, v3).

    Block (v2, v3) is the full three-receiver output averaged over x1 and
    over x2, x3 conditioned on the auxiliaries.
    """
    _require_3to1(channel)
    q = dist.q
    dim = int(np.prod(channel.output_dims))
    p_v2, p_v3 = dist.p_v2, dist.p_v3
    blocks: dict = {}
    for v2 in range(q):
        for v3 in range(q):
            weight = p_v2[v2] * p_v3[v3]
            if weight <= 0.0:
                continue
            acc = np.zeros((dim, dim), dtype=complex)
            for x1 in range(channel.input_sizes[0]):
                for x2 in range(channel.input_sizes[1]):
                    for x3 in range(channel.input_sizes[2]):
                        w = (
                            dist.p_x1[x1]
                            * dist.p_v2x2[v2, x2]
                            * dist.p_v3x3[v3, x3]
                        )
                        if w <= 0.0:
                            continue
                        acc += w * channel.states[(x1, x2, x3)].matrix
            blocks[(v2, v3)] = (weight, acc / weight)
    return CqState(("v2", "v3"), channel.output_dims, blocks)


def split_sigma1(channel: CqChannel, dist: SplitInputDistribution) -> CqState:
    """Receiver-1 state with classical registers (x1, w), w = u2 + u3 mod q."""
    return _sum_state(
        channel, dist.p_x1, dist.p_ujxj(2), dist.p_ujxj(3), dist.p_w(), ("x1", "w")
    )


def split_sigma_receiver(
    channel: CqChannel, dist: SplitInputDistribution, j: int
) -> CqState:
    """Receiver-j state with classical registers (u, x) for j in {2, 3}."""
    _require_3to1(channel)
    if j not in (2, 3):
        raise ValueError(f"receiver index must be 2 or 3, got {j}")
    p_ux = dist.p_ujxj(j)
    blocks: dict = {}
    for u in range(dist.q):
        for x in range(channel.input_sizes[j - 1]):
            weight = p_ux[u, x]
            if weight <= 0.0:
                continue
            probe = [0, 0, 0]
            probe[j - 1] = x
            # 3-to-1 structure: the Y_j reduction depends on x_j alone.
            blocks[(u, x)] = (weight, channel.output_marginal(tuple(probe), j - 1))
    return CqState(("u", "x"), (channel.output_dims[j - 1],), blocks)


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
