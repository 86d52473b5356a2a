"""Monte Carlo simulation of the binary classical interference channel.

The channel is the commuting worked example: receiver 1 sees
x1 + v2 + v3 + noise(delta1), receivers 2 and 3 see their own word through
noise(delta).  Decoders are exhaustive typicality (or minimum-distance)
searches; receiver 1 searches the coset-sum code's range instead of the
product of the two senders' codebooks.  Each value's candidates are one
shift of a fixed target set, so a receiver with at most ``TABLE_ENTRIES``
words of n bits, and no more than its trials x candidates, reads its
decisions from one table over all 2^n words; otherwise (always for
20 <= n <= 63) it takes popcounts over every candidate.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import ConsistencyError, check_memory
from .field_codes import NestedCosetCode, coset_sum, field_vectors, select_typical
from .regions import _example1_closed_forms, _structured_feasible, conv

__all__ = [
    "ClassicalIcInstance",
    "SimReport",
    "simulate",
    "simulate_independent",
    "capacity_report",
    "wilson_interval",
]


# Trials drawn per batch of messages and noise.
BATCH_TRIALS = 2048
# Most entries in one decision table over all 2^n words, and in one slice
# of a (candidates x trials) popcount table: 4 MiB of uint64.
TABLE_ENTRIES = 2**19


def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr)


def _pack_bits(words: np.ndarray) -> np.ndarray:
    """Pack rows of 0/1 ints (length <= 63) into uint64 masks."""
    weights = np.uint64(1) << np.arange(np.shape(words)[-1], dtype=np.uint64)
    return np.asarray(words, dtype=np.uint64) @ weights


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError(f"error count {errors} lies outside [0, {trials}]")
    if not 0.0 < z < np.inf:
        raise ValueError(f"z must be finite and positive, got {z}")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    spread = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return float(max(0.0, center - spread)), float(min(1.0, center + spread))


class ClassicalIcInstance(Record):
    """One simulated configuration of the classical 3-to-1 channel.

    Parameters
    ----------
    delta1, delta : float
        Flip biases at receiver 1 and at receivers 2, 3.
    tau : float
        Per-word Hamming weight budget for sender 1 (fraction of n).
    n : int
        Blocklength (at most 63 so words pack into one machine word).
    code2, code3 : NestedCosetCode
        Binary nested coset codes sharing generator matrices.
    codebook1 : tuple
        Sender-1 words as int arrays; every word must respect ``tau``.
    """

    delta1: float
    delta: float
    tau: float
    n: int
    code2: NestedCosetCode
    code3: NestedCosetCode
    codebook1: tuple

    def __post_init__(self) -> None:
        for name, val in (("delta1", self.delta1), ("delta", self.delta)):
            if not 0.0 <= val <= 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5], got {val}")
        if self.n < 1 or self.n > 63:
            raise ValueError(f"blocklength must lie in [1, 63], got {self.n}")
        for code in (self.code2, self.code3):
            if code.field.q != 2:
                raise ValueError("only binary codes are simulated")
            if code.n != self.n:
                raise ValueError("code blocklength does not match the instance")
        if not (
            np.array_equal(self.code2.g_inner, self.code3.g_inner)
            and np.array_equal(self.code2.g_outer, self.code3.g_outer)
        ):
            raise ValueError("sender 2/3 codes must share generator matrices")
        words = tuple(np.asarray(w, dtype=np.int64) for w in self.codebook1)
        if not words:
            raise ValueError("sender-1 codebook is empty")
        for w in words:
            if w.shape != (self.n,) or w.min() < 0 or w.max() > 1:
                raise ValueError("sender-1 words must be binary of length n")
            if w.sum() > self.tau * self.n + 1e-9:
                raise ValueError("sender-1 word exceeds the weight budget tau")
        object.__setattr__(self, "codebook1", words)


class SimReport(Record):
    """Error counts and Wilson intervals from one simulation run."""

    trials: int
    errors: tuple  # (rx1, rx2, rx3)
    config: dict

    def rate(self, receiver: int) -> float:
        return self.errors[receiver - 1] / self.trials

    def interval(self, receiver: int, z: float = 1.96) -> tuple:
        return wilson_interval(self.errors[receiver - 1], self.trials, z)


def _weight_band(n: int, bias: float, slack: float) -> tuple:
    lo = int(np.ceil(n * bias * (1.0 - slack) - 1e-9))
    hi = int(np.floor(n * bias * (1.0 + slack) + 1e-9))
    return max(lo, 0), min(hi, n)


def _decision_table(n: int, targets: np.ndarray, band) -> np.ndarray:
    """A receiver's decision for every n-bit word z, indexed by z.

    With ``band`` None: d(z) = min_w |z ^ w| over the packed ``targets``
    (uint8).  Otherwise: whether some |z ^ w| lies in [band[0], band[1]]
    (bool).  Both are one transform with a pass per bit b, after which
    every z has seen the targets that differ from it in the bits passed so
    far: z combines its value with that of z ^ 2^b taken one step further.
    For d that is min(d, d' + 1).  For the band the value is the bit set of
    distances to those targets, combined by OR with the neighbour's set
    shifted up one; its dtype holds bits 0..band[1], and a bit shifted out
    would only stand for a distance above the band.
    """
    if band is None:
        table = np.full(1 << n, n + 1, dtype=np.uint8)
        table[targets] = 0
        combine, step = np.minimum, lambda x: x + np.uint8(1)
    else:
        table = np.zeros(1 << n, dtype=np.min_scalar_type((2 << band[1]) - 1))
        table[targets] = 1
        combine, step = np.bitwise_or, lambda x: x + x
    # Each half of the bits is passed as the row index of a contiguous
    # matrix (the other half after a transposed copy): long inner runs.
    m = table.reshape(1 << (n - n // 2), -1)
    for _ in range(2):
        for i in range(m.shape[0].bit_length() - 1):
            pairs = m.reshape(-1, 2, 1 << i, m.shape[1])
            a, b = pairs[:, 0], pairs[:, 1]
            a_step, b_step = step(a), step(b)
            combine(a, b_step, out=a)
            combine(b, a_step, out=b)
        m = np.ascontiguousarray(m.T)
    table = m.reshape(-1)
    if band is None:
        return table
    return (table & max((2 << band[1]) - (1 << band[0]), 0)) != 0


def _group_table(y, shifts, targets, band, table) -> np.ndarray:
    """(groups, trials) decisions for received words ``y``.

    Group g's candidates are ``shifts[g] ^ w`` for w in ``targets``, so its
    decision is the ``_decision_table`` entry at y ^ shifts[g]: read from
    ``table`` if not None, else taken from popcounts over every candidate, a
    slice of trials at a time, each at most ``TABLE_ENTRIES`` entries (or
    one trial's candidates, if more).  Group-major, so every per-trial
    reduction runs across contiguous rows.
    """
    if table is not None:
        return table[shifts[:, None] ^ y]
    cands = shifts[:, None, None] ^ targets[:, None]
    cols = max(1, TABLE_ENTRIES // cands.size)
    parts = []
    for lo in range(0, y.size, cols):
        w = _popcount(cands ^ y[lo : lo + cols])
        if band is None:
            parts.append(w.min(axis=1))
        else:
            parts.append(((w >= band[0]) & (w <= band[1])).any(axis=1))
    return np.concatenate(parts, axis=1)


def _ambiguity_errors(table: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Error indicator: the decoded set must equal exactly {truth}."""
    hit_truth = table[truth, np.arange(truth.size)]
    return ~hit_truth | (table.sum(axis=0) != 1)


def _ml_errors(group_best: np.ndarray, truth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Minimum-distance decoding; cross-group ties break uniformly at random.

    ``group_best`` holds each group's least distance per trial, one row per
    group.  Random tie-breaking keeps the useless-channel limit honest: at
    flip bias 1/2 the output carries no information and the error rate sits
    at 1 - 1/n_groups instead of saturating to 1.  Only tied trials draw,
    one bounded integer each and in trial order, all in one call: the same
    stream as one ``rng.choice`` over the sorted winning groups per tie.
    """
    # One min over the key distance * groups + group gives the least distance
    # and the first group at it; distances are uint8, so keys < 256 * groups.
    groups = np.arange(len(group_best), dtype=np.min_scalar_type(256 * len(group_best) - 1))
    key = (group_best * groups.dtype.type(groups.size) + groups[:, None]).min(axis=0)
    pick = key % groups.size
    is_best = group_best == key // groups.size
    ties = is_best.sum(axis=0)
    tied = ties > 1
    draw = rng.integers(0, ties[tied])
    pick[tied] = (is_best[:, tied].cumsum(axis=0) > draw).argmax(axis=0)
    return pick != truth


def _count_errors(instance, trials, rng, words, shifts, targets, decoder, dec_delta) -> tuple:
    """Error counts at the three receivers over ``trials`` random messages.

    ``words`` holds the packed codebooks of senders 1, 2 and 3, indexed by
    message.  Receiver r's candidates for value g are ``shifts[r][g] ^ w``,
    w in ``targets[0]`` (the interference sums) for receiver 1 and in
    ``targets[1]`` for receivers 2 and 3.  Every transmitted interference
    sum must lie in ``targets[0]``, else ConsistencyError.  A receiver
    decides through a ``_decision_table`` when its 2^n entries number at
    most ``TABLE_ENTRIES`` and at most its trials x candidates.
    Refused beyond the memory cap before any table exists, counting bytes
    per sum (16: it and a sorted copy), decision-table entry (17), and of
    one receiver at a time per popcount candidate (8) and slice entry (12);
    per entry of a batch's (values, trials) tables (20) and noise letter (32).
    """
    n = instance.n
    batch = min(BATCH_TRIALS, trials)
    sizes = [s.size * t.size for s, t in zip(shifts[:2], targets)]
    lookup = [(1 << n) <= min(TABLE_ENTRIES, trials * size) for size in sizes]
    popcount = [8 * c + 12 * min(c * batch, max(c, TABLE_ENTRIES)) for c in sizes]
    check_memory(
        16 * targets[0].size
        + 17 * (1 << n) * sum(lookup)
        + max(0 if ok else cost for ok, cost in zip(lookup, popcount))
        + batch * (20 * max(s.size for s in shifts) + 32 * n),
        f"decoding tables over {max(sizes)} candidates",
    )
    bands = [
        None if decoder == "ml" else _weight_band(n, bias, dec_delta)
        for bias in (instance.delta1, instance.delta)
    ]
    tables = [
        _decision_table(n, t, band) if ok else None
        for t, band, ok in zip(targets, bands, lookup)
    ]
    biases = np.array([instance.delta1, instance.delta, instance.delta])[:, None, None]
    sums = np.sort(targets[0])
    errors = [0, 0, 0]
    done = 0
    while done < trials:
        batch = min(BATCH_TRIALS, trials - done)
        msgs = [rng.integers(len(w), size=batch) for w in words]
        noise = _pack_bits(rng.random((3, batch, n)) < biases)
        sent = [w[m] for w, m in zip(words, msgs)]
        inter = sent[1] ^ sent[2]
        if not (sums.take(np.searchsorted(sums, inter), mode="clip") == inter).all():
            raise ConsistencyError("transmitted interference sum left the coset-sum range")
        received = (sent[0] ^ inter ^ noise[0], sent[1] ^ noise[1], sent[2] ^ noise[2])
        for r, (y, true) in enumerate(zip(received, msgs)):
            side = min(r, 1)  # receivers 2 and 3 share targets and band
            group = _group_table(y, shifts[r], targets[side], bands[side], tables[side])
            if decoder == "ml":
                errors[r] += int(_ml_errors(group, true, rng).sum())
            else:
                errors[r] += int(_ambiguity_errors(group, true).sum())
        done += batch
    return tuple(errors)


def _check_run(decoder: str, trials: int) -> None:
    if decoder not in ("typicality", "ml"):
        raise ValueError(f"unknown decoder {decoder!r}")
    if trials < 1:
        raise ValueError("trials must be positive")


def _report(instance, trials, rng, decoder, dec_delta, mode, tables, **extra) -> SimReport:
    """``_count_errors`` over ``tables`` = (words, shifts, targets),
    reported with the run's configuration; ``extra`` (``simulate``'s
    ``enc_delta``) goes before ``dec_delta``."""
    errors = _count_errors(instance, trials, rng, *tables, decoder, dec_delta)
    config = {
        "mode": mode,
        "decoder": decoder,
        "trials": trials,
        "n": instance.n,
        "delta1": instance.delta1,
        "delta": instance.delta,
        "tau": instance.tau,
        **extra,
        "dec_delta": dec_delta,
        "sum_candidates": int(tables[2][0].size),
    }
    return SimReport(trials, errors, config)


def simulate(
    instance: ClassicalIcInstance,
    trials: int,
    rng: np.random.Generator,
    enc_delta: float = 0.25,
    dec_delta: float = 0.5,
    decoder: str = "typicality",
) -> SimReport:
    """Run the structured (coset-sum decoding) simulation.

    Senders 2 and 3 transmit typical coset words of their nested codes;
    receiver 1 exhaustively tests (own word, interference word) pairs with
    the interference ranging over the coset-sum code's distinct range words.
    A receiver errs when the set of decoded values differs from the truth
    singleton (typicality decoder) or when minimum distance, with ties
    broken uniformly at random, lands elsewhere (ml decoder).

    Every trial checks that the transmitted interference sum lies in the
    coset-sum range; a violation raises ConsistencyError.
    """
    _check_run(decoder, trials)
    codes = (instance.code2, instance.code3)
    uniform = np.array([0.5, 0.5])
    encs = [select_typical(code, uniform, enc_delta, rng) for code in codes]
    msgs = instance.code2.messages()
    keys = [tuple(m) for m in msgs.tolist()]
    words = [
        _pack_bits(code.codeword([enc.chosen[m] for m in keys], msgs))
        for code, enc in zip(codes, encs)
    ]
    packed1 = _pack_bits(np.stack(instance.codebook1))
    sums = _pack_bits(coset_sum(*codes).range_words())
    # Receivers 2/3 search their full code range: the coset of message m is
    # m g_outer + dither shifted by every inner word a g_inner.
    zeros = np.zeros((len(msgs), instance.code2.k), dtype=np.int64)
    shifts = [_pack_bits(code.codeword(zeros, msgs)) for code in codes]
    inner = _pack_bits(field_vectors(2, instance.code2.k) @ instance.code2.g_inner % 2)
    tables = ((packed1, *words), (packed1, *shifts), (sums, inner))
    return _report(
        instance, trials, rng, decoder, dec_delta, "structured", tables, enc_delta=enc_delta
    )


def simulate_independent(
    instance: ClassicalIcInstance,
    trials: int,
    rng: np.random.Generator,
    dec_delta: float = 0.5,
    decoder: str = "typicality",
) -> SimReport:
    """Baseline run with unstructured i.i.d. codebooks for senders 2 and 3.

    Each sender gets an independent uniformly random codebook with the same
    message count as the structured instance; receiver 1 must consider every
    pairwise sum of their words, so its search space grows from the
    coset-sum range to (up to) the product of the codebook sizes.
    """
    _check_run(decoder, trials)
    n = instance.n
    n_msgs = 2**instance.code2.l
    # 16 bytes per drawn letter; per pairwise sum, np.unique's copies and mask.
    check_memory(16 * n_msgs * n + 25 * n_msgs**2, f"{n_msgs}^2 pairwise codeword sums")
    packed2 = _pack_bits(rng.integers(0, 2, size=(n_msgs, n)))
    packed3 = _pack_bits(rng.integers(0, 2, size=(n_msgs, n)))
    packed1 = _pack_bits(np.stack(instance.codebook1))
    sums = np.unique((packed2[:, None] ^ packed3[None, :]).reshape(-1))
    words = (packed1, packed2, packed3)
    tables = (words, words, (sums, np.zeros(1, dtype=np.uint64)))
    return _report(instance, trials, rng, decoder, dec_delta, "independent", tables)


def capacity_report(delta1: float, delta: float, tau: float) -> dict:
    """Closed-form capacity quantities of the commuting worked example.

    The unstructured sum-rate test compares the three point-to-point
    capacities against the receiver-1 bound with random interference; the
    structured feasibility asks that sender 1's effective bias stays below
    the side receivers' bias, conv(tau, delta1) < delta < 1/2.
    """
    cap1, capj, rhs = _example1_closed_forms(delta1, delta, tau)
    lhs = cap1 + 2.0 * capj
    return {
        "tx1_capacity": cap1,
        "ptp_capacity": capj,
        "unstructured_lhs": lhs,
        "unstructured_rhs": rhs,
        "unstructured_impossible": bool(lhs > rhs),
        "structured_feasible": _structured_feasible(delta1, delta, tau),
        "effective_bias": conv(tau, delta1),
    }
