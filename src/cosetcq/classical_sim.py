"""Monte Carlo simulation of the binary classical interference channel.

The channel is the commuting worked example: receiver 1 sees
x1 + v2 + v3 + noise(delta1), receivers 2 and 3 see their own word through
noise(delta).  Decoders are exhaustive typicality (or minimum-distance)
searches; receiver 1 searches the coset-sum code's range instead of the
product of the two senders' codebooks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .field_codes import NestedCosetCode, coset_sum, select_typical
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
# Most entries in one (trials x candidates) distance table: 4 MiB of uint64.
TABLE_ENTRIES = 2**19


def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr)


def _pack_bits(words: np.ndarray) -> np.ndarray:
    """Pack rows of 0/1 ints (length <= 63) into uint64 masks."""
    n = words.shape[-1]
    weights = (1 << np.arange(n, dtype=np.uint64))
    return (words.astype(np.uint64) * weights).sum(axis=-1)


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    spread = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return float(max(0.0, center - spread)), float(min(1.0, center + spread))


@dataclass(frozen=True)
class ClassicalIcInstance:
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


@dataclass(frozen=True)
class SimReport:
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


def _group_starts(group_ids: np.ndarray) -> np.ndarray:
    """First column of each group in a candidate list sorted by decoded value.

    ``group_ids`` must run 0, 1, ..., G-1 in non-decreasing order with every
    id present, so each group is one run of columns; anything else would
    shift the reduced columns, so it raises ValueError.
    """
    ids = np.asarray(group_ids)
    steps = np.diff(ids, prepend=-1)
    if ids.ndim != 1 or ids.size == 0 or ((steps != 0) & (steps != 1)).any():
        raise ValueError("group ids must run 0..G-1, non-decreasing, every id present")
    return np.flatnonzero(steps)


def _decode_counts(noise_weights: np.ndarray, starts: np.ndarray, band: tuple) -> np.ndarray:
    """Per-trial bitmask of groups owning at least one in-band candidate.

    noise_weights : (trials, candidates) Hamming weights
    starts : first column of each group (see ``_group_starts``)
    Returns a boolean (trials, n_groups) table.
    """
    in_band = (noise_weights >= band[0]) & (noise_weights <= band[1])
    return np.logical_or.reduceat(in_band, starts, axis=1)


def _ambiguity_errors(table: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Error indicator: the decoded set must equal exactly {truth}."""
    trials = table.shape[0]
    hit_truth = table[np.arange(trials), truth]
    extras = table.sum(axis=1) - hit_truth.astype(int)
    return ~hit_truth | (extras > 0)


def _ml_errors(
    noise_weights: np.ndarray,
    starts: np.ndarray,
    truth: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Minimum-distance decoding; cross-group ties break uniformly at random.

    Random tie-breaking keeps the useless-channel limit honest: at flip
    bias 1/2 the output carries no information and the error rate sits at
    1 - 1/n_groups instead of saturating to 1.  Only tied trials draw, one
    bounded integer each and in trial order, all in one call: the same
    stream as one ``rng.choice`` over the sorted winning groups per tie.
    """
    group_best = np.minimum.reduceat(noise_weights, starts, axis=1)
    is_best = group_best == group_best.min(axis=1, keepdims=True)
    pick = is_best.argmax(axis=1)
    ties = is_best.sum(axis=1)
    tied = ties > 1
    draw = rng.integers(0, ties[tied])
    pick[tied] = (is_best[tied].cumsum(axis=1) > draw[:, None]).argmax(axis=1)
    return pick != truth


def _decode_errors(received, candidates, starts, truth, bands, decoder, rng) -> list:
    """Decoding errors of one batch at each receiver, in receiver order.

    Each argument but ``decoder`` and ``rng`` holds one entry per receiver:
    packed received words, packed candidate masks sorted by decoded value,
    the first column of each value's run of candidates (``_group_starts``),
    the transmitted values and the typicality band.
    Distances are tabulated a slice of trials at a time, at most
    ``TABLE_ENTRIES`` entries per table (or one trial's row, if larger);
    slices run in trial order, so ML tie-break draws come in the same order
    at any slice size.
    """
    errors = []
    for y, cands, first, true, band in zip(received, candidates, starts, truth, bands):
        rows = max(1, TABLE_ENTRIES // cands.size)
        count = 0
        for lo in range(0, y.size, rows):
            w = _popcount(y[lo : lo + rows, None] ^ cands[None, :])
            if decoder == "typicality":
                table = _decode_counts(w, first, band)
                count += int(_ambiguity_errors(table, true[lo : lo + rows]).sum())
            else:
                count += int(_ml_errors(w, first, true[lo : lo + rows], rng).sum())
        errors.append(count)
    return errors


def _count_errors(
    instance, trials, rng, words, sums, side, side_groups, decoder, dec_delta
) -> tuple:
    """Error counts at the three receivers over ``trials`` random messages.

    ``words`` holds the packed codebooks of senders 1, 2 and 3, indexed by
    message.  Receiver 1 tests every (sender-1 word, interference word) pair
    with the interference in ``sums``; every transmitted interference sum
    must lie there, else ConsistencyError.  Receivers 2 and 3 test their
    packed candidates ``side``, whose decoded values are ``side_groups``
    (non-decreasing and contiguous, else ValueError).
    """
    pair_masks = (words[0][:, None] ^ sums[None, :]).reshape(-1)
    pair_starts = _group_starts(np.repeat(np.arange(len(words[0])), sums.size))
    side_starts = _group_starts(side_groups)
    band23 = _weight_band(instance.n, instance.delta, dec_delta)
    bands = (_weight_band(instance.n, instance.delta1, dec_delta), band23, band23)
    errors = (0, 0, 0)
    done = 0
    while done < trials:
        batch = min(BATCH_TRIALS, trials - done)
        m1, m2, m3 = (rng.integers(len(w), size=batch) for w in words)
        noise = [
            _pack_bits(rng.random((batch, instance.n)) < bias)
            for bias in (instance.delta1, instance.delta, instance.delta)
        ]
        tx_sum = words[1][m2] ^ words[2][m3]
        if not np.isin(tx_sum, sums).all():
            raise ConsistencyError("transmitted interference sum left the coset-sum range")
        received = (
            words[0][m1] ^ tx_sum ^ noise[0],
            words[1][m2] ^ noise[1],
            words[2][m3] ^ noise[2],
        )
        batch_errors = _decode_errors(
            received,
            (pair_masks, *side),
            (pair_starts, side_starts, side_starts),
            (m1, m2, m3),
            bands,
            decoder,
            rng,
        )
        errors = tuple(e + b for e, b in zip(errors, batch_errors))
        done += batch
    return errors


def _check_decoder(decoder: str) -> None:
    if decoder not in ("typicality", "ml"):
        raise ValueError(f"unknown decoder {decoder!r}")


def _report(instance, trials, rng, decoder, dec_delta, mode, tables, **extra) -> SimReport:
    """``_count_errors`` over ``tables`` = (words, sums, side, side_groups),
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
        "sum_candidates": int(tables[1].size),
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
    _check_decoder(decoder)
    uniform = np.array([0.5, 0.5])
    enc2 = select_typical(instance.code2, uniform, enc_delta, rng)
    enc3 = select_typical(instance.code3, uniform, enc_delta, rng)
    msgs2 = instance.code2.messages()
    words2 = np.stack([enc2.codeword_for(m) for m in msgs2])
    words3 = np.stack([enc3.codeword_for(m) for m in msgs2])
    sum_code = coset_sum(instance.code2, instance.code3)
    sum_words = sum_code.range_words()
    packed1 = _pack_bits(np.stack(instance.codebook1))
    # Receivers 2/3 search their full code range, grouped by message.
    cands2 = _pack_bits(np.concatenate([instance.code2.coset(m) for m in msgs2]))
    groups2 = np.repeat(np.arange(len(msgs2)), 2**instance.code2.k)
    offset23 = _pack_bits(instance.code3.dither) ^ _pack_bits(instance.code2.dither)
    cands3 = cands2 ^ offset23  # same generators, shifted dither

    words = (packed1, _pack_bits(words2), _pack_bits(words3))
    tables = (words, _pack_bits(sum_words), (cands2, cands3), groups2)
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
    _check_decoder(decoder)
    n = instance.n
    n_msgs = 2**instance.code2.l
    packed2 = _pack_bits(rng.integers(0, 2, size=(n_msgs, n)))
    packed3 = _pack_bits(rng.integers(0, 2, size=(n_msgs, n)))
    packed1 = _pack_bits(np.stack(instance.codebook1))

    sums = np.unique((packed2[:, None] ^ packed3[None, :]).reshape(-1))
    tables = ((packed1, packed2, packed3), sums, (packed2, packed3), np.arange(n_msgs))
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
