"""Strong typicality predicates for finite-alphabet sequences.

Classical sequences (codewords, conditioning words, channel inputs) use a
*relative* frequency band: ``|freq(v) - p(v)| <= delta * p(v)`` for every
letter.  Letters of probability zero can never appear, since their band
degenerates to {0}.  Eigenvalue-label sequences inside spectral projectors
use an entropy window instead; see the povm module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "check_slack",
    "letter_counts",
    "is_relative_typical",
    "pair_sequence",
]


def check_slack(delta) -> float:
    """``delta`` as a typicality slack: >= 0, inf the fully open window; else ValueError."""
    if not float(delta) >= 0.0:
        raise ValueError(f"typicality slack delta must be >= 0, got {delta}")
    return float(delta)


def letter_counts(seq: Sequence[int], alphabet_size: int) -> np.ndarray:
    """Occurrence count of each letter ``0..alphabet_size-1`` in ``seq``."""
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d sequence, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= alphabet_size):
        raise ValueError(f"letters out of range for alphabet size {alphabet_size}")
    return np.bincount(arr, minlength=alphabet_size)


def is_relative_typical(seq, pmf: np.ndarray, delta: float):
    """Check ``|freq(v) - p(v)| <= delta * p(v)`` for every letter ``v``.

    ``seq`` may carry leading axes: each row along its last axis is one
    sequence, and the verdicts come back as a bool array over the leading
    axes (a ``bool`` for one 1-d sequence).  Every verdict equals the one
    of its row alone.
    """
    delta = check_slack(delta)
    pmf = np.asarray(pmf, dtype=float)
    seqs = np.asarray(seq, dtype=np.int64)
    if seqs.ndim == 0 or seqs.shape[-1] == 0:
        raise ValueError(f"no letter frequencies in sequences of shape {seqs.shape}")
    if seqs.size and (seqs.min() < 0 or seqs.max() >= pmf.size):
        raise ValueError(f"letters out of range for alphabet size {pmf.size}")
    freq = np.stack([(seqs == v).mean(axis=-1) for v in range(pmf.size)], axis=-1)
    # a letter of probability 0 keeps the band {0} at every delta, inf included
    band = np.multiply(delta, pmf, out=np.zeros_like(pmf), where=pmf > 0.0)
    typical = np.all(np.abs(freq - pmf) <= band + 1e-12, axis=-1)
    return bool(typical) if seqs.ndim == 1 else typical


def pair_sequence(p_ab: np.ndarray, n: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically build a jointly typical pair of length ``n``.

    Pair counts follow largest-remainder rounding of ``n * p_ab``; the result
    is checked to be relative delta-typical for the joint pmf.

    Returns
    -------
    (a_seq, b_seq) : pair of int ndarrays, each of length n.
    """
    p_ab = np.asarray(p_ab, dtype=float)
    flat = p_ab.reshape(-1)
    base = np.floor(n * flat).astype(np.int64)
    short = n - base.sum()
    if short > 0:
        order = np.argsort(-(n * flat - base))
        base[order[:short]] += 1
    pairs = []
    for idx, count in enumerate(base):
        a, b = divmod(idx, p_ab.shape[1])
        pairs.extend([(a, b)] * int(count))
    a_seq = np.array([a for a, _ in pairs], dtype=np.int64)
    b_seq = np.array([b for _, b in pairs], dtype=np.int64)
    joint = a_seq * p_ab.shape[1] + b_seq
    if not is_relative_typical(joint, flat, delta):
        raise ValueError(
            f"no deterministic {delta}-typical pair of length {n} for this pmf; "
            "increase n or delta"
        )
    return a_seq, b_seq
