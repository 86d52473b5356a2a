from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcq import classical_sim
from cosetcq.classical_sim import (
    ClassicalIcInstance,
    capacity_report,
    simulate,
    simulate_independent,
    wilson_interval,
)
from cosetcq.errors import ConsistencyError
from cosetcq.field_codes import NestedCosetCode, PrimeField
from cosetcq.regions import conv, hb

F2 = PrimeField(2)


def _disjoint_book(n_words, weight, n):
    """Sender-1 words with pairwise disjoint supports."""
    book = []
    for i in range(n_words):
        w = np.zeros(n, dtype=np.int64)
        w[i * weight : (i + 1) * weight] = 1
        book.append(w)
    return tuple(book)


def _frozen_instance(delta1=0.05, delta=0.1, n=16):
    rng = np.random.default_rng(3)
    gi = rng.integers(0, 2, size=(2, n))
    go = rng.integers(0, 2, size=(4, n))
    b2 = rng.integers(0, 2, size=n)
    b3 = rng.integers(0, 2, size=n)
    code2 = NestedCosetCode(F2, n, 2, 4, gi, go, b2)
    code3 = NestedCosetCode(F2, n, 2, 4, gi, go, b3)
    return ClassicalIcInstance(
        delta1, delta, 0.15, n, code2, code3, _disjoint_book(8, 2, n)
    )


def test_instance_validation():
    inst = _frozen_instance()
    with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
        ClassicalIcInstance(0.6, 0.1, 0.15, 16, inst.code2, inst.code3, inst.codebook1)
    with pytest.raises(ValueError, match="blocklength must lie"):
        ClassicalIcInstance(0.1, 0.1, 0.15, 64, inst.code2, inst.code3, inst.codebook1)
    with pytest.raises(ValueError, match="empty"):
        ClassicalIcInstance(0.1, 0.1, 0.15, 16, inst.code2, inst.code3, ())
    with pytest.raises(ValueError, match="weight budget"):
        ClassicalIcInstance(
            0.1, 0.1, 0.15, 16, inst.code2, inst.code3, _disjoint_book(5, 3, 16)
        )
    other = NestedCosetCode(
        F2, 16, 2, 4,
        (inst.code2.g_inner + 1) % 2, inst.code2.g_outer, inst.code3.dither,
    )
    with pytest.raises(ValueError, match="share generator"):
        ClassicalIcInstance(0.1, 0.1, 0.15, 16, inst.code2, other, inst.codebook1)


def test_unknown_decoder():
    inst = _frozen_instance()
    with pytest.raises(ValueError, match="decoder"):
        simulate(inst, 10, np.random.default_rng(0), decoder="map")
    with pytest.raises(ValueError, match="decoder"):
        simulate_independent(inst, 10, np.random.default_rng(0), decoder="map")


def test_noiseless_channel_decodes_perfectly():
    inst = _frozen_instance(delta1=0.0, delta=0.0)
    for decoder in ("typicality", "ml"):
        report = simulate(inst, 500, np.random.default_rng(1), decoder=decoder)
        assert report.errors == (0, 0, 0), decoder


def test_useless_channel_hits_blind_guessing_rate():
    # at bias 1/2 the side outputs are independent of the messages, so
    # minimum distance with random tie-breaking gets 1/16 right by luck
    inst = _frozen_instance(delta=0.5)
    report = simulate(inst, 10_000, np.random.default_rng(2), decoder="ml")
    blind = 1.0 - 1.0 / 16.0
    assert abs(report.rate(2) - blind) < 0.02
    assert abs(report.rate(3) - blind) < 0.02


def test_replay_is_deterministic():
    inst = _frozen_instance()
    a = simulate(inst, 2000, np.random.default_rng(5))
    b = simulate(inst, 2000, np.random.default_rng(5))
    assert a.errors == b.errors
    assert a.config == b.config
    assert a.config["mode"] == "structured"
    # the receiver-1 search uses the coset-sum range, not all word pairs
    assert a.config["sum_candidates"] <= 2**6


def test_report_accessors():
    inst = _frozen_instance()
    report = simulate(inst, 1000, np.random.default_rng(9))
    for rx in (1, 2, 3):
        lo, hi = report.interval(rx)
        assert 0.0 <= lo <= report.rate(rx) <= hi <= 1.0


def test_error_rate_grows_with_receiver1_noise():
    rates = []
    intervals = []
    for delta1 in (0.02, 0.1, 0.2):
        inst = _frozen_instance(delta1=delta1)
        report = simulate(inst, 10_000, np.random.default_rng(4), decoder="ml")
        rates.append(report.rate(1))
        intervals.append(report.interval(1))
    assert rates[0] < rates[1] < rates[2]
    # Wilson intervals must not overlap
    assert intervals[0][1] < intervals[1][0]
    assert intervals[1][1] < intervals[2][0]


def test_structured_beats_independent_codebooks():
    inst = _frozen_instance()
    structured = simulate(
        inst, 3000, np.random.default_rng(11), dec_delta=1.5, decoder="typicality"
    )
    independent = simulate_independent(
        inst, 3000, np.random.default_rng(12), dec_delta=1.5, decoder="typicality"
    )
    # receiver 1's ambiguity explodes once the interference stops being
    # confined to a small coset-sum range
    assert structured.interval(1)[1] < independent.interval(1)[0]
    assert independent.config["sum_candidates"] > structured.config["sum_candidates"]


def _recording(monkeypatch, name):
    """Replace ``classical_sim.<name>`` by a wrapper; returns its call log."""
    calls = []
    original = getattr(classical_sim, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(classical_sim, name, wrapper)
    return calls


def _run_both_modes(inst, trials):
    cases = [
        (run, decoder)
        for run in (simulate, simulate_independent)
        for decoder in ("typicality", "ml")
    ]
    return [
        run(inst, trials, np.random.default_rng(seed), decoder=decoder)
        for seed, (run, decoder) in enumerate(cases)
    ]


def test_sliced_distance_tables_keep_reports(monkeypatch):
    """Popcount tables (bounded) give the decision tables' reports, ML tie draws included."""
    inst = _frozen_instance(delta1=0.2, delta=0.3)
    builds = _recording(monkeypatch, "_decision_table")
    default = _run_both_modes(inst, 2500)
    assert builds
    builds.clear()
    bound = 4096
    popcounts = _recording(monkeypatch, "_popcount")
    monkeypatch.setattr(classical_sim, "TABLE_ENTRIES", bound)
    assert _run_both_modes(inst, 2500) == default
    # 2^16 words exceed the bound: every receiver took the popcount path
    assert not builds
    sizes = [arr.size for (arr,) in popcounts]
    assert max(sizes) <= bound
    # more tables than one per receiver and batch: the bound did slice them
    assert len(sizes) > len(default) * 2 * 3


def test_table_path_at_n20_keeps_reports(monkeypatch):
    """2^20 words exceed ``TABLE_ENTRIES``: popcounts decide, unless raised."""
    inst = _frozen_instance(delta1=0.1, delta=0.2, n=20)
    builds = _recording(monkeypatch, "_decision_table")
    default = _run_both_modes(inst, 2048)
    assert not builds
    monkeypatch.setattr(classical_sim, "TABLE_ENTRIES", 2**20)
    assert _run_both_modes(inst, 2048) == default
    # receiver 1 tests at least 2^20 / 2048 candidates in both modes
    assert len(builds) >= 4


@pytest.mark.parametrize("sums", [[0, 7, 9], [0, 1]])
def test_sum_outside_targets_raises_before_counting(sums, monkeypatch):
    """One-word senders 2 and 3 always send the sum 5 ^ 3 = 6."""
    inst = _frozen_instance()
    packed1 = classical_sim._pack_bits(np.stack(inst.codebook1))
    words = (packed1, np.array([5], dtype=np.uint64), np.array([3], dtype=np.uint64))
    targets = (np.array(sums, dtype=np.uint64), np.zeros(1, dtype=np.uint64))
    groups = _recording(monkeypatch, "_group_table")
    with pytest.raises(ConsistencyError, match="coset-sum range"):
        classical_sim._count_errors(
            inst, 100, np.random.default_rng(0), words, words, targets, "ml", 0.5
        )
    assert not groups


@pytest.mark.parametrize("trials", [0, -5])
def test_nonpositive_trials_are_rejected_before_any_draw(trials):
    inst = _frozen_instance()
    for run in (simulate, simulate_independent):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="trials must be positive"):
            run(inst, trials, rng)
        assert rng.bit_generator.state == state


def _distances(z, words):
    return np.bitwise_count(np.asarray(z, dtype=np.uint64)[:, None] ^ words[None, :])


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 9),
    data=st.data(),
)
def test_decision_tables_match_brute_force(n, data):
    """Every word z, odd n, duplicate targets, empty and full bands."""
    targets = np.array(
        data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=12)),
        dtype=np.uint64,
    )
    lo = data.draw(st.integers(0, n + 1))
    hi = data.draw(st.integers(max(lo - 2, 0), n))
    d = _distances(np.arange(2**n), targets)
    table = classical_sim._decision_table(n, targets, None)
    assert table.dtype == np.uint8
    assert np.array_equal(table, d.min(axis=1))
    for band in ((lo, hi), (0, n)):
        table = classical_sim._decision_table(n, targets, band)
        assert table.dtype == bool
        assert np.array_equal(table, ((d >= band[0]) & (d <= band[1])).any(axis=1)), band


def _reference_errors(received, shifts, targets, truth, band, rng):
    """Per-trial loop over every candidate shifts[g] ^ w, one rng.choice per ML tie."""
    err = np.zeros(received.size, dtype=bool)
    for t, y in enumerate(received):
        d = _distances(y ^ shifts, targets)
        if band is None:
            winners = np.flatnonzero(d.min(axis=1) == d.min())
            pick = winners[0] if winners.size == 1 else rng.choice(winners)
            err[t] = pick != truth[t]
        else:
            decoded = np.flatnonzero(((d >= band[0]) & (d <= band[1])).any(axis=1))
            err[t] = decoded.tolist() != [truth[t]]
    return err


def _check_both_paths(n, targets, shifts, band, entries, seed, received, truth):
    """Table and sliced popcount paths: the loops' errors and generator state."""
    trials = received.size
    ref_rng = np.random.default_rng(seed)
    expected = _reference_errors(received, shifts, targets, truth, band, ref_rng)
    for table in (None, classical_sim._decision_table(n, targets, band)):
        rng = np.random.default_rng(seed)
        with mock.patch.object(classical_sim, "TABLE_ENTRIES", entries):
            group = classical_sim._group_table(received, shifts, targets, band, table)
        assert group.shape == (shifts.size, trials)
        if band is None:
            errors = classical_sim._ml_errors(group, truth, rng)
        else:
            errors = classical_sim._ambiguity_errors(group, truth)
        assert np.array_equal(errors, expected), table is None
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    data=st.data(),
    ml=st.booleans(),
    entries=st.sampled_from([1, 7, 2**19]),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_decoder_paths_match_per_trial_loops(n, data, ml, entries, seed):
    """Short words make cross-group ties common, so tie-break draws are exercised."""
    words = st.integers(0, 2**n - 1)
    targets = np.array(data.draw(st.lists(words, min_size=1, max_size=6)), dtype=np.uint64)
    shifts = np.array(data.draw(st.lists(words, min_size=1, max_size=6)), dtype=np.uint64)
    lo = data.draw(st.integers(0, n + 1))
    band = None if ml else (lo, data.draw(st.integers(max(lo - 1, 0), n)))
    sample = np.random.default_rng(seed)
    trials = int(sample.integers(1, 40))
    received = sample.integers(0, 2**n, size=trials).astype(np.uint64)
    truth = sample.integers(0, shifts.size, size=trials)
    _check_both_paths(n, targets, shifts, band, entries, seed, received, truth)


@pytest.mark.parametrize("band", [None, (0, 1)])
@pytest.mark.parametrize("entries", [7, 2**19])
def test_more_than_255_values_keep_exact_counts(band, entries):
    """257 equal shifts: a tie or hit count in 8 bits would wrap to 1.

    Half the received words are candidates of the 257-fold value, so it
    often wins or hits alone.
    """
    rng = np.random.default_rng(21)
    pair = rng.choice(2**10, size=2, replace=False).astype(np.uint64)
    shifts = rng.permutation(np.repeat(pair, [257, 43]))
    targets = rng.integers(0, 2**10, size=6).astype(np.uint64)
    received = np.concatenate(
        [pair[0] ^ rng.choice(targets, size=30), rng.integers(0, 2**10, size=30, dtype=np.uint64)]
    )
    truth = rng.integers(0, shifts.size, size=60)
    _check_both_paths(10, targets, shifts, band, entries, 5, received, truth)


def test_capacity_report_closed_forms():
    rep = capacity_report(0.01, 0.1, 0.0918)
    assert rep["tx1_capacity"] == pytest.approx(
        hb(conv(0.0918, 0.01)) - hb(0.01), abs=1e-12
    )
    assert rep["ptp_capacity"] == pytest.approx(1.0 - hb(0.1), abs=1e-12)
    assert rep["unstructured_rhs"] == pytest.approx(1.0 - hb(0.01), abs=1e-12)
    assert rep["unstructured_impossible"]
    assert rep["structured_feasible"]
    assert rep["effective_bias"] == pytest.approx(conv(0.0918, 0.01), abs=1e-15)
    # an overweight sender 1 cannot keep its interference decodable
    assert not capacity_report(0.01, 0.1, 0.4)["structured_feasible"]


def test_wilson_interval_bounds():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0, abs=1e-12) and 0.9 < lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert isinstance(lo, float) and isinstance(hi, float)
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_wilson_interval_refuses_error_counts_outside_the_trials():
    """12 errors in 10 trials gave (0.0, 1.0) with a RuntimeWarning, and -1
    errors gave it silently."""
    for errors in (-1, 11, 12):
        with pytest.raises(ValueError, match="outside"):
            wilson_interval(errors, 10)
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0, abs=1e-12)


def test_wilson_interval_refuses_a_z_that_is_not_finite_and_positive():
    """z = -1.96 gave (0.603, 0.108), lo above hi, and z = NaN gave (0.0, 1.0)."""
    for z in (-1.96, 0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="z must be finite and positive"):
            wilson_interval(3, 10, z=z)
    lo, hi = wilson_interval(3, 10, z=1.0)
    assert 0.0 < lo < 0.3 < hi < 1.0
