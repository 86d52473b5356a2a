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


def _frozen_instance(delta1=0.05, delta=0.1):
    rng = np.random.default_rng(3)
    gi = rng.integers(0, 2, size=(2, 16))
    go = rng.integers(0, 2, size=(4, 16))
    b2 = rng.integers(0, 2, size=16)
    b3 = rng.integers(0, 2, size=16)
    code2 = NestedCosetCode(F2, 16, 2, 4, gi, go, b2)
    code3 = NestedCosetCode(F2, 16, 2, 4, gi, go, b3)
    return ClassicalIcInstance(
        delta1, delta, 0.15, 16, code2, code3, _disjoint_book(8, 2, 16)
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


def test_sliced_distance_tables_keep_reports(monkeypatch):
    """Bounded popcount tables give the same reports, ML tie draws included."""
    inst = _frozen_instance(delta1=0.2, delta=0.3)
    cases = [
        (run, decoder)
        for run in (simulate, simulate_independent)
        for decoder in ("typicality", "ml")
    ]

    def run_all():
        return [
            run(inst, 2500, np.random.default_rng(seed), decoder=decoder)
            for seed, (run, decoder) in enumerate(cases)
        ]

    default = run_all()
    bound = 4096
    sizes = []
    popcount = classical_sim._popcount

    def recording_popcount(arr):
        sizes.append(arr.size)
        return popcount(arr)

    monkeypatch.setattr(classical_sim, "TABLE_ENTRIES", bound)
    monkeypatch.setattr(classical_sim, "_popcount", recording_popcount)
    assert run_all() == default
    assert max(sizes) <= bound
    # more tables than one per receiver and batch: the bound did slice them
    assert len(sizes) > len(default) * 2 * 3


def _reference_decode_counts(noise_weights, group_ids, n_groups, band):
    """Per-group column-mask loop the grouped typicality table replaced."""
    in_band = (noise_weights >= band[0]) & (noise_weights <= band[1])
    table = np.zeros((noise_weights.shape[0], n_groups), dtype=bool)
    for g in range(n_groups):
        cols = group_ids == g
        if cols.any():
            table[:, g] = in_band[:, cols].any(axis=1)
    return table


def _reference_ml_errors(noise_weights, group_ids, truth, rng):
    """Per-trial minimum-distance loop the grouped ML decoder replaced."""
    best = noise_weights.min(axis=1)
    is_best = noise_weights == best[:, None]
    err = np.zeros(noise_weights.shape[0], dtype=bool)
    for t in range(noise_weights.shape[0]):
        winners = np.unique(group_ids[is_best[t]])
        pick = winners[0] if winners.size == 1 else rng.choice(winners)
        err[t] = pick != truth[t]
    return err


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    trials=st.integers(1, 40),
    top=st.integers(0, 3),
    band=st.tuples(st.integers(0, 3), st.integers(0, 2)),
    dtype=st.sampled_from([np.uint8, np.int64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_decoders_match_per_trial_loops(sizes, trials, top, band, dtype, seed):
    """Same tables, same errors and the same generator state as the loops.

    Weights come from a range of at most four values, so cross-group ties
    are common and the tie-break draws are exercised.
    """
    data = np.random.default_rng(seed)
    group_ids = np.repeat(np.arange(len(sizes)), sizes)
    weights = data.integers(0, top + 1, size=(trials, group_ids.size)).astype(dtype)
    truth = data.integers(0, len(sizes), size=trials)
    starts = classical_sim._group_starts(group_ids)
    band = (band[0], band[0] + band[1])

    table = classical_sim._decode_counts(weights, starts, band)
    assert table.dtype == bool
    assert np.array_equal(table, _reference_decode_counts(weights, group_ids, len(sizes), band))

    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _reference_ml_errors(weights, group_ids, truth, ref_rng)
    assert np.array_equal(classical_sim._ml_errors(weights, starts, truth, rng), expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "ids", [[1, 1, 2], [0, 2, 2], [0, 1, 1, 0], [0, 0, -1], [2, 1, 0], []]
)
def test_group_starts_reject_unsorted_or_gapped_ids(ids):
    with pytest.raises(ValueError, match="group ids"):
        classical_sim._group_starts(np.array(ids, dtype=np.int64))


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
