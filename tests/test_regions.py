import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcq.channels import (
    CqChannel,
    InputDistribution,
    SplitInputDistribution,
    binary_input_distribution,
    binary_split_distribution,
    example1_channel,
    example2_channel,
    example2_mix,
)
from cosetcq.errors import BudgetExceededError, ModelViolationError
from cosetcq.linalg import DensityOperator, von_neumann_entropy
from test_channels_properties import _random_channel

from cosetcq.regions import (
    Constraint,
    NccRateParams,
    RatePoint,
    RegionSpec,
    _unique_rows,
    conv,
    example_separation_witness,
    grid_search,
    hb,
    shannon,
    simplex_grid,
    theorem1_region,
    theorem2_bounds,
    theorem3_region,
    usb_region,
)

THEOREM1_NAMES = (
    "r1", "r2", "r3", "r2_coset", "r3_coset", "r1_plus_r2", "r1_plus_r3"
)


def test_binary_entropy_values():
    assert hb(0.0) == 0.0
    assert hb(1.0) == 0.0
    assert hb(0.5) == 1.0
    assert hb(0.11) == pytest.approx(hb(0.89), abs=1e-15)
    assert hb(0.25) == pytest.approx(2.0 - 0.75 * np.log2(3), abs=1e-12)
    with pytest.raises(ValueError):
        hb(1.2)
    with pytest.raises(ValueError):
        hb(-0.1)


def test_convolution_values():
    assert conv(0.3, 0.0) == pytest.approx(0.3)
    assert conv(0.3, 0.5) == pytest.approx(0.5)
    assert conv(0.2, 0.3) == pytest.approx(0.2 * 0.7 + 0.3 * 0.8, abs=1e-15)
    assert conv(0.2, 0.3) == pytest.approx(conv(0.3, 0.2), abs=1e-15)
    with pytest.raises(ValueError):
        conv(1.5, 0.2)


def test_shannon_entropy():
    assert shannon([0.25] * 4) == pytest.approx(2.0)
    assert shannon([1.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        shannon([0.5, 0.6])


def test_rate_point_defaults_and_validation():
    p = RatePoint(0.1, 0.2, 0.3)
    np.testing.assert_array_equal(p.rates, [0.1, 0.2, 0.3])
    assert np.all(np.isinf(p.taus))
    with pytest.raises(ValueError, match="nonnegative"):
        RatePoint(-0.1, 0.0, 0.0)


def test_rate_point_refuses_nan_rates_and_budgets():
    """A NaN rate passed the nonnegativity test and every region then held
    the point; a NaN budget never bound.  Infinite budgets stay the default."""
    region = RegionSpec((Constraint("r1", (1, 0, 0), 0.5),), (0.3, 0.0, 0.0))
    for rates in ((np.nan, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            RatePoint(*rates)
    for budget in ("tau1", "tau2", "tau3"):
        with pytest.raises(ValueError, match="NaN"):
            RatePoint(0.1, 0.0, 0.0, **{budget: np.nan})
    assert region.contains(RatePoint(0.1, 0.0, 0.0, tau2=np.inf))
    assert not region.contains(RatePoint(0.6, 0.0, 0.0))


def test_region_spec_contains_and_corners():
    cube = RegionSpec(
        (
            Constraint("r1", (1, 0, 0), 1.0),
            Constraint("r2", (0, 1, 0), 1.0),
            Constraint("r3", (0, 0, 1), 1.0),
        ),
        (0.0, 0.0, 0.0),
    )
    assert cube.contains(RatePoint(0.5, 0.5, 0.5))
    assert cube.contains(RatePoint(1.0, 1.0, 1.0))
    assert not cube.contains(RatePoint(1.0 + 1e-6, 0.0, 0.0))
    corners = cube.corner_points()
    assert corners.shape == (8, 3)
    value, corner = cube.max_weighted_sum((1.0, 1.0, 1.0))
    assert value == pytest.approx(3.0)
    np.testing.assert_allclose(corner, [1.0, 1.0, 1.0])


def test_region_spec_sum_constraint_corner():
    region = RegionSpec(
        (
            Constraint("r1", (1, 0, 0), 1.0),
            Constraint("r2", (0, 1, 0), 1.0),
            Constraint("r1_plus_r2", (1, 1, 0), 1.5),
            Constraint("r3", (0, 0, 1), 0.0),
        ),
        (0.0, 0.0, 0.0),
    )
    value, corner = region.max_weighted_sum((1.0, 1.0, 0.0))
    assert value == pytest.approx(1.5)
    assert not region.contains(RatePoint(1.0, 1.0, 0.0))
    assert region.contains(RatePoint(1.0, 0.5, 0.0))


def _reference_corner_points(region, tol=1e-9):
    """The one-triple-at-a-time vertex enumeration the batched solve replaced."""
    planes = [(np.asarray(c.coeffs, dtype=float), c.rhs) for c in region.constraints]
    for i in range(3):
        e = np.zeros(3)
        e[i] = -1.0
        planes.append((e, 0.0))
    corners = []
    for trio in itertools.combinations(range(len(planes)), 3):
        a = np.stack([planes[i][0] for i in trio])
        b = np.array([planes[i][1] for i in trio])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        v = np.linalg.solve(a, b)
        if v.min() < -tol:
            continue
        if any(float(np.dot(c.coeffs, v)) > c.rhs + tol for c in region.constraints):
            continue
        corners.append(np.clip(v, 0.0, None))
    if not corners:
        return np.zeros((1, 3))
    return np.unique(np.round(np.array(corners), 9), axis=0)


# Small integer coefficients and rhs values that often coincide, so singular
# triples, repeated vertices and empty or unbounded regions are all common.
constraint_lists = st.lists(
    st.tuples(
        st.tuples(*[st.integers(-1, 2)] * 3),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 3.0)),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(constraint_lists, st.tuples(*[st.floats(-1.0, 2.0)] * 3))
def test_batched_corners_equal_triple_loop(constraints, weights):
    region = RegionSpec(
        tuple(Constraint(f"c{i}", co, rhs) for i, (co, rhs) in enumerate(constraints)),
        (0.0, 0.0, 0.0),
    )
    want = _reference_corner_points(region)
    got = region.corner_points()
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # no -0.0 either
    values = want @ np.asarray(weights)
    best = int(np.argmax(values))
    value, corner = region.max_weighted_sum(weights)
    assert value == float(values[best])
    assert np.array_equal(corner, want[best])


# Few distinct entries, so rows repeat; -0.0 and NaNs of both signs tie
# with +0.0 and with each other in a sort.
ENTRIES = np.array([0.0, -0.0, 0.5, 1.0, 2.0, 1e-10, -1e-10, -0.5, np.nan, -np.nan])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.booleans())
def test_unique_rows_equal_np_unique(seed, n_rows, with_nan):
    """Byte for byte, on rows as ``_vertices`` leaves them: clipped at 0 and
    rounded, duplicates kept; past 16 rows ``np.unique`` sorts unstably."""
    rng = np.random.default_rng(seed)
    raw = ENTRIES[rng.integers(0, len(ENTRIES) - (0 if with_nan else 2), size=(n_rows, 3))]
    points = np.round(np.clip(raw, 0.0, None), 9)
    got = _unique_rows(points)
    want = np.unique(points, axis=0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_region_spec_cost_budgets():
    region = RegionSpec(
        (Constraint("r1", (1, 0, 0), 1.0),), (0.3, 0.0, 0.0)
    )
    assert region.contains(RatePoint(0.5, 0.0, 0.0))  # default budgets are inf
    assert region.contains(RatePoint(0.5, 0.0, 0.0, tau1=0.3))
    assert not region.contains(RatePoint(0.5, 0.0, 0.0, tau1=0.2))
    with pytest.raises(KeyError):
        region.constraint("nope")


def test_theorem1_closed_form_on_parity_channel():
    """All seven bounds have elementary closed forms on the parity channel."""
    delta1, delta, tau = 0.01, 0.1, 0.0918
    region = theorem1_region(
        example1_channel(delta1, delta), binary_input_distribution(tau)
    )
    assert tuple(c.name for c in region.constraints) == THEOREM1_NAMES
    want = {
        "r1": hb(conv(tau, delta1)) - hb(delta1),
        "r2": 1.0 - hb(delta),
        "r3": 1.0 - hb(delta),
        "r2_coset": 1.0 - hb(delta1),
        "r3_coset": 1.0 - hb(delta1),
        "r1_plus_r2": 1.0 - hb(delta1),
        "r1_plus_r3": 1.0 - hb(delta1),
    }
    for name, rhs in want.items():
        c = region.constraint(name)
        assert c.rhs == pytest.approx(rhs, abs=1e-9), name
        assert not c.clamped
    np.testing.assert_allclose(region.cost_expectations, [tau, 0.0, 0.0], atol=1e-12)


def test_theorem1_r1_entropy_identity_on_mixing_channel():
    # the receiver-1 bound only depends on the parity bias, which is affine
    # in the pair mixture, so it collapses to an entropy difference
    delta1, tau = 0.05, 0.2
    region = theorem1_region(
        example2_channel(delta1, 0.2), binary_input_distribution(tau)
    )
    s = lambda p: von_neumann_entropy(example2_mix(p))
    assert region.constraint("r1").rhs == pytest.approx(
        s(conv(tau, delta1)) - s(delta1), abs=1e-9
    )
    assert region.constraint("r2").rhs == pytest.approx(s(0.5) - s(0.2), abs=1e-9)


def test_theorem1_clamps_negative_coset_bound():
    # a very noisy receiver 1 plus a skewed v2 pushes the coset bound
    # below zero; it must come back clamped at zero
    dist = InputDistribution(
        2,
        p_x1=[0.5, 0.5],
        p_v2x2=np.array([[0.9, 0.0], [0.0, 0.1]]),
        p_v3x3=np.array([[0.5, 0.0], [0.0, 0.5]]),
    )
    region = theorem1_region(example1_channel(0.4, 0.1), dist)
    raw = hb(0.1) - 1.0 + (1.0 - hb(0.4))
    assert raw < -0.4
    c = region.constraint("r2_coset")
    assert c.rhs == 0.0
    assert c.clamped


def test_theorem2_window_classification():
    # skewed pmf over two orthogonal pure states: both H(V) and the Holevo
    # information equal hb(1/4)
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    pmf = np.array([0.75, 0.25])
    chi = hb(0.25)

    b = theorem2_bounds(NccRateParams(2, 4, 1, 2, pmf), states)
    assert b.h_v == pytest.approx(chi, abs=1e-12)
    assert b.holevo == pytest.approx(chi, abs=1e-12)
    assert b.inner_density_ok and b.total_rate_ok
    assert b.message_rate == pytest.approx(0.5)

    b = theorem2_bounds(NccRateParams(2, 6, 2, 3, pmf), states)
    assert b.inner_density_ok and b.total_rate_ok

    # (k + l)/n = 1 sits exactly on the total-rate boundary
    b = theorem2_bounds(NccRateParams(2, 2, 1, 1, pmf), states)
    assert b.inner_density_ok and not b.total_rate_ok

    # message rate 5/6 exceeds the Holevo information, so the total-rate
    # condition has to fail
    b = theorem2_bounds(NccRateParams(2, 6, 2, 5, pmf), states)
    assert not b.total_rate_ok
    assert b.message_rate > b.holevo


def test_theorem2_uniform_orthogonal_edge():
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    b = theorem2_bounds(NccRateParams(2, 4, 2, 1, [0.5, 0.5]), states)
    assert b.holevo == pytest.approx(1.0, abs=1e-12)
    assert b.inner_density_ok and b.total_rate_ok
    with pytest.raises(ValueError, match="states"):
        theorem2_bounds(NccRateParams(2, 4, 2, 1, [0.5, 0.5]), states[:1])
    with pytest.raises(ValueError, match="exceed"):
        NccRateParams(2, 2, 3, 1, [0.5, 0.5])


def _degenerate_split(rng):
    """Random split pmf whose structured letters are constant zero."""
    p_x1 = rng.dirichlet(np.ones(2))
    blocks = []
    for _ in range(2):
        p = np.zeros((2, 2, 2))
        p[0] = rng.dirichlet(np.ones(4)).reshape(2, 2)
        blocks.append(p)
    return SplitInputDistribution(2, p_x1, blocks[0], blocks[1])


def test_theorem3_degenerate_u_matches_unstructured_baseline():
    """With constant structured letters the two regions must coincide.

    The baseline is computed straight from output marginals, without the
    block-diagonal state machinery (both share the receiver-1 average).
    """
    chan = example2_channel(0.05, 0.2)
    rng = np.random.default_rng(42)
    for _ in range(3):
        dist = _degenerate_split(rng)
        t3 = theorem3_region(chan, dist)
        base = usb_region(
            chan,
            dist.p_x1,
            dist.p_u2v2x2.sum(axis=(0, 1)),
            dist.p_u3v3x3.sum(axis=(0, 1)),
        )
        for c in base.constraints:
            assert t3.constraint(c.name).rhs == pytest.approx(
                c.rhs, abs=1e-9
            ), c.name


def test_usb_region_rejects_bad_pmfs():
    chan = example2_channel(0.05, 0.2)
    good = np.array([0.5, 0.5])
    for bad in ([1.0], [0.7, 0.7], [1.5, -0.5]):
        with pytest.raises(ValueError, match="sender 2"):
            usb_region(chan, good, np.array(bad), good)


def test_usb_region_refuses_a_channel_that_is_not_3to1():
    """Receiver 2 sees x1 + x2 mod 2: the baseline refuses the channel with
    theorem 3's message instead of reading receiver 2 at x1 = 0."""

    def flip(bit, eps):
        return np.diag([eps, 1.0 - eps] if bit else [1.0 - eps, eps])

    states = {
        x: DensityOperator(reduce(np.kron, [flip(sum(x) % 2, 0.1), flip((x[0] + x[1]) % 2, 0.2),
                                            flip(x[2], 0.2)]))
        for x in itertools.product(range(2), repeat=3)
    }
    chan = CqChannel((2, 2, 2), (2, 2, 2), states, (np.zeros(2),) * 3)
    half = np.array([0.5, 0.5])
    with pytest.raises(ModelViolationError, match="not 3-to-1") as t3:
        theorem3_region(chan, binary_split_distribution(0.2, "usb"))
    with pytest.raises(ModelViolationError) as usb:
        usb_region(chan, half, half, half)
    assert str(usb.value) == str(t3.value)


def test_theorem3_structured_mode_bounds():
    chan = example1_channel(0.01, 0.1)
    tau = 0.0918
    region = theorem3_region(chan, binary_split_distribution(tau, "structured"))
    # receiver 1 decodes the parity cleanly at this bias, so its private
    # line matches the coset-code bound
    assert region.constraint("r1").rhs == pytest.approx(
        hb(conv(tau, 0.01)) - hb(0.01), abs=1e-9
    )
    assert region.constraint("r2").rhs == pytest.approx(1.0 - hb(0.1), abs=1e-9)


def test_separation_witness_parity_channel():
    rep = example_separation_witness(1, 0.01, 0.1)
    assert rep.tau == pytest.approx(0.09 / 0.98, abs=1e-12)
    lhs = hb(conv(rep.tau, 0.01)) - hb(0.01) + 2.0 * (1.0 - hb(0.1))
    assert rep.unstructured_lhs == pytest.approx(lhs, abs=1e-12)
    assert rep.unstructured_rhs == pytest.approx(1.0 - hb(0.01), abs=1e-12)
    assert rep.margin > 0.4
    assert rep.structured_feasible
    assert rep.ncc_point_in_theorem1
    assert rep.separation


def test_separation_witness_mixing_channel():
    for delta1, delta in ((0.01, 0.1), (0.05, 0.2)):
        rep = example_separation_witness(2, delta1, delta)
        assert rep.separation, (delta1, delta)
        assert rep.margin > 0.0
        s = lambda p: von_neumann_entropy(example2_mix(p))
        assert rep.unstructured_rhs == pytest.approx(s(0.5) - s(delta1), abs=1e-12)


def test_separation_witness_tau_override():
    # a bias too large for receiver 1 to strip the interference
    rep = example_separation_witness(1, 0.01, 0.1, tau=0.2)
    assert not rep.structured_feasible
    assert not rep.separation
    with pytest.raises(ValueError, match="example"):
        example_separation_witness(3, 0.01, 0.1)


def test_simplex_grid_counts():
    pmfs = list(simplex_grid(2, 5))
    assert len(pmfs) == 5
    for p in pmfs:
        assert p.sum() == pytest.approx(1.0)
    assert len(list(simplex_grid(3, 3))) == 6
    with pytest.raises(ValueError):
        list(simplex_grid(2, 1))


def test_grid_search_small_resolution():
    chan = example1_channel(0.05, 0.1)
    result = grid_search(chan, (1.0, 1.0, 1.0), resolution=3)
    assert result.evaluations == 300
    assert result.best_value > 0.0
    # the reported corner must actually live in the reported region
    region = theorem1_region(chan, result.best_dist)
    assert region.contains(RatePoint(*result.best_corner), tol=1e-9)


def test_grid_search_budget(monkeypatch):
    import cosetcq.regions as regions

    chan = example1_channel(0.05, 0.1)
    monkeypatch.setattr(regions, "GRID_BUDGET", 100)
    with pytest.raises(BudgetExceededError, match="300 region evaluations in a grid search exceed budget 100"):
        grid_search(chan, (1.0, 1.0, 1.0), resolution=3)


# grid_search(example, resolution=3) at delta1 = 0.01, delta = 0.1, captured
# before the grid was evaluated in batches: repr of best_value, best_corner
# and the best pmf's three arrays, then the evaluation count.
GRID_GOLDEN = {
    (1, (1.0, 1.0, 1.0)): ("1.45021127", "[0.388202458, 0.531004406, 0.531004406]",
                           "[0.5, 0.5]", "[[0.5, 0.0], [0.0, 0.5]]", "[[0.5, 0.0], [0.0, 0.5]]", 300),
    (1, (0.2, 0.5, 0.3)): ("0.5024440163999999", "[0.388202458, 0.531004406, 0.531004406]",
                           "[0.5, 0.5]", "[[0.5, 0.0], [0.0, 0.5]]", "[[0.5, 0.0], [0.0, 0.5]]", 300),
    (2, (1.0, 1.0, 1.0)): ("0.065905024", "[0.013295794, 0.026304615, 0.026304615]",
                           "[0.5, 0.5]", "[[0.5, 0.0], [0.0, 0.5]]", "[[0.5, 0.0], [0.0, 0.5]]", 300),
    (2, (0.2, 0.5, 0.3)): ("0.0237028508", "[0.013295794, 0.026304615, 0.026304615]",
                           "[0.5, 0.5]", "[[0.5, 0.0], [0.0, 0.5]]", "[[0.5, 0.0], [0.0, 0.5]]", 300),
}


def _grid_record(result) -> tuple:
    d = result.best_dist
    return (repr(result.best_value), repr(result.best_corner.tolist()), repr(d.p_x1.tolist()),
            repr(d.p_v2x2.tolist()), repr(d.p_v3x3.tolist()), result.evaluations)


@pytest.mark.parametrize("example, weights", list(GRID_GOLDEN))
def test_grid_search_matches_golden(example, weights):
    chan = (example1_channel if example == 1 else example2_channel)(0.01, 0.1)
    assert _grid_record(grid_search(chan, weights, 3)) == GRID_GOLDEN[(example, weights)]


def _reference_grid_search(chan, w, resolution, q):
    """The per-pmf scan: one ``theorem1_region`` per grid point, first maximiser."""
    n_x1, n_x2, n_x3 = chan.input_sizes
    best = None
    for p_x1 in simplex_grid(n_x1, resolution):
        for p22 in simplex_grid(q * n_x2, resolution):
            for p33 in simplex_grid(q * n_x3, resolution):
                dist = InputDistribution(q, p_x1, p22.reshape(q, n_x2), p33.reshape(q, n_x3))
                value, corner = theorem1_region(chan, dist).max_weighted_sum(w)
                if best is None or value > best[0]:
                    best = (value, corner, dist)
    return best


# Tied objectives (zero and equal weights) exercise the first-maximiser rule.
objectives = st.one_of(
    st.sampled_from([(1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)]),
    st.tuples(*[st.floats(0.0, 1.0, allow_nan=False)] * 3),
)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1), objectives, st.sampled_from([2, 3]))
def test_grid_search_equals_per_pmf_loop(seed, weights, q):
    """On random ternary 3-to-1 channels, over point-mass pmfs (108 or 243
    of them, many regions tied), the batched scan keeps every bit of the
    loop."""
    chan = _random_channel(np.random.default_rng(seed))
    got = grid_search(chan, weights, 2, q=q)
    value, corner, dist = _reference_grid_search(chan, np.asarray(weights), 2, q)
    assert repr(got.best_value) == repr(value)
    assert got.best_corner.tobytes() == corner.tobytes()
    for name in ("p_x1", "p_v2x2", "p_v3x3"):
        assert getattr(got.best_dist, name).tobytes() == getattr(dist, name).tobytes()


def test_grid_search_chunks_do_not_change_the_result(monkeypatch):
    import cosetcq.regions as regions

    chan = example2_channel(0.05, 0.2)
    whole = [_grid_record(grid_search(chan, w, 3)) for w in ((1.0, 1.0, 1.0), (0.1, 0.7, 0.2))]
    monkeypatch.setattr(regions, "GRID_CHUNK", 7)  # 300 pmfs in 43 chunks
    calls = []
    batched = regions._theorem1_rhs
    monkeypatch.setattr(regions, "_theorem1_rhs", lambda *a: calls.append(len(a[1])) or batched(*a))
    chunked = [_grid_record(grid_search(chan, w, 3)) for w in ((1.0, 1.0, 1.0), (0.1, 0.7, 0.2))]
    assert chunked == whole
    assert calls == 2 * ([7] * 42 + [6])
    monkeypatch.setattr(regions, "GRID_CHUNK", 1)  # every pmf a batch of one
    assert _grid_record(grid_search(chan, (1.0, 1.0, 1.0), 3)) == whole[0]


def test_grid_search_budget_checked_before_any_grid(monkeypatch):
    import cosetcq.regions as regions

    def refuse(*args):
        raise AssertionError("grid built before the budget check")

    monkeypatch.setattr(regions, "simplex_grid", refuse)
    monkeypatch.setattr(regions, "_theorem1_rhs", refuse)
    monkeypatch.setattr(regions, "GRID_BUDGET", 299)
    with pytest.raises(BudgetExceededError, match="budget"):
        grid_search(example1_channel(0.05, 0.1), (1.0, 1.0, 1.0), resolution=3)
