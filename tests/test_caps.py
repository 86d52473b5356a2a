"""The package's fixed caps: the one memory cap holds for every enumeration,
no public callable takes a budget parameter, and README states the caps'
values."""

import importlib
import inspect
import itertools
import re
import tracemalloc
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetcq
from cosetcq import errors, regions
from cosetcq.channels import CqChannel
from cosetcq.classical_sim import ClassicalIcInstance, simulate_independent
from cosetcq.errors import BudgetExceededError
from cosetcq.field_codes import NestedCosetCode, PrimeField, field_vectors, select_typical
from cosetcq.linalg import DensityOperator, random_density

CAPS = {"DIM_BUDGET", "LABEL_BUDGET", "MEMORY_BUDGET", "SCAN_BUDGET", "GRID_BUDGET"}


def test_readme_caps_equal_module_constants():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`(\w+)\.([A-Z][A-Z_]*)` = (\d+)(?:\^(\d+))?", readme)
    for module, name, base, exp in stated:
        value = int(base) ** int(exp or 1)
        assert getattr(importlib.import_module(f"cosetcq.{module}"), name) == value, name
    assert CAPS <= {name for _, name, _, _ in stated}


def test_no_public_callable_takes_a_budget():
    """The package defines no ``__all__``, so its public names are those
    without a leading underscore; classes are checked with their methods,
    exception types (which take a message) are not."""
    public = [
        obj
        for name, obj in vars(cosetcq).items()
        if not name.startswith("_")
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    ]
    methods = [
        member
        for cls in public
        if isinstance(cls, type)
        for name, member in vars(cls).items()
        if not name.startswith("_")
    ]
    checked = 0
    for obj in public + methods:
        if callable(obj):
            assert "budget" not in inspect.signature(obj).parameters, obj
            checked += 1
    assert checked > 50


def _random_code(rng, q, n, k, l, generators=None):
    if generators is None:
        generators = (rng.integers(0, q, (k, n)), rng.integers(0, q, (l, n)))
    return NestedCosetCode(PrimeField(q), n, k, l, *generators, rng.integers(0, q, n))


def _calls(q, n, k, l, trials, seed):
    """The four capped enumerations on one random code of sizes (q, n, k, l)."""
    rng = np.random.default_rng(seed)
    code = _random_code(rng, q, n, k, l)
    yield lambda: field_vectors(q, k + l)
    yield code.range_words
    yield lambda: select_typical(code, np.full(q, 1.0 / q), 0.5, rng)
    if q == 2:
        code3 = _random_code(rng, q, n, k, l, (code.g_inner, code.g_outer))
        book1 = (np.zeros(n, dtype=np.int64),)
        instance = ClassicalIcInstance(0.05, 0.1, 0.15, n, code, code3, book1)
        yield lambda: simulate_independent(instance, trials, rng)


def _traced_peak(call) -> int:
    """Peak bytes traced while ``call`` runs, beyond what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            call()
        except BudgetExceededError:
            pass
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@settings(max_examples=25, deadline=None)
@given(
    q=st.sampled_from([2, 3]),
    n=st.integers(1, 24),
    k=st.integers(0, 6),
    l=st.integers(0, 8),
    cap_mib=st.integers(1, 64),
    trials=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_memory_cap_bounds_every_enumeration(q, n, k, l, cap_mib, trials, seed):
    for call in _calls(2, 2, 1, 1, 2, 0):  # lazy numpy imports happen untraced
        call()
    cap = cap_mib * 2**20
    with mock.patch.object(errors, "MEMORY_BUDGET", cap):
        for call in _calls(q, n, k, l, trials, seed):
            assert _traced_peak(call) <= cap


def _product_channel(dims, seed=0) -> CqChannel:
    """A binary-input 3-to-1 channel with outputs rho1(x) (x) rho2(x2) (x) rho3(x3)."""
    rng = np.random.default_rng(seed)
    inputs = list(itertools.product(range(2), repeat=3))
    rx1 = {x: random_density(dims[0], rng).matrix for x in inputs}
    rx2, rx3 = ([random_density(d, rng).matrix for _ in range(2)] for d in dims[1:])
    states = {x: DensityOperator(np.kron(np.kron(rx1[x], rx2[x[1]]), rx3[x[2]])) for x in inputs}
    return CqChannel((2, 2, 2), dims, states, (np.zeros(2),) * 3)


def _grid_fields(result) -> tuple:
    d = result.best_dist
    arrays = (result.best_corner, d.p_x1, d.p_v2x2, d.p_v3x3)
    return (repr(result.best_value), result.evaluations) + tuple(a.tobytes() for a in arrays)


def test_grid_search_chunks_fit_the_memory_cap():
    """Output dims (4, 4, 4): one pmf's joint state and product buffer take
    512 KiB.  A cap that holds the grids and one pmf gives 300 chunks of
    one pmf, the same result and a traced peak within the count; one byte
    less is refused before the grids exist."""
    chan = _product_channel((4, 4, 4))
    w = (1.0, 0.5, 0.25)
    whole = regions.grid_search(chan, w, 3)  # also warms the channel's caches
    fixed, per_pmf = regions._grid_bytes(chan, 2, [comb(3 + a - 2, a - 1) for a in (2, 4, 4)])
    assert per_pmf > 2**19
    batched, calls, out = regions._theorem1_rhs, [], []
    with mock.patch.object(errors, "MEMORY_BUDGET", fixed + per_pmf), mock.patch.object(
        regions, "_theorem1_rhs", lambda *a: calls.append(len(a[1])) or batched(*a)
    ):
        peak = _traced_peak(lambda: out.append(regions.grid_search(chan, w, 3)))
    assert calls == [1] * 300
    assert _grid_fields(out[0]) == _grid_fields(whole)
    assert peak <= fixed + per_pmf
    with mock.patch.object(errors, "MEMORY_BUDGET", fixed + per_pmf - 1):
        with pytest.raises(BudgetExceededError, match="grid search of 300 region evaluations"):
            regions.grid_search(chan, w, 3)
        assert _traced_peak(lambda: regions.grid_search(chan, w, 3)) < 2**14
