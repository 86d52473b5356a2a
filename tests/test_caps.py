"""The package's fixed caps: the one memory cap holds for every enumeration,
no public callable takes a budget parameter, and README states the caps'
values."""

import importlib
import inspect
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetcq
from cosetcq import errors
from cosetcq.classical_sim import ClassicalIcInstance, simulate_independent
from cosetcq.errors import BudgetExceededError
from cosetcq.field_codes import NestedCosetCode, PrimeField, field_vectors, select_typical

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
