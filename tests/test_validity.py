"""One probability-array rule: every entry point that takes a pmf accepts
and refuses the same arrays, through ``errors.check_pmf``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcq.channels import InputDistribution, SplitInputDistribution, example1_channel
from cosetcq.errors import check_pmf
from cosetcq.field_codes import NestedCosetCode, PrimeField, select_typical
from cosetcq.povm import verify_pinching
from cosetcq.regions import NccRateParams, shannon, usb_region

_CODE = NestedCosetCode(PrimeField(2), 2, 0, 1, np.zeros((0, 2)), [[1, 0]], [0, 1])
_CHANNEL = example1_channel(0.05, 0.1)
_HALF = np.array([0.5, 0.5])

# Each entry point with the shape it takes the generated pmf in.
CALLEES = {
    "InputDistribution": ((2, 1), lambda p: InputDistribution(2, [1.0], p, [[1.0], [0.0]])),
    "SplitInputDistribution": (
        (2, 1, 1),
        lambda p: SplitInputDistribution(2, [1.0], p, np.full((2, 1, 1), 0.5)),
    ),
    "select_typical": ((2,), lambda p: select_typical(_CODE, p, 0.5, np.random.default_rng(0))),
    "verify_pinching": ((1, 2), lambda p: verify_pinching(p, [np.eye(2) / 2] * 2, [], 0.1)),
    "shannon": ((2,), shannon),
    "NccRateParams": ((2,), lambda p: NccRateParams(2, 2, 1, 1, p)),
    "usb_region": ((2,), lambda p: usb_region(_CHANNEL, _HALF, p, _HALF)),
}


def _pmf(kind: str, p: float, eps: float) -> np.ndarray:
    """A two-letter array: a pmf, or one with a negative entry or a sum off by 2e-9."""
    if kind == "negative":
        return np.array([1.0 + eps, -eps])
    if kind == "sum":
        return np.array([p, 1.0 - p + 2e-9])
    return np.array([p, 1.0 - p])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["valid", "negative", "sum", "shape"]),
    p=st.floats(0.0, 1.0),
    eps=st.floats(1e-300, 1.0),
)
def test_every_pmf_entry_point_applies_one_rule(kind, p, eps):
    """A valid pmf passes everywhere; a negative entry (however small), a
    sum 2e-9 off 1, or an extra leading axis is a ValueError everywhere."""
    flat = _pmf(kind, p, eps)
    for name, (shape, call) in CALLEES.items():
        arr = flat.reshape(((1,) if kind == "shape" else ()) + shape)
        if kind == "valid":
            call(arr)
        else:
            with pytest.raises(ValueError):
                call(arr)
            with pytest.raises(ValueError):
                check_pmf(arr, name, shape)


def test_check_pmf_names_the_array_and_the_shape():
    assert check_pmf([0.25, 0.75], "p", (None,)).dtype == np.float64
    with pytest.raises(ValueError, match=r"p has shape \(2,\), expected \(3, \*\)"):
        check_pmf([0.5, 0.5], "p", (3, None))
    with pytest.raises(ValueError, match="p is not a probability array"):
        check_pmf([0.5, np.nan], "p")
    with pytest.raises(ValueError, match="p is not a probability array"):
        check_pmf([], "p")
