import json

import numpy as np
import pytest

from cosetcq.channels import example1_channel, example2_channel
from cosetcq.errors import SpecFileError
from cosetcq.linalg import trace_distance
from cosetcq.specfile import (
    parse_channel,
    parse_channel_file,
    serialize_channel,
    write_channel_file,
)


def test_round_trip_is_exact(tmp_path):
    chan = example2_channel(0.05, 0.2)
    path = tmp_path / "chan.json"
    write_channel_file(chan, path)
    back = parse_channel_file(str(path))
    assert back.input_sizes == chan.input_sizes
    assert back.output_dims == chan.output_dims
    for j in range(3):
        np.testing.assert_array_equal(back.costs[j], chan.costs[j])
    for x in chan.inputs():
        # bit-for-bit equality, not just closeness
        np.testing.assert_array_equal(back.states[x].matrix, chan.states[x].matrix)


def test_shortcut_form():
    chan = parse_channel({"example": 1, "delta1": 0.05, "delta": 0.1})
    want = example1_channel(0.05, 0.1)
    for x in chan.inputs():
        assert trace_distance(chan.states[x], want.states[x]) < 1e-12
    with pytest.raises(SpecFileError, match="missing keys"):
        parse_channel({"example": 1, "delta1": 0.05})
    with pytest.raises(SpecFileError, match="must be 1 or 2"):
        parse_channel({"example": 7, "delta1": 0.05, "delta": 0.1})
    with pytest.raises(SpecFileError, match="example parameters"):
        parse_channel({"example": 1, "delta1": 0.9, "delta": 0.1})


def test_unknown_and_missing_keys():
    with pytest.raises(SpecFileError, match="unknown keys.*extra"):
        parse_channel({"example": 1, "delta1": 0.1, "delta": 0.1, "extra": 3})
    with pytest.raises(SpecFileError, match="missing keys"):
        parse_channel({"input_sizes": [2, 2, 2]})
    with pytest.raises(SpecFileError, match="top level"):
        parse_channel([1, 2, 3])


def test_explicit_form_validation(tmp_path):
    doc = serialize_channel(example2_channel(0.05, 0.2))

    bad = json.loads(json.dumps(doc))
    bad["input_sizes"] = [2, 2]
    with pytest.raises(SpecFileError, match="input_sizes"):
        parse_channel(bad)

    bad = json.loads(json.dumps(doc))
    del bad["states"]["0,0,0"]
    with pytest.raises(SpecFileError, match="missing entry"):
        parse_channel(bad)

    bad = json.loads(json.dumps(doc))
    bad["states"]["9,9,9"] = bad["states"]["0,0,1"]
    with pytest.raises(SpecFileError, match="unknown input triples"):
        parse_channel(bad)

    bad = json.loads(json.dumps(doc))
    bad["states"]["0,0,0"]["re"][0][0] = "x"
    with pytest.raises(SpecFileError, match=r"states\['0,0,0'\].re"):
        parse_channel(bad)

    bad = json.loads(json.dumps(doc))
    bad["input_sizes"][0] = True
    with pytest.raises(SpecFileError, match="positive integer"):
        parse_channel(bad)

    # a non-state matrix must be refused with the offending input named
    bad = json.loads(json.dumps(doc))
    bad["states"]["0,0,0"]["re"][0][0] = 0.9
    with pytest.raises(SpecFileError, match="0,0,0"):
        parse_channel(bad)


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "example": 1,\n oops\n}\n')
    with pytest.raises(SpecFileError, match="line 3"):
        parse_channel_file(str(path))


def test_missing_file():
    with pytest.raises(SpecFileError, match="cannot read"):
        parse_channel_file("/no/such/file.json")


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_costs_must_be_finite_and_non_negative(tmp_path, cost):
    doc = serialize_channel(example2_channel(0.05, 0.2))
    doc["costs"][2][0] = cost
    with pytest.raises(SpecFileError, match="cost table 2 has negative or non-finite entries"):
        parse_channel(doc)
    path = tmp_path / "cost.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity are valid json tokens for the parser
    with pytest.raises(SpecFileError, match="cost table 2"):
        parse_channel_file(str(path))
