import json
from pathlib import Path

import numpy as np
import pytest

from cosetcq import cli
from cosetcq.channels import CqChannel
from cosetcq.cli import main
from cosetcq.linalg import DensityOperator
from cosetcq.specfile import write_channel_file


def _table(text):
    """Parse an emitted CSV body into a list of row dicts."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_region_default_output(capsys):
    assert main(["region"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# cosetcq region\n")
    rows = _table(out)
    constraints = [r for r in rows if r["kind"] == "constraint"]
    names = [r["name"] for r in constraints]
    assert names == [
        "r1", "r2", "r3", "r2_coset", "r3_coset", "r1_plus_r2", "r1_plus_r3"
    ]
    for r in constraints:
        rhs = float(r["rhs"])  # repr round-trips cleanly
        assert 0.0 <= rhs <= 3.0
        assert r["clamped"] in ("0", "1")
    assert any(r["kind"] == "corner" for r in rows)


def test_region_theorem3_vs_usb(capsys):
    main(["region", "--example", "1", "--theorem", "3"])
    structured = _table(capsys.readouterr().out)
    main(["region", "--example", "1", "--theorem", "usb"])
    baseline = _table(capsys.readouterr().out)

    def rhs(rows, name):
        return float(next(r for r in rows if r["name"] == name)["rhs"])

    # at this bias the structured private line beats the unstructured one,
    # where the random interference wipes out receiver 1
    assert rhs(structured, "r1") > rhs(baseline, "r1") + 0.3
    assert rhs(baseline, "r1") < 0.01


def test_region_spec_file_matches_builtin(tmp_path, capsys):
    from cosetcq.channels import example2_channel

    path = tmp_path / "chan.json"
    write_channel_file(example2_channel(0.01, 0.1), path)
    assert main(["region", "--spec", str(path)]) == 0
    from_spec = _table(capsys.readouterr().out)
    assert main(["region", "--example", "2"]) == 0
    builtin = _table(capsys.readouterr().out)
    assert from_spec == builtin


def test_region_rejects_non_binary_channel(tmp_path, capsys):
    states = {
        (x1, x2, x3): DensityOperator(np.eye(8) / 8)
        for x1 in range(3)
        for x2 in range(2)
        for x3 in range(2)
    }
    chan = CqChannel(
        (3, 2, 2), (2, 2, 2), states, (np.zeros(3), np.zeros(2), np.zeros(2))
    )
    path = tmp_path / "wide.json"
    write_channel_file(chan, path)
    assert main(["region", "--spec", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_region_bad_spec_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json }\n")
    assert main(["region", "--spec", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unwritable_out_path_is_an_argument_error(tmp_path, capsys):
    """An output file that cannot be opened is exit 2 with an error line, not a traceback."""
    path = tmp_path / "missing" / "x.csv"
    assert main(["region", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not path.parent.exists()


def test_separation_command(capsys):
    assert main(["separation", "--example", "1", "--delta1", "0.01", "--delta", "0.1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# cosetcq separation\n")
    assert "separation: true" in out
    assert "structured feasible: true" in out

    # an infeasible sender-1 bias flips the verdict
    assert main(
        ["separation", "--example", "1", "--delta1", "0.01", "--delta", "0.1",
         "--tau", "0.4"]
    ) == 0
    assert "separation: false" in capsys.readouterr().out


def test_separation_out_file(tmp_path, capsys):
    path = tmp_path / "sep.txt"
    assert main(
        ["separation", "--example", "2", "--delta1", "0.05", "--delta", "0.2",
         "--out", str(path)]
    ) == 0
    assert capsys.readouterr().out == ""
    assert "separation: true" in path.read_text()


def test_povm_sweep_pinching_decreases(capsys):
    assert main(["povm-sweep"]) == 0
    rows = _table(capsys.readouterr().out)
    assert [r["n"] for r in rows] == ["2", "4", "6"]
    errs = [float(r["error_probability"]) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    traces = [float(r["trace_bounds"]) for r in rows]
    for e, t in zip(errs, traces):
        assert e + t == pytest.approx(1.0, abs=1e-12)


def test_povm_sweep_example2_family(capsys):
    assert main(
        ["povm-sweep", "--family", "example2", "--delta", "0.2", "--n", "2,4"]
    ) == 0
    rows = _table(capsys.readouterr().out)
    errs = [float(r["error_probability"]) for r in rows]
    assert errs[0] > errs[1]


def test_povm_sweep_ptp_error_trend(capsys):
    assert main(["povm-sweep", "--mode", "ptp-error", "--delta", "0.6"]) == 0
    out = capsys.readouterr().out
    assert "# seed = None" in out
    errs = [float(r["error_probability"]) for r in _table(out)]
    assert errs[0] > errs[1] > errs[2]
    # the seedless run is frozen, so the numbers are reproducible
    assert errs == pytest.approx([1.0, 0.25, 0.125], abs=1e-9)


def test_povm_sweep_budget_exit(capsys):
    assert main(["povm-sweep", "--n", "14"]) == 4
    assert "budget" in capsys.readouterr().err


def test_simulate_baseline_refuses_pairwise_table_beyond_memory_cap(capsys):
    """4^14 pairwise sums need about 6.7 GB: the baseline is refused before
    any of them exist, after the structured run."""
    argv = "simulate --seed 1 --n 40 --k 2 --l 14 --m1 4 --trials 10 --baseline"
    assert main(argv.split()) == 4
    assert "16384^2 pairwise codeword sums need" in capsys.readouterr().err


def test_povm_sweep_bad_ptp_blocklength(capsys):
    assert main(["povm-sweep", "--mode", "ptp-error", "--n", "8"]) == 2
    assert "supports n" in capsys.readouterr().err


def test_simulate_reproducible(capsys):
    argv = ["simulate", "--seed", "7", "--trials", "300"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("# cosetcq simulate\n")
    rows = _table(first)
    assert [r["receiver"] for r in rows] == ["1", "2", "3"]
    assert all(r["mode"] == "structured" for r in rows)


def test_simulate_baseline_rows(capsys):
    assert main(
        ["simulate", "--seed", "7", "--trials", "200", "--baseline",
         "--decoder", "ml"]
    ) == 0
    rows = _table(capsys.readouterr().out)
    assert [r["mode"] for r in rows] == ["structured"] * 3 + ["independent"] * 3
    for r in rows:
        assert float(r["wilson_lo"]) <= float(r["error_rate"]) <= float(r["wilson_hi"])


def test_simulate_rejects_impossible_codebook(capsys):
    assert main(["simulate", "--seed", "1", "--tau", "0.05"]) == 2
    assert "disjoint" in capsys.readouterr().err


def test_simulate_out_file(tmp_path, capsys):
    path = tmp_path / "sim.csv"
    assert main(
        ["simulate", "--seed", "3", "--trials", "200", "--out", str(path)]
    ) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().startswith("# cosetcq simulate\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["region", "--example", "2", "--theorem", th], f"region_example2_theorem{th}")
        for th in ("1", "3", "usb")
    ]
    + [
        (
            ["simulate", "--seed", "7", "--trials", "2000", "--baseline",
             "--decoder", dec],
            f"simulate_seed7_baseline_{dec}",
        )
        for dec in ("typicality", "ml")
    ]
    + [
        (["region", "--example", "1", "--theorem", th], f"region_example1_theorem{th}")
        for th in ("1", "3", "usb")
    ]
    + [
        (
            ["separation", "--example", ex, "--delta1", "0.01", "--delta", "0.1"],
            f"separation_example{ex}",
        )
        for ex in ("1", "2")
    ]
    + [
        (["povm-sweep"], "povm_sweep"),
        (["povm-sweep", "--family", "example2", "--delta", "0.2"], "povm_sweep_example2_delta0.2"),
        (["povm-sweep", "--mode", "ptp-error", "--delta", "0.6"], "povm_sweep_ptp_error_delta0.6"),
        (["povm-sweep", "--mode", "ptp-error", "--seed", "5"], "povm_sweep_ptp_error_seed5"),
        (
            ["simulate", "--seed", "1000", "--trials", "2500", "--baseline", "--decoder", "ml"],
            "simulate_seed1000_baseline_ml",
        ),
        (
            ["simulate", "--seed", "1003", "--trials", "5000", "--baseline",
             "--decoder", "typicality"],
            "simulate_seed1003_baseline_typicality",
        ),
    ],
)
def test_output_matches_golden_bytes(argv, name, capsys):
    """Right-hand sides are printed with repr, so any reordering of a sum shows."""
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_one_parser_serves_every_call(capsys):
    """A failed parse leaves the cached parser as it was."""
    golden = ["region", "--example", "2", "--theorem", "3"]
    expected = (GOLDEN / "region_example2_theorem3.txt").read_text()
    cli._build_parser.cache_clear()
    assert main(golden) == 0
    assert capsys.readouterr().out == expected
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--trials", "x"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main(["separation", "--example", "1", "--delta1", "0.01", "--delta", "0.1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "separation_example1.txt").read_text()
    assert main(golden) == 0
    assert capsys.readouterr().out == expected
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("mode", ["ptp-error", "pinching"])
@pytest.mark.parametrize("delta", ["nan", "-0.5"])
def test_povm_sweep_refuses_nan_or_negative_slack(capsys, mode, delta):
    """Every window would be empty: exit 2 with the slack message, no table."""
    assert main(["povm-sweep", "--mode", mode, "--n", "2", "--delta", delta]) == 2
    captured = capsys.readouterr()
    assert "slack delta must be >= 0" in captured.err and captured.out == ""


@pytest.mark.parametrize("tau", ["nan", "inf", "-0.1"])
def test_simulate_refuses_tau_outside_unit_interval(capsys, tau):
    assert main(["simulate", "--seed", "1", "--trials", "10", "--tau", tau]) == 2
    captured = capsys.readouterr()
    assert f"tau must lie in [0, 1], got {float(tau)}" in captured.err and captured.out == ""


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), -1.0])
def test_region_refuses_non_finite_or_negative_cost(tmp_path, capsys, cost):
    """json reads NaN and Infinity; a spec file carrying one as a cost is
    refused (exit 2) instead of printing nan cost expectations."""
    from cosetcq.channels import example2_channel
    from cosetcq.specfile import serialize_channel

    doc = serialize_channel(example2_channel(0.01, 0.1))
    doc["costs"][0][1] = cost
    path = tmp_path / "cost.json"
    path.write_text(json.dumps(doc))
    assert main(["region", "--spec", str(path), "--theorem", "1"]) == 2
    captured = capsys.readouterr()
    assert "cost table 0 has negative or non-finite entries" in captured.err
    assert captured.out == ""
