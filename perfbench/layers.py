"""Which package functions the traced run wraps, and the counts it keeps.

Every wrapped function ``f`` of module ``m`` reports ``m.f.calls`` and
``m.f.self_s``.  Hooks read counts off arguments and results at the same
boundary; they run after the span closes, so their cost lands in the
caller's self time, not in the wrapped function's.
"""

from __future__ import annotations

import numpy as np


def _dim(rec, args, out) -> None:
    mat = getattr(args[0], "matrix", args[0])
    rec.count("linalg.max_dim", int(np.shape(mat)[0]))


def _clamped(rec, args, out) -> None:
    rec.count("regions.clamped", sum(1 for c in out.constraints if c.clamped))


def _rank(rec, args, out) -> None:
    rec.count("povm.rank_sum", out.rank)


def _labels(rec, args, out) -> None:
    labels = len(out.labels) - 1  # the completion element is not decoded
    rec.count("povm.labels", labels)
    rec.count("povm.gamma_bytes", labels * out.dim * out.dim * 16)


def _encoder(rec, args, out) -> None:
    rec.count("field_codes.encoder_failures", len(out.failed))
    rec.count("field_codes.theta_min", min(out.theta.values()))


def _candidates(kind: str):
    def hook(rec, args, out) -> None:
        book = len(args[0].codebook1)
        rec.count(f"classical_sim.rx1_candidates_{kind}", out.config["sum_candidates"] * book)
        rec.count("classical_sim.trials", out.trials)

    return hook


# (module, function, hook), in the order the metrics are listed.
FUNCTIONS = (
    ("linalg", "eig_hermitian", _dim),
    ("linalg", "von_neumann_entropy", _dim),
    ("linalg", "partial_trace", _dim),
    ("linalg", "trace_distance", _dim),
    ("channels", "sigma1", None),
    ("channels", "sigma2", None),
    ("channels", "split_sigma1", None),
    ("channels", "is_3to1", None),
    ("channels", "cq_mutual_information", None),
    ("channels", "cq_entropy", None),
    ("regions", "theorem1_region", _clamped),
    ("regions", "theorem3_region", _clamped),
    ("regions", "usb_region", _clamped),
    ("regions", "grid_search", None),
    ("povm", "typical_projector", _rank),
    ("povm", "conditional_typical_projector", _rank),
    ("povm", "build_ptp_povm", _labels),
    ("povm", "build_rx1_povm", _labels),
    ("povm", "ptp_block_error", None),
    ("povm", "rx1_success_probability", None),
    ("povm", "verify_pinching", None),
    ("field_codes", "select_typical", _encoder),
    ("field_codes", "coset_sum", None),
    ("typicality", "is_relative_typical", None),
    ("classical_sim", "simulate", _candidates("structured")),
    ("classical_sim", "simulate_independent", _candidates("independent")),
    ("specfile", "parse_channel_file", None),
    ("specfile", "write_channel_file", None),
    ("cli", "main", None),
)

# (module, class, attribute, metric, hook): methods and validating
# constructors, patched on the class so every instance sees them.
METHODS = (
    ("linalg", "DensityOperator", "__post_init__", "linalg.DensityOperator",
     lambda rec, args, out: rec.count("linalg.max_dim", args[0].dim)),
    ("channels", "CqChannel", "output_marginal", "channels.output_marginal", None),
    ("regions", "RegionSpec", "corner_points", "regions.corner_points", None),
    ("povm", "Povm", "__post_init__", "povm.Povm", None),
    ("field_codes", "NestedCosetCode", "codeword", "field_codes.codeword", None),
    ("field_codes", "NestedCosetCode", "range_words", "field_codes.range_words", None),
)

# counter -> (unit, how values from several calls or runs combine); the
# recorder merges every count by this rule.
COUNTERS = {
    "linalg.max_dim": ("count", max),
    "regions.clamped": ("count", sum),
    "povm.labels": ("count", sum),
    "povm.rank_sum": ("count", sum),
    "povm.gamma_bytes": ("B", sum),
    "povm.completion_weight": ("ratio", max),
    "field_codes.encoder_failures": ("count", sum),
    "field_codes.theta_min": ("count", min),
    "classical_sim.rx1_candidates_structured": ("count", sum),
    "classical_sim.rx1_candidates_independent": ("count", sum),
    "classical_sim.trials": ("count", sum),
}

OVERHEAD = "trace.overhead_s"

# Layers each workload is predicted never to call (checked in traced runs).
BYPASS = {
    "regions": ("povm.", "classical_sim."),
    "povm_exact": ("classical_sim.", "regions."),
    "montecarlo": ("linalg.", "channels.", "regions."),
}


def span_names() -> list:
    names = [f"{m}.{f}" for m, f, _ in FUNCTIONS]
    names += [metric for _, _, _, metric, _ in METHODS]
    return names


def per_layer_units() -> dict:
    """Metric name -> unit, in reporting order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, (unit, _) in COUNTERS.items():
        units[name] = unit
    units[OVERHEAD] = "s"
    return units


def install(patcher) -> None:
    for module, func, hook in FUNCTIONS:
        patcher.function(module, func, hook)
    for module, cls, attr, metric, hook in METHODS:
        patcher.method(module, cls, attr, metric, hook)
