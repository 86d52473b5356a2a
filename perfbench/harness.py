"""Span recorder, layer wrapping and statistics for the cosetcq benchmark.

The recorder lives entirely in the benchmark: it rebinds the public functions
of the package's modules to thin wrappers that record one span per call and
restores the originals afterwards.  Nothing in the package is edited.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import sys
from array import array
from time import perf_counter

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Recorder:
    """Spans kept in flat arrays; span i has name, run, parent, start, end.

    Spans of one thread nest strictly, so a parent is the span that was open
    when the child started.  Run ids tag spans with the phase that caused
    them ("setup", "round0", "check0", ...).
    """

    def __init__(self, counters: dict) -> None:
        self.counters = counters  # counter -> (unit, merge: sum, max or min)
        self.names: list = []
        self._name_ids: dict = {}
        self.runs: list = []
        self.name = array("i")
        self.run = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run_id = -1
        self.counts: dict = {}  # run label -> {counter: value}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_run(self, label: str) -> None:
        """Tag spans and counts from now on with the run ``label``."""
        if label not in self.runs:
            self.runs.append(label)
        self.run_id = self.runs.index(label)

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.run.append(self.run_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def _bucket(self) -> dict:
        return self.counts.setdefault(self.runs[self.run_id], {})

    def count(self, counter: str, value) -> None:
        """Merge ``value`` into ``counter`` by the counter's own rule."""
        bucket = self._bucket()
        merge = self.counters[counter][1]
        bucket[counter] = merge((bucket[counter], value)) if counter in bucket else value

    def save(self, path: str) -> None:
        """Write every span and the name/run tables as a compressed npz."""
        import numpy as np

        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
            runs=np.array(self.runs),
        )


def self_times(start, end, parent):
    """Span duration minus the time covered by its direct children.

    Children of one span are sequential and lie inside it, so the covered
    time is the sum of their durations.  Roots carry parent -1.
    """
    import numpy as np

    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


def layer_totals(rec: Recorder, run_labels) -> dict:
    """Per span name: (calls, summed self time) over spans of the given runs."""
    import numpy as np

    if not rec.start:
        return {}
    name = np.frombuffer(rec.name, dtype=np.int32)
    run = np.frombuffer(rec.run, dtype=np.int32)
    selft = self_times(
        np.frombuffer(rec.start, dtype=np.float64),
        np.frombuffer(rec.end, dtype=np.float64),
        np.frombuffer(rec.parent, dtype=np.int64),
    )
    keep = np.isin(run, [i for i, label in enumerate(rec.runs) if label in run_labels])
    calls = np.bincount(name[keep], minlength=len(rec.names))
    secs = np.bincount(name[keep], weights=selft[keep], minlength=len(rec.names))
    return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(rec.names)}


class Patcher:
    """Rebinds functions and methods of loaded cosetcq modules to wrappers."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: list = []

    def _wrapper(self, fn, metric: str, hook):
        rec = self.rec
        nid = rec.name_id(metric)

        def traced(*args, **kwargs):
            sid = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            if hook is not None:
                hook(rec, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", metric)
        return traced

    def function(self, module: str, attr: str, hook=None) -> None:
        """Wrap ``cosetcq.<module>.<attr>`` in every module that binds it."""
        mod = sys.modules[f"cosetcq.{module}"]
        orig = getattr(mod, attr)
        wrapped = self._wrapper(orig, f"{module}.{attr}", hook)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "cosetcq" or name.startswith("cosetcq.")):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapped)
                    self._undo.append((other, key, orig))

    def method(self, module: str, cls: str, attr: str, metric: str, hook=None) -> None:
        klass = getattr(sys.modules[f"cosetcq.{module}"], cls)
        orig = klass.__dict__[attr]
        setattr(klass, attr, self._wrapper(orig, metric, hook))
        self._undo.append((klass, attr, orig))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


class Calibration:
    """A fixed kernel, timed next to every job, that gauges the machine's speed.

    On a shared host the same code runs up to 1.7x slower for seconds to
    minutes at a time.  A kernel that does the same kind of work as a
    workload slows down with it, and it never calls the package, so a
    change to the package cannot change it.  ``reference_s`` is the
    kernel's time on a quiet machine; a job time divided by the kernel time
    measured around it and multiplied by ``reference_s`` is the job time at
    reference speed.  Two kinds:

    - ``interp``: interpreter loops and tiny dense complex algebra (like
      ``regions`` and every set-up);
    - ``packed``: popcounts of XORed uint64 words over a (trials x
      candidates) table plus a per-trial Python loop of small array calls
      (like ``montecarlo``).
    """

    # one pass on an idle 2-vCPU Intel Xeon VM (best of 200)
    REFERENCE_S = {"interp": 0.0036, "packed": 0.0055}
    LOOPS = 60

    def __init__(self, kind: str = "interp") -> None:
        import numpy as np

        self.kind = kind
        self.reference_s = self.REFERENCE_S[kind]
        self.kernel = getattr(self, f"_{kind}")
        self.times: list = []
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.h4 = m @ m.conj().T
        self.eye2 = np.eye(2)
        self.words = rng.integers(0, 2**40, size=(3000, 1), dtype=np.uint64)
        self.cands = rng.integers(0, 2**40, size=(1, 256), dtype=np.uint64)
        self.groups = np.arange(256) % 16

    def _interp(self) -> float:
        import numpy as np

        acc = 0.0
        for _ in range(self.LOOPS):
            vals = np.linalg.eigvalsh(self.h4)
            big = np.kron(self.h4, self.eye2)
            acc += float(np.trace(big).real) + float(vals.sum())
            acc += float(np.allclose(self.h4, self.h4.conj().T))
            table = {j: j * j for j in range(40)}
            acc += sum(table.values())
        return acc

    def _packed(self) -> float:
        import numpy as np

        weights = np.bitwise_count(self.words ^ self.cands)
        in_band = (weights >= 16) & (weights <= 22)
        acc = sum(int(in_band[:, self.groups == g].any(axis=1).sum()) for g in range(16))
        is_best = weights == weights.min(axis=1)[:, None]
        for t in range(0, 3000, 4):
            acc += int(np.unique(self.groups[is_best[t]])[0])
        return float(acc)

    def __call__(self) -> float:
        """Seconds for one pass of the kernel."""
        t0 = perf_counter()
        self.kernel()
        self.times.append(perf_counter() - t0)
        return self.times[-1]


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (percent, value), or None when there are too few samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    rank = n - beyond  # 1-based rank of the reported sample
    return 100.0 * rank / n, float(xs[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (getrusage, Linux KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_metric_names(spec: dict, metrics: dict, trace: bool) -> None:
    """Raise unless the metrics are exactly the spec's list for this mode."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    bad = [n for n in metrics if not NAME_RE.match(n)]
    if bad:
        raise ValueError(f"malformed metric names {bad}")
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        raise ValueError(f"metric mismatch: missing {missing}, not in BENCHMARK.json {extra}")
    for n, m in metrics.items():
        if m["unit"] != want[n]:
            raise ValueError(f"metric {n} has unit {m['unit']}, BENCHMARK.json says {want[n]}")
        if not math.isfinite(m["value"]):
            raise ValueError(f"metric {n} is not finite")
