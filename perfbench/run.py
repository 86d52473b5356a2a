"""Run one cosetcq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload regions --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics instead.  Spans, run records
and the spec file go to ``perfbench/out``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import traceback
from time import perf_counter

# One BLAS thread on every machine (never more than nproc), set before numpy
# is imported so that every run uses the same count.  numpy is also told not
# to request transparent huge pages: whether the kernel grants them depends on
# the machine's memory state, and with them peak memory moved by 40 % between
# runs of the same code.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 3  # warm set-ups after the cold one before the rounds start
SETUP_EVERY_S = 2.0  # then one more between jobs this often (untraced runs)


class Tally:
    """Operations attempted and failed, plus the worst health numbers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.health: dict = {}

    def add(self, attempted: int, failures: list, health: dict) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        for msg in failures:
            print(f"check failed: {msg}", file=sys.stderr)
        for key, value in health.items():
            self.health[key] = max(self.health.get(key, value), value)


def purge_package() -> None:
    for name in [m for m in sys.modules if m == "cosetcq" or m.startswith("cosetcq.")]:
        del sys.modules[name]


def build(cls, seed: int, refs: dict, rec=None):
    """Import the package afresh and build the workload: (workload, seconds).

    Each pass re-executes the package's modules.  With a recorder the pass
    is traced and recorded as run "setup".
    """
    from harness import Patcher
    import layers
    import workloads

    purge_package()
    patcher = None
    t0 = perf_counter()
    lib = workloads.load_lib()
    if rec is not None:
        patcher = Patcher(rec)
        layers.install(patcher)
        rec.set_run("setup")
    workload = cls(lib, seed, refs)
    seconds = perf_counter() - t0
    if patcher is not None:
        patcher.restore()
    return workload, seconds


def calibrated(fn, calib):
    """Run ``fn`` between two calibration passes: (result, seconds, ratio).

    ``ratio`` is the seconds over the mean of the two passes; ``calib`` None
    skips the passes and gives ratio None.  An exception ``fn`` raises is
    returned as its result.
    """
    c0 = calib() if calib is not None else None
    t0 = perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failing call is a failed operation
        out = exc
    seconds = perf_counter() - t0
    if calib is None:
        return out, seconds, None
    return out, seconds, seconds / (0.5 * (c0 + calib()))


def set_up(cls, seed: int, refs: dict, rec, calib):
    """Build the workload SETUP_REPS + 1 times; the last build is the one run.

    Returns the workload and one (seconds, ratio) pair per pass.  The first,
    cold pass is the process's first import of the package (numpy is
    already loaded by then; in a fresh checkout it also writes the
    package's bytecode) and is left out of ``setup_s``.
    """
    samples = []
    for k in range(SETUP_REPS + 1):
        (workload, seconds), _, ratio = calibrated(
            lambda: build(cls, seed, refs, rec if k == SETUP_REPS else None), calib)
        samples.append((seconds, ratio))
    return workload, samples


class SetupSampler:
    """One more warm set-up between jobs, at most every SETUP_EVERY_S seconds.

    Load on the machine holds for seconds at a time, so set-ups spread over
    the run give a steadier median than set-ups all made at its start.  The
    pass builds a second copy of the package; the modules the run uses are
    put back afterwards and the copy is collected.
    """

    def __init__(self, cls, seed: int, refs: dict, samples: list, calib) -> None:
        self.cls, self.seed, self.refs, self.samples, self.calib = cls, seed, refs, samples, calib
        self.last = perf_counter()

    def __call__(self) -> None:
        if perf_counter() - self.last < SETUP_EVERY_S:
            return
        running = {k: v for k, v in sys.modules.items() if k == "cosetcq" or k.startswith("cosetcq.")}
        (_, seconds), _, ratio = calibrated(lambda: build(self.cls, self.seed, self.refs), self.calib)
        self.samples.append((seconds, ratio))
        purge_package()
        sys.modules.update(running)
        gc.collect()  # free the copy now, so it cannot add to peak memory
        self.last = perf_counter()


def do_round(workload, r: int, rec, tally: Tally, calib=None, between=None) -> dict:
    """Run round ``r``: each job timed, then its output checked untimed.

    Returns {job: (seconds, ratio)}; with ``calib`` each job runs between
    two calibration passes (see ``calibrated``).  ``between``, if given, is
    called untimed after each job's check.
    """
    body = {}
    for job, fn in workload.jobs(r):
        if rec is not None:
            rec.set_run(f"round{r}")
            sid = rec.open(rec.name_id(f"job.{job}"))
        out, seconds, ratio = calibrated(fn, calib)
        body[job] = (seconds, ratio)
        if rec is not None:
            rec.close(sid)
            rec.set_run(f"check{r}")
        if isinstance(out, Exception):
            tally.add(1, [f"{job} raised {out!r}"], {})
            continue
        try:
            attempted, failures, health = workload.check(job, out)
        except Exception as exc:
            traceback.print_exc()
            attempted, failures, health = 1, [f"checking {job} raised {exc!r}"], {}
        tally.add(attempted, failures, health)
        if rec is not None:
            for key, value in health.items():
                rec.count(key, value)
        del out
        if between is not None:
            between()
    return body


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def job_summary(rounds: list, reference_s) -> dict:
    """Per job: its time (``time_s``) plus its raw seconds.

    ``rounds`` holds (pool entry, {job: (seconds, ratio)}) pairs.  A job's
    time is taken on each pool entry the run visited and averaged over the
    entries, so a slowdown on any input the run visited shows.  On an entry
    it is the median ratio times ``reference_s`` (the job at the
    calibration kernel's reference speed) or, with ``reference_s`` None,
    the best raw time.
    """
    from harness import median

    names = list(dict.fromkeys(job for _, body in rounds for job in body))
    summary = {}
    for job in names:
        by_entry: dict = {}
        for entry, body in rounds:
            if job in body:
                by_entry.setdefault(entry, []).append(body[job])
        if reference_s is None:
            per_entry = [min(t for t, _ in s) for s in by_entry.values()]
        else:
            per_entry = [reference_s * median([r for _, r in s]) for s in by_entry.values()]
        samples = [body[job][0] for _, body in rounds if job in body]
        summary[job] = {"time_s": sum(per_entry) / len(per_entry), "best_s": min(samples),
                        "median_s": median(samples), "entries": len(by_entry), "samples": samples}
    return summary


def end_to_end(workload, rounds: list, setup: list, calib: dict, tally: Tally) -> tuple:
    """Job and set-up times; the raw seconds behind them go to the record.

    Load from other tenants slows the machine by up to 1.7x, for seconds
    to minutes at a time and often for a whole run, so neither best nor
    median seconds of short jobs repeat from run to run.  Each short job
    and each set-up pass therefore runs between two passes of a fixed
    calibration kernel of its kind of work, which slow down with it, and
    its time is the ratio of the two at the kernel's reference speed.
    ``calib`` maps "setup" and "jobs" to the kernels (the latter None where
    jobs are long enough to take best raw seconds).  ``wall_s`` adds up
    the jobs of a round; ``main_job_s`` and ``other_jobs_s`` split that
    sum into the main job and the rest.
    """
    from harness import median, peak_rss_mb, tail_percentile

    jobs = job_summary(rounds, calib["jobs"].reference_s if calib["jobs"] else None)
    main = sum(s["time_s"] for job, s in jobs.items() if job.split(".")[0] == workload.main_job)
    wall = sum(s["time_s"] for s in jobs.values())
    metrics = {
        "setup_s": (calib["setup"].reference_s * median([ratio for _, ratio in setup[1:]]), "s"),
        "wall_s": (wall, "s"),
        "main_job_s": (main, "s"),
        "other_jobs_s": (wall - main, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = {"rounds": len(rounds), "setup_samples": len(setup) - 1,
              "setup_s": [seconds for seconds, _ in setup],
              "calibration": {k: {"kind": c.kind, "reference_s": c.reference_s,
                                  "median_s": median(c.times), "passes": len(c.times)}
                              for k, c in calib.items() if c is not None},
              "entries": [entry for entry, _ in rounds],
              "wall_s": [sum(t for t, _ in body.values()) for _, body in rounds], "jobs": jobs,
              "health": tally.health}
    lat = getattr(workload, "tau_latencies", None)
    if lat:
        tail = tail_percentile(lat)
        record["tau_call"] = {"p50_ms": 1e3 * median(lat), "samples": len(lat)}
        if tail is not None:
            record["tau_call"].update(tail_pct=tail[0], tail_ms=1e3 * tail[1])
    if hasattr(workload, "TRIALS"):
        record["trials_per_s"] = {
            job: 2 * workload.TRIALS[job[len("simulate_"):]] / s["median_s"]
            for job, s in record["jobs"].items()
        }
    return metrics, record


def per_layer(workload, rec, overheads: list, tally: Tally) -> tuple:
    import layers
    from harness import layer_totals, median

    runs = ("setup", "round0", "check0")
    totals = layer_totals(rec, runs)
    metrics = {}
    for name in layers.span_names():
        calls, secs = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (secs, "s")
    for name, (unit, merge) in layers.COUNTERS.items():
        values = [rec.counts[r][name] for r in runs if name in rec.counts.get(r, {})]
        metrics[name] = (merge(values) if values else 0, unit)
    metrics[layers.OVERHEAD] = (median(overheads), "s")
    called = sorted(n[: -len(".calls")] for n, (v, _) in metrics.items()
                    if n.endswith(".calls") and v and n.startswith(layers.BYPASS[workload.name]))
    tally.add(1, [f"predicted bypass broken: {called} called"] if called else [], {})
    record = {"traced_runs": list(runs), "pairs": len(overheads),
              "overhead_s": overheads, "spans": len(rec.start)}
    return metrics, record


def main(argv=None) -> int:
    import harness
    import layers
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cosetcq", "__init__.py")):
        print(f"error: no package source under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    sys.path.insert(0, SRC)

    spec = harness.load_spec(ROOT)
    cls = workloads.WORKLOADS[args.workload]
    refs = workloads.load_refs(args.workload)
    trace = bool(args.trace)
    rec = harness.Recorder(layers.COUNTERS) if trace else None
    tally = Tally()

    calib = {"setup": None, "jobs": None}
    if not trace:
        calib["setup"] = harness.Calibration("interp")
        if cls.calibration is not None:
            calib["jobs"] = harness.Calibration(cls.calibration)
    workload, setup = set_up(cls, args.seed, refs, rec, calib["setup"])
    workload.warmup()
    sample_setup = SetupSampler(cls, args.seed, refs, setup, calib["setup"])

    rounds, overheads = [], []
    t_loop = perf_counter()
    r = 0
    while True:
        t_round = perf_counter()
        if not trace:
            rounds.append((workload.entry(r), do_round(workload, r, None, tally, calib["jobs"], sample_setup)))
        else:
            # same inputs with and without wrappers, alternating which goes first
            patcher = harness.Patcher(rec)
            pair = {}
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                if traced:
                    layers.install(patcher)
                try:
                    body = do_round(workload, r, rec if traced else None, tally)
                    pair[traced] = sum(seconds for seconds, _ in body.values())
                finally:
                    patcher.restore()
            overheads.append(pair[True] - pair[False])
        r += 1
        now = perf_counter()
        if r >= (1 if trace else workload.min_rounds) and (now - t_loop) + (now - t_round) > args.seconds:
            break

    env = environment()
    if trace:
        metrics, record = per_layer(workload, rec, overheads, tally)
        rec.save(os.path.join(workloads.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz"))
    else:
        metrics, record = end_to_end(workload, rounds, setup, calib, tally)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=env, attempted=tally.attempted, failed=tally.failed)
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    harness.check_metric_names(spec, out, trace)

    path = os.path.join(workloads.OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for job, s in record.get("jobs", {}).items():
        print(f"# job {job}: {s['time_s']:.4f} s; raw best {s['best_s']:.4f} s,"
              f" median {s['median_s']:.4f} s over {len(s['samples'])} rounds"
              f" (pool entries: {s['entries']})")
    for key in ("calibration", "tau_call", "trials_per_s", "health", "overhead_s"):
        if record.get(key):
            print(f"# {key} {json.dumps(record[key], default=float)}")
    frac = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"# failed_frac {frac:g} ({tally.failed} of {tally.attempted} operations failed)")
    for name, m in out.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
