"""The benchmark's own output checks pass on the exact-decoder and Monte Carlo jobs.

``perfbench/workloads.py`` checks every job it times: label counts,
completeness, positivity and values against its stored references.  A
decoder change that the benchmark would count as a failed operation fails
here first.  The file is loaded by path, as it is not part of the package;
the n = 9 exact-decoder job is left out to keep the test short.
"""

import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_povm_exact_jobs_pass_their_checks():
    wl = _workloads()
    bench = wl.PovmExact(wl.load_lib(), 0, wl.load_refs("povm_exact"))
    jobs = dict(bench.jobs_for(0))
    for name in ("ptp_n6", "ptp_n8", "rx1", "pinching"):
        attempted, failures, _ = bench.check(name, jobs[name]())
        assert attempted == 1 and failures == [], (name, failures)


def test_montecarlo_jobs_pass_their_checks():
    wl = _workloads()
    bench = wl.MonteCarlo(wl.load_lib(), 0, wl.load_refs("montecarlo"))
    for index in range(bench.POOL):
        for name, job in bench.jobs_for(index):
            attempted, failures, _ = bench.check(name, job())
            assert attempted == 1 and failures == [], (index, name, failures)
