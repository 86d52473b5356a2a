"""Capture the reference outputs the benchmark's checks compare against.

    python3 perfbench/capture_refs.py

Writes perfbench/refs/<workload>.json from the checkout's current code.
Run it only at a commit whose outputs are accepted as the reference: the
checks exist to catch later changes to these values.  Every pool entry is
evaluated (about two minutes for povm_exact, one for montecarlo).
"""

from __future__ import annotations

import json
import os
import sys

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, run.SRC)
os.chdir(run.ROOT)

import workloads  # noqa: E402


def capture_regions(lib) -> dict:
    wl = workloads.Regions(lib, 0, None)
    texts = []
    for argv in wl.CLI:
        rc, text = workloads.run_cli(lib, argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {rc}")
        texts.append(text)
    return {"cli": texts}


def capture_povm_exact(lib) -> dict:
    wl = workloads.PovmExact(lib, 0, None)
    pool = []
    for index in range(wl.POOL):
        values = {}
        for job, fn in wl.jobs_for(index):
            if job == "pinching":
                continue
            _, result = fn()
            values[job] = float(result[-1])
            print(f"povm_exact pool {index} {job} {values[job]!r}", flush=True)
        pool.append(values)
    rows = wl._pinching(wl.PINCH_N)
    return {"pool": pool, "pinching": [float(row.trace) for row in rows]}


def capture_montecarlo(lib) -> dict:
    wl = workloads.MonteCarlo(lib, 0, None)
    pool = []
    for index in range(wl.POOL):
        entry = {}
        for job, fn in wl.jobs_for(index):
            _, decoder, (rc, text) = fn()
            if rc != 0:
                raise SystemExit(f"{job} for pool entry {index} exited with {rc}")
            entry[decoder] = {key: row[2] for key, row in wl.parse(text).items()}
        print(f"montecarlo pool {index} {entry}", flush=True)
        pool.append(entry)
    return {"pool": pool}


def main() -> int:
    lib = workloads.load_lib()
    os.makedirs(workloads.REFS, exist_ok=True)
    for name in workloads.WORKLOADS:
        refs = globals()[f"capture_{name}"](lib)
        path = os.path.join(workloads.REFS, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
