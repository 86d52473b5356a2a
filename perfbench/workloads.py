"""The three workloads: inputs built from the seed, timed jobs, output checks.

Each workload is one closed loop: the runner calls its jobs one after the
other, each starting when the previous one returned.  A round is one pass
over the jobs; ``jobs(r)`` builds round ``r``'s inputs (untimed) and returns
the timed calls.  Library functions are looked up on their modules at call
time, so the traced run's wrappers see every call.

Checks never depend on the seed.  Where a value is compared with the
reference captured by ``capture_refs.py``, the seed only picks which pool
entries a run uses; every pool entry has a reference.  ``entry(r)`` names
the pool entry of round ``r``, so the runner can keep each entry's time
apart.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")
# Relative to the checkout root, the runner's working directory; the region
# CLI echoes this path, so it is part of the reference output.
OUT_DIR = os.path.join("perfbench", "out")

MODULES = (
    "channels", "classical_sim", "cli", "field_codes", "linalg",
    "povm", "regions", "specfile", "typicality",
)


def load_lib() -> SimpleNamespace:
    importlib.import_module("cosetcq")
    return SimpleNamespace(**{m: importlib.import_module(f"cosetcq.{m}") for m in MODULES})


def load_refs(name: str) -> dict:
    with open(os.path.join(REFS, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(lib, argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lib.cli.main(list(argv))
    return rc, buf.getvalue()


def pool_entries(seed: int, size: int, key: int, count: int) -> list:
    """The ``count`` entries of a pool of ``size`` that a run uses, in round order."""
    return [int(i) for i in np.random.default_rng([key, seed]).permutation(size)[:count]]


class Regions:
    """Tau sweep, grid search and region/separation CLI on both examples.

    Thousands of 2x2 to 8x8 dense operations: per-call cost in linalg and
    the hand loops in channels dominate.  POVMs and the simulator are never
    called.
    """

    name = "regions"
    main_job = "grid_search"
    calibration = "interp"
    min_rounds = 2
    # Every job is short (about 0.1-0.2 s), so the calibration passes around
    # it see the speed it ran at, and runs on the same inputs in every
    # round, so a run gathers dozens of samples of each.
    TAUS = 10  # seeded per channel, fixed for the run; three region calls each
    TAU_CHUNK = 5  # tau values per timed sweep job (15 region calls)
    GRID_RESOLUTION = 2  # 32 evaluations per grid_search call
    GRID_EVALUATIONS = 32
    WARMUP_TAUS = 40
    DELTAS = (0.01, 0.1)
    SPEC = os.path.join(OUT_DIR, "channel-example2.json")
    CLI = (
        ("region", "--spec", SPEC, "--theorem", "1"),
        ("region", "--spec", SPEC, "--theorem", "3"),
        ("region", "--spec", SPEC, "--theorem", "usb"),
        ("separation", "--example", "1", "--delta1", "0.01", "--delta", "0.1"),
        ("separation", "--example", "2", "--delta1", "0.01", "--delta", "0.1"),
    )

    def __init__(self, lib, seed: int, refs: dict) -> None:
        self.lib = lib
        self.seed = seed
        self.refs = refs
        ch = lib.channels
        self.channels = (ch.example1_channel(*self.DELTAS), ch.example2_channel(*self.DELTAS))
        os.makedirs(OUT_DIR, exist_ok=True)
        lib.specfile.write_channel_file(self.channels[1], self.SPEC)
        taus = np.random.default_rng([self.seed]).uniform(0.0, 0.5, size=(2, self.TAUS))
        self.items = self._sweep_inputs(taus)
        self.tau_latencies: list = []

    def _sweep_inputs(self, taus) -> list:
        ch = self.lib.channels
        items = []
        for idx, row in enumerate(taus):
            for tau in row:
                tau = float(tau)
                items.append((idx, tau, "t1", ch.binary_input_distribution(tau)))
                items.append((idx, tau, "t3", ch.binary_split_distribution(tau, "structured")))
                items.append((idx, tau, "usb", ch.binary_split_distribution(tau, "usb")))
        return items

    def _sweep(self, items) -> list:
        reg = self.lib.regions
        out = []
        for idx, tau, kind, dist in items:
            t0 = perf_counter()
            if kind == "t1":
                region = reg.theorem1_region(self.channels[idx], dist)
            else:
                region = reg.theorem3_region(self.channels[idx], dist)
            corners = region.corner_points()
            self.tau_latencies.append(perf_counter() - t0)
            out.append((idx, tau, kind, region, corners))
        return out

    def warmup(self) -> None:
        taus = np.linspace(0.01, 0.49, self.WARMUP_TAUS).reshape(2, -1)
        self._sweep(self._sweep_inputs(taus))
        self.tau_latencies.clear()
        run_cli(self.lib, self.CLI[0])

    def entry(self, r: int) -> int:
        """The tau values are fixed for the run and weights do not change the cost: one entry."""
        return 0

    def jobs(self, r: int) -> list:
        weights = np.random.default_rng([self.seed, r]).dirichlet(np.ones(3), size=2)
        reg = self.lib.regions
        items = self.items
        step = 3 * self.TAU_CHUNK
        jobs = [(f"tau_sweep.{k // step}", lambda k=k: self._sweep(items[k:k + step]))
                for k in range(0, len(items), step)]
        for idx, w in enumerate(weights):
            ch = self.channels[idx]
            jobs.append((f"grid_search.example{idx + 1}",
                         lambda ch=ch, w=w: reg.grid_search(ch, w, self.GRID_RESOLUTION)))
        jobs.append(("cli", lambda: [run_cli(self.lib, argv) for argv in self.CLI]))
        return jobs

    @staticmethod
    def _corners_ok(region, corners) -> bool:
        # corner_points rounds to 9 decimals, so allow 1e-8 on each line
        if corners.ndim != 2 or corners.shape[1] != 3 or corners.min() < -1e-9:
            return False
        coeffs = np.array([c.coeffs for c in region.constraints], dtype=float)
        rhs = np.array([c.rhs for c in region.constraints])
        return bool(np.all(corners @ coeffs.T <= rhs + 1e-8))

    def check(self, job: str, out) -> tuple:
        failures = []
        if job.startswith("tau_sweep"):
            reg = self.lib.regions
            for idx, tau, kind, region, corners in out:
                ok = self._corners_ok(region, corners)
                if kind == "usb":
                    base = reg.usb_region(self.channels[idx], [1.0 - tau, tau], [0.5, 0.5], [0.5, 0.5])
                    ok = ok and all(
                        abs(region.constraint(c.name).rhs - c.rhs) <= 1e-9 for c in base.constraints
                    )
                if not ok:
                    failures.append(f"{kind} region at tau={tau!r} on example {idx + 1}")
            return len(out), failures, {}
        if job.startswith("grid_search"):
            ok = (out.evaluations == self.GRID_EVALUATIONS and math.isfinite(out.best_value)
                  and out.best_value >= 0.0)
            return 1, [] if ok else [f"{job}: {out.evaluations} evaluations, best {out.best_value}"], {}
        for argv, (rc, text), ref in zip(self.CLI, out, self.refs["cli"]):
            ok = rc == 0 and text == ref
            if argv[0] == "separation":
                ok = ok and "separation: true\n" in text
            if not ok:
                failures.append(f"cli {' '.join(argv)} (exit {rc}) differs from the reference")
        return len(out), failures, {}


def _kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for _ in range(n):
        out = np.kron(out, mat)
    return out


def povm_health(povm, rho: np.ndarray) -> tuple:
    """(completeness residual, every element >= -1e-8, tr(E_None rho)).

    Positivity is tested by a Cholesky factorisation of each element's
    Hermitian part shifted by 1e-8 I, which succeeds exactly when its least
    eigenvalue exceeds -1e-8 (up to rounding); elements are visited one at a
    time so the check adds no more than one element to peak memory.
    """
    dim = povm.dim
    total = np.zeros((dim, dim), dtype=complex)
    shift = 1e-8 * np.eye(dim)
    positive = True
    for el in povm.elements:
        total += el
        try:
            np.linalg.cholesky(0.5 * (el + el.conj().T) + shift)
        except np.linalg.LinAlgError:
            positive = False
    residual = float(np.abs(total - np.eye(dim)).max())
    completion = povm.elements[povm.labels.index(None)]
    weight = float(np.real(np.sum(completion * rho.T)))
    return residual, positive, weight


class PovmExact:
    """Exact square-root decoders at n = 6, 8, 9, receiver 1, pinching sweep.

    Few, very large dense operations (D up to 512, 1024 for pinching):
    linalg eigh and matmul at scale, POVM validation and exact error.
    Regions and the simulator are never called.  No POVM above n = 9 is
    built: by the element and Gamma storage alone, n = 10 with 128 labels
    needs more than 4 GB.
    """

    name = "povm_exact"
    main_job = "ptp_n9"
    # Jobs of seconds to many seconds average out the machine's fast swings
    # in speed, which a kernel timed before and after them would not: best
    # raw seconds.
    calibration = None
    min_rounds = 2
    POOL = 6
    POOL_KEY = 20211
    K = 2
    PTP = ((6, 1), (8, 3), (9, 4))  # (n, l): 8, 32 and 64 labels at k = 2
    PTP_DELTA = 0.3
    ENC_DELTA = 0.5
    RX1_N, RX1_K, RX1_L, RX1_WORDS, RX1_TAU, RX1_DELTA = 8, 1, 2, 4, 0.5, 0.5
    PINCH_N = (2, 4, 6, 8, 10)
    PINCH_DELTA = 0.2
    PINCH_BIAS = 0.3

    def __init__(self, lib, seed: int, refs: dict) -> None:
        self.lib = lib
        self.refs = refs
        ch, fc = lib.channels, lib.field_codes
        self.states = (ch.example2_mix(0.9), ch.example2_mix(0.1))
        self.uniform = np.array([0.5, 0.5])
        self.rx1_channel = ch.example2_channel(0.01, 0.1)
        self.rx1_dist = ch.binary_input_distribution(self.RX1_TAU)
        self.pinch_states = (ch.example2_mix(1.0 - self.PINCH_BIAS), ch.example2_mix(self.PINCH_BIAS))
        self.pool = [self._pool_entry(fc, i) for i in range(self.POOL)]
        # One seed-chosen entry for every round, so a run's best time
        # compares rounds on the same codes (ptp_n8 alone costs up to 1.4x
        # more on some codes than on others).
        self.index = pool_entries(seed, self.POOL, self.POOL_KEY, 1)[0]

    def _pool_entry(self, fc, index: int) -> dict:
        rng = np.random.default_rng([self.POOL_KEY, index])
        f2 = fc.PrimeField(2)

        def code(n, k, l, gi=None, go=None):
            gi = rng.integers(0, 2, size=(k, n)) if gi is None else gi
            go = rng.integers(0, 2, size=(l, n)) if go is None else go
            return fc.NestedCosetCode(f2, n, k, l, gi, go, rng.integers(0, 2, size=n))

        entry = {}
        for n, l in self.PTP:
            c = code(n, self.K, l)
            entry[n] = (c, fc.select_typical(c, self.uniform, self.ENC_DELTA, rng))
        c2 = code(self.RX1_N, self.RX1_K, self.RX1_L)
        c3 = code(self.RX1_N, self.RX1_K, self.RX1_L, c2.g_inner, c2.g_outer)
        half = np.repeat([1, 0], self.RX1_N // 2)
        book1 = tuple(rng.permutation(half) for _ in range(self.RX1_WORDS))
        entry["rx1"] = (
            book1, c2, c3,
            fc.select_typical(c2, self.uniform, self.ENC_DELTA, rng),
            fc.select_typical(c3, self.uniform, self.ENC_DELTA, rng),
        )
        return entry

    def _ptp(self, entry: dict, n: int):
        P = self.lib.povm
        code, enc = entry[n]
        povm = P.build_ptp_povm(code, enc, self.states, self.PTP_DELTA)
        return povm, P.ptp_block_error(povm, enc, self.states)

    def _rx1(self, entry: dict):
        P = self.lib.povm
        book1, c2, c3, enc2, enc3 = entry["rx1"]
        setup = P.rx1_setup_from_channel(self.rx1_channel, self.rx1_dist, book1, c2, c3)
        povm = P.build_rx1_povm(setup, self.RX1_DELTA)
        return setup, povm, P.rx1_success_probability(povm, setup, enc2, enc3)

    def _pinching(self, n_list):
        return self.lib.povm.verify_pinching(
            np.diag([0.5, 0.5]), self.pinch_states, list(n_list), self.PINCH_DELTA
        )

    def jobs_for(self, index: int) -> list:
        entry = self.pool[index]
        jobs = [(f"ptp_n{n}", lambda n=n: (index, self._ptp(entry, n))) for n, _ in self.PTP]
        jobs.append(("rx1", lambda: (index, self._rx1(entry))))
        jobs.append(("pinching", lambda: (index, self._pinching(self.PINCH_N))))
        return jobs

    def entry(self, r: int) -> int:
        return self.index

    def jobs(self, r: int) -> list:
        return self.jobs_for(self.index)

    def warmup(self) -> None:
        self._ptp(self.pool[self.index], 6)
        self._pinching(self.PINCH_N[:4])

    def check(self, job: str, out) -> tuple:
        index, result = out
        failures = []
        health = {}
        ref = self.refs["pool"][index]
        if job == "pinching":
            traces = [row.trace for row in result]
            ok = len(traces) == len(self.refs["pinching"]) and all(
                0.0 <= t <= 1.0 and abs(t - want) <= 1e-10
                for t, want in zip(traces, self.refs["pinching"])
            )
            return 1, [] if ok else [f"pinching traces {traces}"], health
        if job == "rx1":
            setup, povm, value = result
            rho = sum(setup.p_x1[x1] * setup.p_u[u] * m for (x1, u), m in setup.cond_states.items())
            n, labels = self.RX1_N, self.RX1_WORDS * 2 ** (self.RX1_K + self.RX1_L)
        else:
            povm, value = result
            n = int(job[len("ptp_n"):])
            labels = 2 ** (self.K + dict(self.PTP)[n])
            rho = 0.5 * (self.states[0] + self.states[1])
        residual, positive, weight = povm_health(povm, _kron_power(rho, n))
        health["povm.completion_weight"] = weight
        problems = []
        if len(povm.labels) != labels + 1:
            problems.append(f"{len(povm.labels) - 1} labels, expected {labels}")
        if residual > 1e-8:
            problems.append(f"completeness residual {residual:.3e}")
        if not positive:
            problems.append("an element has an eigenvalue below -1e-8")
        if not 0.0 <= value <= 1.0 or abs(value - ref[job]) > 1e-10:
            problems.append(f"value {value!r}, reference {ref[job]!r}")
        if problems:
            failures.append(f"{job} on pool entry {index}: " + "; ".join(problems))
        return 1, failures, health


class MonteCarlo:
    """``cosetcq simulate --baseline`` with the typicality and the ML decoder.

    Packed-word integer and bitwise kernels, no linalg.  The typicality
    decoder is vectorised, the ML decoder loops over trials in Python, and
    the independent baseline searches far more receiver-1 candidates than
    the coset-sum range; each call runs both codebook types.
    """

    name = "montecarlo"
    main_job = "simulate_ml"
    calibration = "packed"
    # The typicality call costs 2x more on some codes than on others, so
    # every run visits the whole pool, in a seeded order, and each code's
    # time counts.  Calls are short (about 0.1 s), so each entry gets
    # dozens of samples in a run.
    POOL = 4
    min_rounds = POOL
    POOL_KEY = 20212
    SEED_BASE = 1000  # CLI seed of pool entry i is SEED_BASE + i
    # Trials per codebook type; each call runs both types.  The counts keep
    # every call near 0.1-0.15 s, and at them the receiver-1 ordering check
    # holds on every pool entry for both decoders.
    TRIALS = {"typicality": 5_000, "ml": 2_500}
    WARMUP_TRIALS = 1_000
    DECODERS = ("typicality", "ml")

    def __init__(self, lib, seed: int, refs: dict) -> None:
        self.lib = lib
        self.refs = refs
        self.entries = pool_entries(seed, self.POOL, self.POOL_KEY, self.POOL)

    def argv(self, cli_seed: int, decoder: str, trials: int) -> tuple:
        return (
            "simulate", "--seed", str(cli_seed), "--trials", str(trials),
            "--baseline", "--decoder", decoder,
        )

    def jobs_for(self, index: int) -> list:
        cli_seed = self.SEED_BASE + index
        return [
            (f"simulate_{d}",
             lambda d=d: (index, d, run_cli(self.lib, self.argv(cli_seed, d, self.TRIALS[d]))))
            for d in self.DECODERS
        ]

    def entry(self, r: int) -> int:
        return self.entries[r % self.POOL]

    def jobs(self, r: int) -> list:
        return self.jobs_for(self.entry(r))

    def warmup(self) -> None:
        for d in self.DECODERS:
            run_cli(self.lib, self.argv(self.SEED_BASE - 1, d, self.WARMUP_TRIALS))

    @staticmethod
    def parse(text: str) -> dict:
        rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
        table = {}
        for mode, rx, errors, trials, rate, lo, hi in rows[1:]:
            table[f"{mode}.{rx}"] = (int(errors), int(trials), float(rate), float(lo), float(hi))
        return table

    def check(self, job: str, out) -> tuple:
        index, decoder, (rc, text) = out
        ref = self.refs["pool"][index][decoder]
        problems = []
        table = self.parse(text) if rc == 0 else {}
        if rc != 0 or set(table) != set(ref):
            return 1, [f"{job} seed {self.SEED_BASE + index}: exit {rc}, rows {sorted(table)}"], {}
        for key, (errors, trials, rate, _, _) in table.items():
            p0 = ref[key]
            # two independent binomial estimates of one rate, 5 sigma apart
            tol = 5.0 * math.sqrt(2.0 * p0 * (1.0 - p0) / trials) + 1.0 / trials
            if trials != self.TRIALS[decoder] or abs(rate - p0) > tol:
                problems.append(f"{key} rate {rate} vs reference {p0} (tolerance {tol:.4f})")
        s, i = table["structured.1"], table["independent.1"]
        if not (s[2] < i[2] and s[4] < i[3]):
            problems.append(f"receiver 1: structured {s[2]} not below independent {i[2]}")
        if problems:
            return 1, [f"{job} seed {self.SEED_BASE + index}: " + "; ".join(problems)], {}
        return 1, [], {}


WORKLOADS = {w.name: w for w in (Regions, PovmExact, MonteCarlo)}
