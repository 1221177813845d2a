"""The library workloads: one caller re-solving one instance back to back.

``solve_forest``
    A uniformly random function on 2^18 nodes with 3 initial blocks
    (the library's ``mixed`` shape).  Trees dominate, so the time goes to
    large radix sorts, the Euler tour, ``optimal_rank`` and step 3 of the
    pipeline; ``repro.strings`` sees a handful of calls.
``solve_cycles``
    1024 disjoint cycles of length 32 whose labels are rotations of 4
    patterns (2^15 nodes), the circular-string canonisation shape.  Step 2
    and its per-cycle ``efficient_msp`` loop do the work, sorts arrive as
    thousands of calls below the radix fallback size, step 3 is idle.

The graph of each instance is fixed; ``--seed`` renames the initial block
ids through a seeded bijection.  The coarsest partition, the canonical
labels and the charged PRAM totals are therefore the same for every seed,
and every solve is checked against the committed ``references.json``.

Solve times are reported at a fixed host speed: each solve's wall time is
divided by the time of a fixed reference load run next to it and scaled
by that load's time on a reference host (see ``REFERENCE_MS``).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from common import (
    BENCH_DIR,
    SetupError,
    StealMeter,
    child_env,
    median,
    note,
    peak_rss_self_mb,
    percentile,
)

#: Seed of the graph structure; the workload seed only renames block ids.
STRUCTURE_SEED = 0

#: Fresh solver processes per run.  Solve times differ more between
#: processes than within one (about +-8 % at 2^18), so a run pools the
#: solves of several processes, and each process's time from spawn to its
#: first verified solve is one set-up sample.
PROCESSES = 4

REFERENCES = os.path.join(BENCH_DIR, "references.json")

#: Time in ms of each workload's reference load on a 2-vCPU Intel Xeon
#: VM with Python 3.11 and NumPy 2.4 (the median of 500 loads).  A
#: solve's reported time is its wall time times ``REFERENCE_MS`` over the
#: mean of the loads timed just before and just after it: milliseconds at
#: the speed the host had when these were measured.
REFERENCE_MS = {"solve_forest": 42.0, "solve_cycles": 32.0}

#: Runs of the reference load timed after the set-up solve; their median
#: rescales the set-up time the same way.
SETUP_LOADS = 3

#: A solve is scaled by the median of the ``2 * LOAD_WINDOW`` loads timed
#: nearest to it, half before and half after.  One short load is a noisy
#: reading of the host's speed over a whole solve: a 42 ms array load
#: varied 30-48 ms between consecutive 1 s forest solves, so there three
#: on each side steady the scale.  The cycle solves are shorter and follow
#: faster swings, so there the two loads adjacent to the solve track best.
LOAD_WINDOW = {"solve_forest": 3, "solve_cycles": 1}

WORKLOADS = ("solve_forest", "solve_cycles")


def _forest(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    n = 1 << 18
    function = rng.integers(0, n, n, dtype=np.int64)
    labels = rng.integers(0, 3, n, dtype=np.int64)
    return function, labels


def _cycles(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    num_cycles, length, num_patterns = 1024, 32, 4
    n = num_cycles * length
    members = rng.permutation(n).astype(np.int64).reshape(num_cycles, length)
    function = np.empty(n, dtype=np.int64)
    function[members] = np.roll(members, -1, axis=1)
    patterns = rng.integers(0, 2, (num_patterns, length), dtype=np.int64)
    pick = rng.integers(0, num_patterns, num_cycles)
    shift = rng.integers(0, length, num_cycles)
    # cycle c carries pattern[pick[c]] rotated right by shift[c]
    column = (np.arange(length)[None, :] - shift[:, None]) % length
    labels = np.empty(n, dtype=np.int64)
    labels[members] = patterns[pick[:, None], column]
    return function, labels


# ----------------------------------------------------------------------
# reference loads
# ----------------------------------------------------------------------
# The shared host's speed drifts by up to a factor of two within tens of
# seconds, CPU steal or not, and a solve follows it: a solve_cycles
# solve's median over 6-second windows read 0.49-1.03 s within two
# minutes.  A fixed load of the workload's own kind, timed between
# consecutive solves, slows down with the host: over the same windows the
# ratio of solve to load spread about 5 % where the raw time spread about
# 35 %.  The loads use NumPy and plain Python only, never the library, so
# only the program under test moves the ratio.
def _interpreter_load():
    """Python-level loops and tiny stable sorts, the mix of ``solve_cycles``."""
    rng = np.random.default_rng(0)
    rows = [rng.integers(0, 1000, 32) for _ in range(64)]

    def load() -> None:
        table: Dict[int, int] = {}
        for i in range(60000):
            table[i & 1023] = table.get(i & 1023, 0) + len(str(i))
        for _ in range(40):
            for row in rows:
                np.cumsum(row[np.argsort(row, kind="stable")])

    return load


def _array_load():
    """Stable sorts and gathers over 2^18 keys, the mix of ``solve_forest``."""
    keys = np.random.default_rng(0).integers(0, 1 << 18, 1 << 18)

    def load() -> None:
        order = np.argsort(keys, kind="stable")
        np.bincount(keys[order] & 1023)
        keys[keys]

    return load


REFERENCE_LOADS = {"solve_forest": _array_load, "solve_cycles": _interpreter_load}


def _timed(load) -> float:
    start = time.perf_counter()
    load()
    return time.perf_counter() - start


def build_instance(workload: str, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The workload's instance with block ids renamed by ``seed``."""
    shape = {"solve_forest": _forest, "solve_cycles": _cycles}[workload]
    function, labels = shape(np.random.default_rng(STRUCTURE_SEED))
    blocks, dense = np.unique(labels, return_inverse=True)
    ids = np.random.default_rng(seed).choice(1 << 31, size=len(blocks), replace=False)
    return function, ids[dense].astype(np.int64)


def fingerprint(result) -> Dict[str, object]:
    """What a solve must reproduce: blocks, label digest, charged totals."""
    labels = np.ascontiguousarray(result.labels, dtype="<i8")
    return {
        "blocks": int(result.num_blocks),
        "labels_sha256": hashlib.sha256(labels.tobytes()).hexdigest(),
        "time": int(result.cost.time),
        "work": int(result.cost.work),
        "charged_work": int(result.cost.charged_work),
    }


def load_reference(workload: str) -> Dict[str, object]:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _solver(workload: str, seed: int):
    from repro import coarsest_partition

    function, labels = build_instance(workload, seed)
    return lambda: coarsest_partition(function, labels)


# ----------------------------------------------------------------------
# one solver process
# ----------------------------------------------------------------------
def worker(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Child side: one verified solve, then the timed loop.

    Prints ``READY <ok>`` after the first solve (the end of set-up) and
    ``RESULT <json>`` with every timed sample at the end.  With ``trace``
    it alternates untraced and traced solves.  The reference load runs
    between consecutive solves; each sample records the load timed right
    after it.
    """
    from layers import traced_solve

    reference = load_reference(workload)
    load = REFERENCE_LOADS[workload]()
    solve = _solver(workload, seed)
    ready = fingerprint(solve()) == reference
    print(f"READY {int(ready)}", flush=True)

    setup_load = median([_timed(load) for _ in range(SETUP_LOADS)])
    samples: List[Dict[str, object]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < (2 if trace else 1):
        sample: Dict[str, object] = {"traced": trace and len(samples) % 2 == 1}
        if sample["traced"]:
            result, elapsed, sample["layers"], sample["counts"] = traced_solve(solve)
        else:
            start = time.perf_counter()
            result = solve()
            elapsed = time.perf_counter() - start
        sample["seconds"] = elapsed
        sample["fingerprint"] = fingerprint(result)
        sample["load_after"] = _timed(load)
        samples.append(sample)
    print("RESULT " + json.dumps({"ready": ready, "samples": samples, "setup_load": setup_load,
                                   "rss_mb": peak_rss_self_mb()}), flush=True)
    return 0


def _scaled(result: Dict[str, object], window: int, reference_s: float) -> List[float]:
    """One process's untraced solve times at the reference host speed."""
    samples = result["samples"]
    # loads[i] ran just before sample i, loads[i + 1] just after it
    loads = [result["setup_load"]] + [s["load_after"] for s in samples]
    return [
        s["seconds"] * reference_s / median(loads[max(0, i + 1 - window):i + 1 + window])
        for i, s in enumerate(samples) if not s["traced"]
    ]


def _spawn(workload: str, seed: int, seconds: float, trace: bool):
    """Run one solver process; returns (spawn-to-ready seconds, its RESULT)."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--worker",
            "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        tail = proc.stdout.read().splitlines()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if not ready.startswith("READY") or proc.returncode != 0 or not tail[-1:] or not tail[-1].startswith("RESULT "):
        raise SetupError(f"solver process failed (exit {proc.returncode})")
    return setup, json.loads(tail[-1][len("RESULT "):])


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(
    workload: str, seed: int, seconds: float, trace: bool, slo_ms: float
) -> Tuple[bool, int, int, Dict[str, tuple]]:
    from layers import RESIDUAL, RESIDUAL_BOUND

    reference = load_reference(workload)
    reference_s = REFERENCE_MS[workload] / 1e3
    steal = StealMeter()
    setup_times: List[float] = []
    results = []
    for _ in range(PROCESSES):
        setup, result = _spawn(workload, seed, seconds / PROCESSES, trace)
        setup_times.append(setup)
        results.append(result)
    steal_frac = steal.stop()

    samples = [sample for result in results for sample in result["samples"]]
    attempted = len(results) + len(samples)
    failed = sum(not r["ready"] for r in results) + sum(
        s["fingerprint"] != reference for s in samples
    )
    plain = [s["seconds"] for s in samples if not s["traced"]]
    scaled = [t for r in results for t in _scaled(r, LOAD_WINDOW[workload], reference_s)]
    setup_scaled = [t * reference_s / r["setup_load"] for t, r in zip(setup_times, results)]
    traced = [s for s in samples if s["traced"]]
    note("samples", {"processes": len(results), "plain": len(plain), "traced": len(traced)})

    if not trace:
        within = sum(
            s["fingerprint"] == reference and s["seconds"] * 1e3 <= slo_ms
            for s in samples
        )
        metrics = {
            "setup_s": (median(setup_scaled), "s"),
            "lat_p50_ms": (median(scaled) * 1e3, "ms"),
            "lat_p99_ms": (percentile(scaled, 99) * 1e3, "ms"),
            "slo_ok_frac": (within / len(samples), "fraction"),
            "peak_rss_mb": (max(r["rss_mb"] for r in results), "MiB"),
        }
        loads = [s["load_after"] for s in samples]
        note("manifest", {"setup_s_samples": setup_times, "steal_frac": steal_frac,
                          "wall_lat_p50_ms": median(plain) * 1e3,
                          "load_ms_p50": median(loads) * 1e3,
                          "reference_ms": REFERENCE_MS[workload]})
        return failed == 0, attempted, failed, metrics

    # The named layers must account for all but RESIDUAL_BOUND of every
    # traced solve, and the counts repeat exactly; anything else is a
    # broken trace.
    unaccounted = [s["layers"][RESIDUAL] / s["seconds"] for s in traced]
    unbalanced = sum(share > RESIDUAL_BOUND for share in unaccounted)
    counts = {tuple(s["counts"]) for s in traced}
    radix_calls, radix_keys, radix_small, msp_calls = min(counts)
    traced_s = [s["seconds"] for s in traced]

    def layer_s(layer: str) -> float:
        return median([s["layers"][layer] for s in traced])

    last = samples[-1]["fingerprint"]
    metrics = {
        "kernels.radix_s": (layer_s("kernels.radix"), "s"),
        "kernels.radix_calls": (radix_calls, "count"),
        "kernels.radix_keys": (radix_keys, "count"),
        "kernels.radix_small_frac": (radix_small / radix_calls if radix_calls else 0.0, "fraction"),
        "kernels.cycle_labels_s": (layer_s("kernels.cycle_labels"), "s"),
        "machine.combine_s": (layer_s("machine.combine"), "s"),
        "primitives.euler_tour_s": (layer_s("primitives.euler_tour"), "s"),
        "primitives.optimal_rank_s": (layer_s("primitives.optimal_rank"), "s"),
        "strings.msp_s": (layer_s("strings.msp"), "s"),
        "strings.msp_calls": (msp_calls, "count"),
        "partition.find_cycles_s": (layer_s("partition.find_cycles"), "s"),
        "partition.label_cycles_s": (layer_s("partition.label_cycles"), "s"),
        "partition.label_trees_s": (layer_s("partition.label_trees"), "s"),
        "partition.residual_s": (layer_s(RESIDUAL), "s"),
        "pram.time": (last["time"], "count"),
        "pram.work": (last["work"], "count"),
        "pram.charged_work": (last["charged_work"], "count"),
        "host.steal_frac": (steal_frac, "fraction"),
        "trace.overhead_frac": (median(traced_s) / median(plain) - 1.0, "fraction"),
    }
    note("manifest", {"steal_frac": steal_frac, "residual_share_max": max(unaccounted),
                      "residual_over_bound": unbalanced,
                      "distinct_counts": len(counts), "traced_solve_s": median(traced_s)})
    return failed == 0 and unbalanced == 0 and len(counts) == 1, attempted, failed, metrics
