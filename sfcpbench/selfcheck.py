"""Sensitivity self-check: does the benchmark see a slowed sort kernel where it should?

Run from the root of a checkout::

    python3 sfcpbench/selfcheck.py [--runs 3]

Alternates baseline runs with slowed runs of the benchmark command.  A
slowed run has ``slowhook/`` on ``PYTHONPATH``, whose start-up hook
registers ``radix_twice`` in every interpreter of the run: the benchmark
itself, its solver processes, the server and its replicas.  The
self-check requires:

* ``solve_forest``: every slowed run's ``kernels.radix_s`` lies above
  every baseline run's, and ``lat_p50_ms`` (scaled to the reference host
  speed, which the slowed kernel does not touch) rises by at least half
  the added kernel time;
* ``solve_cycles`` and ``serve_fleet``: no end-to-end metric's slowed
  median is worse than its baseline median by more than the metric's
  bound in ``BENCHMARK.json`` (``setup_s`` on the solve workloads
  includes one solve, so it is held to the same rule).

Exit status 0 when every requirement holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _slowed_env() -> Dict[str, str]:
    """The environment of a slowed run: ``src`` and the start-up hook first."""
    env = dict(os.environ)
    parts = [os.path.join(os.getcwd(), "src"), os.path.join(BENCH_DIR, "slowhook")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _run(spec: dict, workload: str, seed: int, trace: int, slow: bool) -> Dict[str, float]:
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=600,
                         env=_slowed_env() if slow else None)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(argv)} reported wrong or failed outputs: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _series(spec: dict, workload: str, trace: int, runs: int) -> Dict[bool, List[Dict[str, float]]]:
    series: Dict[bool, List[Dict[str, float]]] = {False: [], True: []}
    for i in range(runs):
        # alternate which side runs first so host drift hits both alike
        for slow in ((False, True) if i % 2 == 0 else (True, False)):
            series[slow].append(_run(spec, workload, 100 + i, trace, slow))
    return series


def _median(runs: List[Dict[str, float]], metric: str) -> float:
    return statistics.median(r[metric] for r in runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per side and series")
    args = parser.parse_args()
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures: List[str] = []

    def require(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    traced = _series(spec, "solve_forest", 1, args.runs)
    base_radix = [r["kernels.radix_s"] for r in traced[False]]
    slow_radix = [r["kernels.radix_s"] for r in traced[True]]
    require(min(slow_radix) > max(base_radix),
            f"solve_forest kernels.radix_s: slowed {sorted(slow_radix)} above baseline {sorted(base_radix)}")
    added_ms = (statistics.median(slow_radix) - statistics.median(base_radix)) * 1e3

    untraced = _series(spec, "solve_forest", 0, args.runs)
    rise_ms = _median(untraced[True], "lat_p50_ms") - _median(untraced[False], "lat_p50_ms")
    require(rise_ms >= 0.5 * added_ms,
            f"solve_forest lat_p50_ms rose {rise_ms:.1f} ms; kernel time added {added_ms:.1f} ms")

    for workload in ("solve_cycles", "serve_fleet"):
        series = _series(spec, workload, 0, args.runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base, slow = _median(series[False], name), _median(series[True], name)
            worse = (slow - base) / base if metric["better"] == "lower" else (base - slow) / base
            require(worse <= bound,
                    f"{workload} {name}: baseline {base:.4g}, slowed {slow:.4g} "
                    f"({worse:+.1%} worse, bound {bound:.0%})")

    print("self-check " + ("passed" if not failures else f"failed: {len(failures)} requirement(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
