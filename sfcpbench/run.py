"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 sfcpbench/run.py --workload solve_forest --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a separate run that
times the calls into each layer.  The last line of stdout is the result
object; ``# host``/``# manifest`` lines before it record what a reader
needs to explain a noisy run.  Exit status: 0 verified, 1 a wrong output,
2 the benchmark could not run (no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from typing import Dict

from common import SetupError, emit_result, host_facts, import_library, note, source_root

WORKLOADS = ("solve_forest", "solve_cycles", "serve_fleet")


def _slo_limits(specs) -> Dict[str, float]:
    limits = {}
    for spec in specs:
        name, _, value = spec.partition("=")
        if name not in WORKLOADS or not value:
            raise SetupError(f"--slo-ms expects WORKLOAD=MS, got {spec!r}")
        limits[name] = float(value)
    return limits


def _complete(metrics: Dict[str, tuple], trace: bool) -> Dict[str, tuple]:
    """Check names and units against BENCHMARK.json and fill unobserved layers.

    A per-layer metric a workload does not exercise (the serving queue on
    a library solve, the kernels inside replica processes on the fleet)
    reads 0 and is listed in the ``# unobserved`` line.
    """
    with open(os.path.join(source_root(), "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec}
    for name, (_, unit) in metrics.items():
        if units.get(name) != unit:
            raise SetupError(f"metric {name!r} [{unit}] is not declared in BENCHMARK.json")
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise SetupError(f"end-to-end metrics not measured: {missing}")
    note("unobserved", missing)
    return {name: metrics.get(name, (0.0, units[name])) for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slo-ms", action="append", default=[], metavar="WORKLOAD=MS",
                        help="latency limit behind slo_ok_frac, per workload")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so every server it booted is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        import_library()
        if args.worker:
            from solve import worker

            return worker(args.workload, args.seed, args.seconds, bool(args.trace))
        limits = _slo_limits(args.slo_ms)
        if args.workload not in limits:
            raise SetupError(f"no --slo-ms limit for {args.workload}")
        note("host", host_facts())
        trace = bool(args.trace)
        if args.workload == "serve_fleet":
            import serve

            correct, attempted, failed, metrics = serve.run(
                args.seed, args.seconds, trace, limits[args.workload]
            )
        else:
            import solve

            correct, attempted, failed, metrics = solve.run(
                args.workload, args.seed, args.seconds, trace, limits[args.workload]
            )
        metrics = _complete(metrics, trace)
    except SetupError as exc:
        print(f"sfcpbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 — any crash is a benchmark that did not run
        traceback.print_exc()
        return 2
    emit_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
