"""Record ``references.json``: what every benchmark solve must reproduce.

Run from the root of a checkout, only when a change is meant to alter a
solve workload's output or its charged PRAM totals::

    python3 sfcpbench/record_references.py

Each workload is solved with the parallel pipeline under two different
block-id seeds, and its labels are cross-checked against the sequential
``linear_partition`` before anything is written.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from common import import_library
from solve import REFERENCES, WORKLOADS, build_instance, fingerprint


def record(workload: str) -> dict:
    from repro import coarsest_partition, linear_partition

    prints = []
    for seed in (0, 1):
        function, labels = build_instance(workload, seed)
        result = coarsest_partition(function, labels)
        sequential = linear_partition(function, labels)
        if not np.array_equal(result.labels, sequential.labels):
            raise SystemExit(f"{workload}: parallel and sequential labels differ (seed {seed})")
        prints.append(fingerprint(result))
    if prints[0] != prints[1]:
        raise SystemExit(f"{workload}: the block-id seed changed the result")
    return prints[0]


def main() -> int:
    import_library()
    references = {workload: record(workload) for workload in WORKLOADS}
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(references, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
