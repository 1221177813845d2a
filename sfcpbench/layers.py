"""Per-layer self times for one solve, read from the library's wall profile.

``repro.pram.wall_profiling()`` records the exclusive wall seconds of
every cost span (``jaja_ryu/step3_label_trees/.../optimal_rank``) and of
every host kernel (``[kernel] radix``, ``[kernel] cycle_labels``).  Each
profile row is assigned to one layer by the span names on its path
(``SPAN_LAYERS``), so a span renamed in the library moves its time to
``partition.residual`` instead of going unnoticed.

Two figures the profile lacks are added from the benchmark's side, and
removed again after the solve:

* the sort kernel's key counts: the default entry of
  ``repro.pram.kernels.SORT_KERNELS`` (read at call time) is wrapped to
  count its keys and its calls below the radix fallback size;
* the machine's combining steps: ``Machine.concurrent_combine_pairs`` and
  ``Machine.concurrent_write_pairs`` run inside
  ``repro.pram.kernel_timing``, so they get a row of their own and their
  time leaves the enclosing span's.

``partition.residual`` is the traced solve minus every other layer: the
pipeline root's own time, the entry point outside any span, and any row
no rule claims.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Tuple

#: ``radix_kernel`` hands inputs shorter than this to a plain stable
#: argsort (its fallback size); calls below it count as "small".
RADIX_FALLBACK_KEYS = 1024

#: A traced solve whose residual exceeds this share of its wall time
#: makes the run incorrect: the named layers no longer account for it.
RESIDUAL_BOUND = 0.10

#: Span name -> layer, in priority order: a row belongs to the first
#: entry whose span name is on its path.
SPAN_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("optimal_rank", "primitives.optimal_rank"),
    ("efficient_msp", "strings.msp"),
    ("simple_msp", "strings.msp"),
    ("euler_structure", "primitives.euler_tour"),
    ("mark_cycle_arcs", "primitives.euler_tour"),
    ("vertex_levels", "primitives.euler_tour"),
    ("step1_find_cycles", "partition.find_cycles"),
    ("step2_label_cycles", "partition.label_cycles"),
    ("step3_label_trees", "partition.label_trees"),
)

COMBINE_KERNEL = "machine.combine"
COMBINE_METHODS = ("concurrent_combine_pairs", "concurrent_write_pairs")

#: Host kernel rows other than the sort kernels -> layer.
KERNEL_LAYERS = {"cycle_labels": "kernels.cycle_labels", COMBINE_KERNEL: COMBINE_KERNEL}

RESIDUAL = "partition.residual"
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in SPAN_LAYERS]
    + ["kernels.radix", "kernels.cycle_labels", COMBINE_KERNEL, RESIDUAL]
))


def layer_of(span: str, sort_kernels) -> str:
    """The layer a profile row belongs to (``RESIDUAL`` if none claims it)."""
    if span.startswith("[kernel] "):
        kernel = span[len("[kernel] "):]
        if kernel in sort_kernels:
            return "kernels.radix"
        return KERNEL_LAYERS.get(kernel, RESIDUAL)
    names = span.split("/")
    for name, layer in SPAN_LAYERS:
        if name in names:
            return layer
    return RESIDUAL


class SortCounter:
    """Counts the default sort kernel's calls and keys while installed."""

    def __init__(self) -> None:
        self.calls = self.keys = self.small = 0

    def wrap(self, sort: Callable) -> Callable:
        def counted_sort(keys, key_range):
            self.calls += 1
            self.keys += len(keys)
            if len(keys) < RADIX_FALLBACK_KEYS:
                self.small += 1
            return sort(keys, key_range)

        return counted_sort


def _install(counter: SortCounter) -> Callable[[], None]:
    """Wrap the sort kernel and the combining steps; returns the undo."""
    from repro.pram import Machine, kernel_timing, kernels

    def timed(original: Callable) -> Callable:
        @functools.wraps(original)
        def combine(*args, **kwargs):
            with kernel_timing(COMBINE_KERNEL):
                return original(*args, **kwargs)

        return combine

    restore: List[Callable[[], None]] = []
    for method in COMBINE_METHODS:
        original = Machine.__dict__[method]
        setattr(Machine, method, timed(original))
        restore.append(lambda m=method, f=original: setattr(Machine, m, f))

    kernel = kernels.default_sort_kernel()
    sort = kernels.SORT_KERNELS[kernel]
    kernels.SORT_KERNELS[kernel] = counter.wrap(sort)
    restore.append(lambda: kernels.SORT_KERNELS.__setitem__(kernel, sort))

    def undo() -> None:
        while restore:
            restore.pop()()

    return undo


def traced_solve(solve: Callable):
    """Run ``solve()`` once under the wall profile.

    Returns ``(result, seconds, layer self seconds, counts)`` with counts
    ``[radix calls, radix keys, radix calls below the fallback size,
    efficient_msp calls]``.
    """
    from repro.pram import kernels, wall_profiling

    counter = SortCounter()
    undo = _install(counter)
    try:
        with wall_profiling() as profile:
            start = time.perf_counter()
            result = solve()
            seconds = time.perf_counter() - start
    finally:
        undo()

    layers: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    msp_calls = 0
    for row in profile.rows():
        layer = layer_of(row["span"], kernels.SORT_KERNELS)
        if layer != RESIDUAL:
            layers[layer] += float(row["wall_seconds"])
        if row["span"].split("/")[-1] == "efficient_msp":
            msp_calls += int(row["calls"])
    layers[RESIDUAL] = seconds - sum(layers.values())
    return result, seconds, layers, [counter.calls, counter.keys, counter.small, msp_calls]
