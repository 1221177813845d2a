"""A deliberately slowed sort kernel for the benchmark's sensitivity self-check.

Loaded at interpreter start-up when this directory is on ``PYTHONPATH``.
The self-check puts it there, after the checkout's ``src``, for its
slowed runs.  The benchmark passes its ``PYTHONPATH`` on to the solver
processes and the server, and the server to its replicas, so every
interpreter of a slowed run registers ``radix_twice`` (the radix kernel
run twice, returning the second, identical permutation) in the public
``repro.pram.kernels.SORT_KERNELS`` registry and makes it the default.
Charged PRAM totals and labels do not change; only the wall time spent
in the sort kernel doubles.
"""

from repro.pram import kernels

_radix = kernels.SORT_KERNELS["radix"]


def radix_twice(keys, key_range):
    _radix(keys, key_range)
    return _radix(keys, key_range)


kernels.SORT_KERNELS["radix_twice"] = radix_twice
kernels.set_default_sort_kernel("radix_twice")
