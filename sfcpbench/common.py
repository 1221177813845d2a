"""Shared plumbing: locating the library, host facts, statistics, output.

The benchmark runs from the root of a source checkout and imports the
library from ``src/`` there, never from an installed copy, so the code
under measurement is always the checkout's own.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no library sources, bad input)."""


def source_root() -> str:
    """The checkout root: the current directory, which must hold ``src/repro``."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise SetupError(f"no src/repro package under {root}; run from a checkout root")
    return root


def import_library() -> str:
    """Put ``<root>/src`` first on ``sys.path`` and import ``repro`` from it."""
    src = os.path.join(source_root(), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SetupError(f"repro was imported from {repro.__file__}, not from {src}")
    return src


def child_env() -> Dict[str, str]:
    """Environment for a child Python process that must import ``src/repro``.

    The inherited ``PYTHONPATH`` is kept after ``src``, so a start-up hook
    on it (the self-check's ``slowhook/``) reaches every child.
    """
    env = dict(os.environ)
    parts = [os.path.join(source_root(), "src")]
    existing = env.get("PYTHONPATH")
    if existing:
        parts.append(existing)
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_state(root: str) -> Dict[str, object]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def host_facts() -> Dict[str, object]:
    """What a reader needs to explain a noisy run."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_git_state(source_root()),
    }


class StealMeter:
    """Share of CPU time the hypervisor stole between start and stop."""

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> Optional[List[int]]:
        try:
            with open("/proc/stat", "r", encoding="utf-8") as fh:
                fields = fh.readline().split()
        except OSError:
            return None
        # cpu user nice system idle iowait irq softirq steal ...
        return [int(v) for v in fields[1:9]] if fields and fields[0] == "cpu" else None

    def stop(self) -> float:
        end = self._read()
        if self._start is None or end is None:
            return 0.0
        delta = [b - a for a, b in zip(self._start, end)]
        total = sum(delta)
        return delta[7] / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def peak_rss_self_mb() -> float:
    """This process's own peak resident set (``ru_maxrss``), in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"/proc/{pid}/status has no VmHWM line")


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def note(tag: str, payload: object) -> None:
    """One ``# tag {json}`` line of run context on stdout (never the last line)."""
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def emit_result(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]
) -> None:
    """Print the result object as the last line of stdout."""
    doc = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(doc), flush=True)
