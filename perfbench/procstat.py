"""Per-process CPU and memory from ``/proc``, and the run's environment block."""

from __future__ import annotations

import os
import platform
from typing import Dict, Optional

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Thread-count variables the BLAS and OpenMP runtimes read. The benchmark
#: records them and never sets them.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of every thread of ``pid``.

    Parsed from ``/proc/<pid>/stat``: the command name may hold spaces or
    parentheses, so fields are counted from the last ``)``. ``utime`` and
    ``stime`` are fields 14 and 15, in clock ticks.
    """
    with open(f"/proc/{pid}/stat", "rb") as handle:
        data = handle.read()
    fields = data[data.rindex(b")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise LookupError(f"/proc/{pid}/status has no VmHWM line")


def host_ticks() -> list:
    """Aggregate CPU tick counters of the host (first line of /proc/stat)."""
    with open("/proc/stat", "rb") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: list, after: list) -> float:
    """Share of host CPU time stolen by the hypervisor between two reads."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total and len(delta) > 7 else 0.0


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _blas() -> Dict[str, Optional[str]]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        return {"name": None, "version": None}


def environment() -> Dict[str, object]:
    """What a reader needs to compare two runs' numbers."""
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = None
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {
            name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES
        },
    }
