"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by tens of percent from
minute to minute (noisy neighbours on caches and memory bandwidth, not
preemption: CPU time tracks wall time).  A fixed calibration kernel,
timed between the short segments a rep is measured in, tracks that
drift; the benchmark scales each segment's host time by
``REFERENCE_SECONDS / calibration`` (see ``workloads.SegmentTimer``) so
that two runs minutes apart compare the simulator, not the host.

The kernel is owned by the benchmark, never by the program, so a
change to the program cannot move it.  It mixes the three kinds of
work the simulator's hot path does: interpreted Python (dict and
attribute traffic), small numpy array operations, and hashing of
64-byte lines.

Set-up time is mostly importing modules in a fresh interpreter, which
that kernel does not track: scaled by it, single set-up probes spread
more, not less.  Set-up probes are scaled instead by the time a fresh
interpreter takes to import a fixed set of modules (:func:`import_slowdown`),
which halved the spread of single probes (an interquartile range of 10%
of the median against 18% unscaled, over 53 probes).
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time

import numpy as np

#: Calibration seconds that define the reference host: about the
#: kernel's median on the 2-core 2.1 GHz x86-64 container the benchmark
#: was tuned on.  Scaled timings read as host seconds on that host.
REFERENCE_SECONDS = 0.0065

_ROUNDS = 1500

#: A fresh interpreter's import of a fixed set of modules, printing how
#: long the imports took.
_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import numpy, json, decimal, hashlib, multiprocessing, dataclasses, "
    "argparse, email.message, xml.dom.minidom; "
    "print(time.perf_counter() - start)"
)

#: The import probe's median seconds on the reference host.
REFERENCE_IMPORT_SECONDS = 0.115


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def calibrate() -> float:
    """Seconds one run of the fixed calibration kernel takes now."""
    cells = [_Cell() for _ in range(64)]
    table: dict[int, int] = {}
    row = np.arange(512, dtype=np.int64) & 1
    line = bytes(range(64))
    start = time.perf_counter()
    total = 0
    for i in range(_ROUNDS):
        cell = cells[i & 63]
        cell.value += i
        table[i & 255] = table.get(i & 255, 0) + cell.value
        flipped = row ^ (i & 1)
        total += int(np.count_nonzero(flipped)) + int(flipped[i & 511])
        total += hashlib.sha256(line).digest()[i & 31]
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's results live
        raise AssertionError("unreachable")
    return elapsed


def slowdown() -> float:
    """Host slowdown against the reference host (> 1 means slower)."""
    return calibrate() / REFERENCE_SECONDS


def import_slowdown() -> float:
    """Host slowdown at importing modules in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(completed.stdout) / REFERENCE_IMPORT_SECONDS
