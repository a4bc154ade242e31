"""Fixed speed-calibration kernel (imports nothing from ``repro``).

The box this benchmark runs on drifts: an identical pure-Python loop was
measured to vary by ±30 % over minutes. The kernel below does a fixed,
seeded amount of the three kinds of work the warehouse spends its time
in — hash-container graph walks, regex scans over short strings, and
small-tuple allocation — so its wall time tracks how fast *this* box is
running Python *right now*. The estimator runs it around every round and
scales the round's timings by ``CALIB_REF_MS / measured``.

Nothing here may change once numbers are recorded against it: a faster
kernel would silently inflate every normalised metric.
"""

from __future__ import annotations

import gc
import random
import re
import subprocess
import sys
import time
from typing import Dict, List, Tuple

_NODES = 30000
_FANOUT = 3
_NAMES = 15000
_TUPLES = 90000


def _build() -> Tuple[Dict[int, List[int]], List[str], "re.Pattern"]:
    rng = random.Random(20120401)
    graph = {
        node: [rng.randrange(_NODES) for _ in range(_FANOUT)]
        for node in range(_NODES)
    }
    stems = ("customer", "account", "settle", "trade", "party", "ledger")
    names = [
        f"{rng.choice(stems)}_{rng.choice(stems)}_{rng.randrange(10_000)}"
        for _ in range(_NAMES)
    ]
    return graph, names, re.compile("settle.*_[0-9]*7$", re.IGNORECASE)


_GRAPH, _NAMES_LIST, _PATTERN = _build()


def kernel() -> int:
    """One fixed unit of work; the return value is a checksum."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbour in _GRAPH[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    nxt.append(neighbour)
        frontier = nxt
    matched = 0
    search = _PATTERN.search
    for name in _NAMES_LIST:
        if search(name):
            matched += 1
    rows = [(i, i ^ 21, i & 7) for i in range(_TUPLES)]
    return len(seen) + matched + len(rows)


def measure_ms() -> float:
    """Wall time of one kernel run in ms. The cyclic collector is paused:
    how long a collection takes depends on the caller's heap, and the
    kernel must read the box, not the heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if was_enabled:
            gc.enable()


class Lanes:
    """The kernel on ``n`` cores at once: this process plus ``n - 1``
    helper processes running it in step.

    A workload that keeps two worker processes busy slows down when a
    neighbour takes *one* of the box's two cores; a single-threaded
    kernel just moves to the free core and notices nothing. Workloads
    are therefore calibrated with as many lanes as they keep busy. The
    helpers idle (blocked on a pipe) while rounds are measured.
    """

    def __init__(self, n: int):
        self._helpers = [
            subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(n - 1)
        ]

    def measure_ms(self) -> float:
        """Mean kernel time over the lanes, all started together."""
        for helper in self._helpers:
            helper.stdin.write("go\n")
            helper.stdin.flush()
        readings = [measure_ms()]
        readings += [float(helper.stdout.readline()) for helper in self._helpers]
        return sum(readings) / len(readings)

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            helper.wait(timeout=30)
        self._helpers = []


if __name__ == "__main__":
    # helper lane: one kernel run per line on stdin, until it closes
    for _ in sys.stdin:
        print(measure_ms(), flush=True)
