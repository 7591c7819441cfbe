"""The host's pace: how fast it runs pure-Python code at the moment.

The benchmark's host shares its cores with other tenants.  The speed of
one process on it swings by up to 1.8x over spells of seconds to minutes,
while the process keeps its core (its CPU time equals its wall time), so
no clock the process can read tells the slow spells apart from a slower
program.  ``loop`` is a fixed amount of work of the kind the package does
(JSON decoding, ``Fraction`` arithmetic, dict updates) that uses no part
of the package, so no change to the package changes its time.  Timing it
between operations measures the pace the operations ran at, and

    scaled = seconds * REF_S / pace

is what the operation would take at the reference pace.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction

#: seconds one ``loop`` takes on the reference machine (a 2-vCPU Xeon VM)
#: in a quiet spell; it only sets the scale of the reported times
REF_S = 0.0125

_ROWS = json.dumps(
    [[f"T{i}", f"{i % 97}/{i % 13 + 1}", [f"V{j}" for j in range(i % 5)]] for i in range(1500)]
)


def loop() -> Fraction:
    total = Fraction(0)
    seen = {}
    for tid, text, vehicles in json.loads(_ROWS):
        x = Fraction(text)
        total += x
        for vid in vehicles:
            seen[(tid, vid)] = x > total / 3
    return total


def sample() -> float:
    """Seconds one ``loop`` takes now.  The cyclic collector is off while it
    runs, so a collection of the program's garbage is not counted."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
