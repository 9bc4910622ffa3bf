"""A fixed pure-Python reference loop: the yardstick of the gated op time.

The host this benchmark runs on changes speed by up to 1.7x, in spells
from under a second to minutes, as its other tenants come and go.  A
run's op times follow those spells, so the same code reads up to 35%
slower in one run than in the next.  The timed pass therefore also times
`reference_work` between every two ops.  Its code never changes and
imports nothing of tcanon, so its time measures only how fast the host
runs Python at that moment; an op's mean time divided by the mean time
of the reference loops around it cancels the host's speed and keeps the
program's.  Set-up time is scaled the same way, to the time it would
take on a host where one reference loop takes NOMINAL_S.

The loop does what tcanon does most: small slotted objects with bit-mask
fields, popcount parity, dict inserts keyed by tuples, list building,
and reads from a table of a few hundred KiB.
"""

from __future__ import annotations

import time


class _Pair:
    __slots__ = ("x", "z")

    def __init__(self, x: int, z: int):
        self.x = x
        self.z = z

    def commutes(self, other: "_Pair") -> bool:
        return (bin(self.x & other.z).count("1")
                + bin(self.z & other.x).count("1")) % 2 == 0

    def times(self, other: "_Pair") -> "_Pair":
        return _Pair(self.x ^ other.x, self.z ^ other.z)


# the loop's time in the fast spells of a 2-vCPU Xeon VM
NOMINAL_S = 0.0025

_TABLE = [(k * 2654435761) & 0xFFFF for k in range(1 << 15)]
ROUNDS = 4
# what reference_work returns; a different value means the loop changed
CHECKSUM = 356


def reference_work() -> int:
    """ROUNDS rounds of 48 pseudo-random pairs and their commutation
    rows; a few milliseconds of work, the same on every call."""
    state = 12345
    total = 0
    for _ in range(ROUNDS):
        ops = []
        for _ in range(48):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            v = _TABLE[state & 0x7FFF]
            ops.append(_Pair(v & 0xFF, v >> 8))
        seen = {}
        for i, a in enumerate(ops):
            row = 0
            for j in range(i):
                if a.commutes(ops[j]):
                    row |= 1 << j
            p = a.times(ops[i - 1])
            seen[(p.x, p.z)] = row
        total += len(seen) + sum(seen.values()) % 97
    return total


def timed_reference() -> float:
    """Seconds one reference_work call takes now."""
    start = time.perf_counter()
    out = reference_work()
    elapsed = time.perf_counter() - start
    if out != CHECKSUM:
        raise RuntimeError(f"reference loop returned {out}, not {CHECKSUM}")
    return elapsed
