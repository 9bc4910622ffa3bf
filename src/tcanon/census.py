"""Counting formulas and the enumeration of commuting independent sets.

The number of T-depth-one unitaries on n qubits factors as g_n times the
Clifford group order, where g_n counts commuting independent sets of
positive Paulis:

    tuples(n, m)  = prod_{k=0}^{m-1} (2^{2n-k} - 2^k)
    sets(n, m)    = tuples(n, m) / m!
    g_n           = sum_{m=1}^{n} sets(n, m)

Enumeration walks label-ascending extensions with precomputed commutation
bitmasks, so the stream reproduces the formula; the lemma checks in
tcanon.verify read it too.  This module serves verify's public names
(census.verify_oracle and the like), read from verify on first use, so
a command that only counts or enumerates never compiles the checks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

from .pauli import PauliSet, _swap_halves


class FeasibilityRefusalError(ValueError):
    pass


def _check_nm(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")


def count_tuples(n: int, m: int) -> int:
    """Ordered m-tuples of commuting independent positive Paulis."""
    _check_nm(n, m)
    return math.prod((1 << (2 * n - k)) - (1 << k) for k in range(m))


def count_sets(n: int, m: int) -> int:
    """Unordered sets; the tuple count is always divisible by m!."""
    tuples = count_tuples(n, m)
    fact = math.factorial(m)
    assert tuples % fact == 0
    return tuples // fact


def count_row(n: int, m: int | None = None) -> dict:
    """The paper's count at width n, each value computed once: with m,
    its sets, tuples (the sets times m!, so count_tuples runs once) and
    unitaries; without, the sets per T-count, g_n and g_n times the
    Clifford order."""
    from .clifford import group_order
    if m is not None:
        sets = count_sets(n, m)
        order = group_order(n)
        return {"n": n, "m": m, "tuples": sets * math.factorial(m),
                "sets": sets, "clifford_order": order,
                "unitaries": sets * order}
    order = group_order(n)
    per_m = {str(k): count_sets(n, k) for k in range(1, n + 1)}
    g = sum(per_m.values())
    return {"n": n, "clifford_order": order, "sets_per_tcount": per_m,
            "total_classes": g, "total_unitaries": g * order}


def count_tdepth_one(n: int) -> tuple[int, int]:
    """(g_n, g_n * Clifford order): class count and unitary count."""
    row = count_row(n)
    return row["total_classes"], row["total_unitaries"]


def emit_table(n_max: int) -> str:
    """TSV of count_row per size: Clifford order, per-T-count multipliers
    of the Clifford order, their sum, and the absolute unitary count."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    header = ["n", "clifford_order"]
    header += [f"tcount_{m}" for m in range(1, n_max + 1)]
    header += ["total_classes", "total_unitaries"]
    lines = ["\t".join(header)]
    for n in range(1, n_max + 1):
        row = count_row(n)
        cells = [n, row["clifford_order"], *row["sets_per_tcount"].values(),
                 *["-"] * (n_max - n), row["total_classes"],
                 row["total_unitaries"]]
        lines.append("\t".join(map(str, cells)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- enumeration

_ENUM_CAP = 4
# the walk's commutation table is 4^n masks of 4^n bits: 32 MiB at n = 7,
# 512 MiB at n = 8
_ENUM_HARD_CAP = 7


@lru_cache(maxsize=None)
def _commute_masks(n: int) -> tuple:
    """mask[a] has bit b set iff unsigned labels a, b commute.

    The symplectic form is linear in a, so the labels that anticommute
    with a are the XOR of those that anticommute with a's unit labels:
    anti[a] = anti[a ^ low] ^ anti[low] for the lowest set bit low of a.
    """
    dim = 1 << (2 * n)
    anti = [0] * dim
    for i in range(2 * n):
        dual = _swap_halves(1 << i, n)  # a unit label's dual is one bit
        anti[1 << i] = sum(1 << b for b in range(dim) if b & dual)
    for a in range(1, dim):
        low = a & -a
        if a != low:
            anti[a] = anti[a ^ low] ^ anti[low]
    full = (1 << dim) - 1
    return tuple(full ^ m for m in anti)


def _span_with(span: int, v: int) -> int:
    """Span bitmask over labels, closed under XOR with v as well."""
    out = span
    s = span
    while s:
        low = s & -s
        s ^= low
        out |= 1 << ((low.bit_length() - 1) ^ v)
    return out


def _label_walk(n: int, m: int) -> Iterator[PauliSet]:
    """A PauliSet for every strictly ascending, pairwise commuting,
    independent label m-tuple.  The recursion stops at (prefix, leaves),
    leaves holding bit b iff (*prefix, b) is such a tuple, and a flat loop
    expands the leaves.

    Independence is tracked as a span bitmask over labels (the subgroup
    generated so far), so candidate filtering is pure bit arithmetic.
    """
    dim = 1 << (2 * n)
    full = (1 << dim) - 1
    cmask = _commute_masks(n)

    def extend(chosen: tuple, allowed: int, span: int) -> Iterator[tuple]:
        want = m - len(chosen)
        if want == 1:
            yield chosen, allowed
            return
        a = allowed
        while a:
            low = a & -a
            a ^= low
            b = low.bit_length() - 1
            new_span = _span_with(span, b)
            # labels above b only, so each tuple comes once, ascending
            child = allowed & cmask[b] & ~new_span & (full ^ (2 * low - 1))
            # a quick capacity cut: not enough labels left to finish
            if child.bit_count() >= want - 1:
                yield from extend((*chosen, b), child, new_span)

    from_labels = PauliSet.from_labels
    for prefix, leaves in extend((), full & ~1, 1):  # skip the identity
        while leaves:
            low = leaves & -leaves
            leaves ^= low
            yield from_labels(n, prefix + (low.bit_length() - 1,))


def enumerate_sets(n: int, m: int,
                   allow_large: bool = False) -> Iterator[PauliSet]:
    """Every commuting independent positive m-set once, in lexicographic
    label order, count_sets(n, m) in all; checked before it streams.
    allow_large lifts the cap of _ENUM_CAP qubits up to _ENUM_HARD_CAP."""
    _check_nm(n, m)
    # the hard cap first, so the count the soft cap prints is small
    if n > _ENUM_HARD_CAP:
        raise FeasibilityRefusalError(
            f"enumeration capped at {_ENUM_HARD_CAP} qubits, with or without "
            f"--allow-large (allow_large=True in Python), got n={n}")
    if n > _ENUM_CAP and not allow_large:
        raise FeasibilityRefusalError(
            f"enumeration capped at {_ENUM_CAP} qubits "
            f"({count_sets(n, m)} sets at n={n}, m={m}); "
            "pass --allow-large (allow_large=True in Python) to force")
    return _label_walk(n, m)


def _all_sets(n: int) -> list[PauliSet]:
    out: list[PauliSet] = []
    for m in range(1, n + 1):
        out.extend(enumerate_sets(n, m))
    return out


# verify's public names, which census serves too, importing verify on use
_VERIFY_NAMES = ("VerificationReport", "growth_check", "random_gate_word",
                 "random_pauli_set", "verify_distinctness",
                 "verify_hamming_weight", "verify_oracle", "verify_spectrum",
                 "verify_unit_rows")


def __getattr__(name: str):
    if name not in _VERIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    return getattr(verify, name)
