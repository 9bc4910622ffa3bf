"""Counting formulas, set enumeration, and lemma verification.

The number of T-depth-one unitaries on n qubits factors as g_n times the
Clifford group order, where g_n counts commuting independent sets of
positive Paulis:

    tuples(n, m)  = prod_{k=0}^{m-1} (2^{2n-k} - 2^k)
    sets(n, m)    = tuples(n, m) / m!
    g_n           = sum_{m=1}^{n} sets(n, m)

Enumeration walks label-ascending extensions with precomputed commutation
bitmasks, so the stream both reproduces the formula and feeds the lemma
checks: distinctness of forms, unit rows vs commutant, Pauli-support
growth under diagonal exponentials (read off the X_j columns of the
dense-trace channel of E), spectral T-count, and agreement of the
structured channels with the dense-trace oracle.
"""

from __future__ import annotations

import math
import random
import sys
import time
from functools import lru_cache
from typing import Iterator

from . import gf2
from .pauli import PauliOperator, PauliSet, _swap_halves, commutant

DEFAULT_SEED = 1729


class FeasibilityRefusalError(ValueError):
    pass


def _refuse(n: int, cap: int, what: str) -> None:
    """Refuse a width past a check's cap, naming the check."""
    if n > cap:
        raise FeasibilityRefusalError(f"{what} capped at {cap} qubits, got {n}")


def _check_sampled(n: int, trials: int, what: str) -> None:
    """Refuse a sampled check past _SAMPLED_CAP qubits, or one given no
    trials to draw: it would pass having checked nothing."""
    _refuse(n, _SAMPLED_CAP, what)
    if trials < 1:
        raise ValueError(f"need trials >= 1 for {what}, got {trials}")


def _check_run(n: int, trials: int = 0, seed: int = 0) -> None:
    """Reject a width below 1, a negative trial count or a negative seed
    before any work: random.Random(-5) seeds as Random(5) does."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"need a seed >= 0, got {seed}")


def _check_nm(n: int, m: int) -> None:
    _check_run(n)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")


def check_printable(min_bits: int) -> None:
    """Refuse a number of over min_bits bits before it is built, if CPython
    could not print it: 4 * limit bits are over limit digits (0: none)."""
    limit = sys.get_int_max_str_digits()
    if limit and min_bits >= 4 * limit:
        raise ValueError(f"Exceeds the limit ({limit} digits) for integer "
                         "string conversion")


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


def count_tdepth_one(n: int) -> tuple[int, int]:
    """(g_n, g_n * Clifford order): class count and unitary count."""
    from .clifford import group_order
    g = sum(count_sets(n, m) for m in range(1, n + 1))
    return g, g * group_order(n)


def emit_table(n_max: int) -> str:
    """TSV of per-size counts: Clifford order, per-T-count multipliers of
    the Clifford order, their sum, and the absolute unitary count."""
    from .clifford import group_order
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    header = ["n", "clifford_order"]
    header += [f"tcount_{m}" for m in range(1, n_max + 1)]
    header += ["total_classes", "total_unitaries"]
    lines = ["\t".join(header)]
    for n in range(1, n_max + 1):
        order = group_order(n)
        counts = [count_sets(n, m) for m in range(1, n + 1)]
        g = sum(counts)
        cells = [str(n), str(order), *map(str, counts)]
        cells += ["-"] * (n_max - n)
        cells += [str(g), str(g * order)]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- enumeration

_ENUM_CAP = 4
# the walk's commutation table is 4^n masks of 4^n bits: 32 MiB at n = 7,
# 512 MiB at n = 8
_ENUM_HARD_CAP = 7
_SAMPLED_CAP = 5
_EXHAUSTIVE_CAP = 2
_GROWTH_CAP = 64


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
    if n > _ENUM_CAP and not allow_large:
        # count_tuples' factors are >= 2^(2n-k-1); m! < 2^(m*bit_length(m))
        check_printable(m * (2 * n - 1) - m * (m - 1) // 2
                        - m * m.bit_length())
        raise FeasibilityRefusalError(
            f"enumeration capped at {_ENUM_CAP} qubits "
            f"({count_sets(n, m)} sets at n={n}, m={m}); "
            "pass --allow-large (allow_large=True in Python) to force")
    if n > _ENUM_HARD_CAP:
        raise FeasibilityRefusalError(
            f"enumeration capped at {_ENUM_HARD_CAP} qubits even with "
            f"--allow-large (allow_large=True in Python), got n={n}")
    return _label_walk(n, m)


# ------------------------------------------------------------------ sampling

def random_pauli_set(n: int, m: int, rng) -> PauliSet:
    """Uniform over commuting independent positive m-sets.

    Element k is uniform over (commutant of the prefix) minus its span;
    the choice counts multiply to count_tuples, so tuples are uniform and
    the sorted sets inherit uniformity.
    """
    _check_nm(n, m)
    chosen: list[int] = []
    span = 1
    # the commutant of the prefix, in gf2's echelon form
    basis = [1 << f for f in range(2 * n)]
    for k in range(m):
        while True:
            # one getrandbits(1) per vector, in order, and nothing else
            # drawn: the seeded streams depend on it
            v = 0
            for b in basis:
                if rng.getrandbits(1):
                    v ^= b
            if not (span >> v) & 1:
                break
        chosen.append(v)
        if k < m - 1:
            span = _span_with(span, v)
            gf2.add_constraint(basis, _swap_halves(v, n))
    return PauliSet.from_labels(n, sorted(chosen))


_GATE_POOL = ("H", "S", "X", "Z", "CX", "CZ", "SWAP")


def random_gate_word(n: int, rng, length: int = 24) -> str:
    """A uniformly random word over the gate alphabet (not a uniform
    Clifford, but well scrambled; used where a dense matrix must be
    built from the same description)."""
    tokens = []
    pool = _GATE_POOL[:4] if n < 2 else _GATE_POOL  # no pairs on one qubit
    for _ in range(length):
        name = pool[rng.randrange(len(pool))]
        if name in ("CX", "CZ", "SWAP"):
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            if b >= a:
                b += 1
            tokens.append(f"{name} {a} {b}")
        else:
            tokens.append(f"{name} {rng.randrange(n)}")
    return "; ".join(tokens)


# ------------------------------------------------------------------- reports

class VerificationReport:
    """One check's outcome: its counts, failures, run time, seed and mode.
    Its clock starts when it is made; finish stops it."""

    def __init__(self, check: str, counts: dict | None = None,
                 seed: int | None = None, mode: str | None = None):
        self._start = time.perf_counter()
        self.check = check
        self.counts = {} if counts is None else counts
        self.failures: list[str] = []
        self.elapsed = 0.0
        self.seed = seed
        self.mode = mode

    def finish(self, **counts) -> VerificationReport:
        """Set the counts and the time since the report was made."""
        self.counts = counts
        self.elapsed = time.perf_counter() - self._start
        return self

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "counts": dict(self.counts),
            "failures": list(self.failures),
            "seed": self.seed,
            "mode": self.mode,
            "elapsed_seconds": self.elapsed,
        }

    def summary(self) -> str:
        state = "pass" if self.passed else f"FAIL ({len(self.failures)})"
        counts = ", ".join(f"{k}={v}" for k, v in self.counts.items())
        return f"{self.check}: {state} [{counts}] in {self.elapsed:.2f}s"


def _all_sets(n: int) -> list[PauliSet]:
    out: list[PauliSet] = []
    for m in range(1, n + 1):
        out.extend(enumerate_sets(n, m))
    return out


def verify_distinctness(n: int, mode: str = "exhaustive", trials: int = 1000,
                        seed: int = DEFAULT_SEED) -> VerificationReport:
    """No two distinct sets of exponential factors differ by a Clifford.

    channel(A)^T channel(B) is a signed permutation iff some Cliffords
    reconcile the two forms, so the check never quantifies over the
    Clifford group.  Exhaustive mode also runs every self-pair, which
    must reconcile (by the identity), as a sanity arm on the tester.
    """
    from .channel import exponential_transfer_is_signed_permutation
    _check_run(n, trials, seed)
    report = VerificationReport("distinctness", mode=mode)
    if mode == "exhaustive":
        _refuse(n, _EXHAUSTIVE_CAP, "exhaustive distinctness")
        sets = _all_sets(n)
        for i, a in enumerate(sets):
            if not exponential_transfer_is_signed_permutation(a, a):
                report.failures.append(f"self-pair not reconciled: {a!r}")
            for b in sets[i + 1:]:
                if exponential_transfer_is_signed_permutation(a, b):
                    report.failures.append(
                        f"reconciled distinct pair: {a!r} vs {b!r}")
        k = len(sets)
        return report.finish(forms=k, pairs=k * (k - 1) // 2, self_pairs=k)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    _check_sampled(n, trials, "sampled distinctness")
    rng = random.Random(seed)
    report.seed = seed
    for _ in range(trials):
        a = b = None
        while a == b:  # redraw both until the pair is distinct
            a = random_pauli_set(n, rng.randint(1, n), rng)
            b = random_pauli_set(n, rng.randint(1, n), rng)
        if exponential_transfer_is_signed_permutation(a, b):
            report.failures.append(f"reconciled distinct pair: {a!r} vs {b!r}")
    return report.finish(pairs=trials)


def verify_unit_rows(n: int, trials: int = 100,
                     seed: int = DEFAULT_SEED) -> VerificationReport:
    """Rows of a form's channel holding a +-1 entry = commutant of the set.
    Trial 0 is the empty set, so at least two trials are needed to sample
    one."""
    from .channel import channel_of_canonical
    from .clifford import random_clifford
    _check_run(n, trials, seed)
    _check_sampled(n, trials, "sampled unit-rows")
    if trials == 1:
        raise ValueError("need trials >= 2 for sampled unit-rows: trial 0 "
                         "is the empty set, so one trial samples no set")
    rng = random.Random(seed)
    report = VerificationReport("unit-rows", seed=seed)
    for trial in range(trials):
        m = 0 if trial == 0 else rng.randint(1, n)  # one m=0 edge case
        s = (PauliSet.empty(n) if m == 0
             else random_pauli_set(n, m, rng))
        c = random_clifford(n, rng)
        rep = channel_of_canonical(s, c)
        got = rep.unit_rows()
        want = commutant(s)
        if got != want:
            report.failures.append(
                f"unit rows {got} != commutant {want} for {s!r}")
        elif len(got) != 1 << (2 * n - m):
            report.failures.append(
                f"commutant size {len(got)} != 2^{2 * n - m} for {s!r}")
    return report.finish(trials=trials)


def verify_hamming_weight(n: int) -> VerificationReport:
    """Pauli support of E X_j E' is exactly 2^w.

    E is the product of exp(i*pi*Z^a/8) over an independent family of
    bit-strings and w counts the family members with bit j set.  Runs the
    dense oracle exhaustively over every family: each family builds E
    once and its channel_bruteforce, whose column X_j is the Pauli
    expansion of E X_j E', so the support is that column's entry count.
    """
    from .oracle import (SIZE_CAP, DenseUnitary, channel_bruteforce,
                         dense_of_exponential)
    _check_run(n)
    _refuse(n, SIZE_CAP, "dense Hamming-weight sweep")
    report = VerificationReport("hamming-weight")
    top = 1 << n  # a label below it is Z-type: its x half is zero
    families = [s.labels for s in _all_sets(n) if s.labels[-1] < top]
    for family in families:
        e = DenseUnitary.identity(n)
        for a in family:
            e = e.multiply(dense_of_exponential(n, a))
        cols = channel_bruteforce(e).cols
        for j in range(n):
            bit = 1 << (n - 1 - j)
            # column X_j holds Tr(P E X_j E') / 2^n for every P
            support = len(cols[bit << n])
            w = sum(1 for a in family if a & bit)
            if support != 1 << w:
                report.failures.append(
                    f"support {support} != 2^{w} for family "
                    f"{[bin(a) for a in family]}, qubit {j}")
    return report.finish(families=len(families),
                         instances=len(families) * n)


def verify_spectrum(n: int, mode: str = "exhaustive", trials: int = 500,
                    seed: int = DEFAULT_SEED) -> VerificationReport:
    """infer_t_count reads m back off the channel of every form."""
    from .channel import channel_of_canonical, infer_t_count
    from .clifford import CliffordTableau, random_clifford
    _check_run(n, trials, seed)
    report = VerificationReport("spectrum", mode=mode)
    if mode == "exhaustive":
        _refuse(n, _EXHAUSTIVE_CAP, "exhaustive spectrum")
        ident = CliffordTableau.identity(n)
        forms = [(s, ident) for s in _all_sets(n)]
    elif mode == "sampled":
        _check_sampled(n, trials, "sampled spectrum")
        rng = random.Random(seed)
        report.seed = seed
        forms = [(random_pauli_set(n, rng.randint(1, n), rng),
                  random_clifford(n, rng))
                 for _ in range(trials)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for s, c in forms:
        got = infer_t_count(channel_of_canonical(s, c))
        if got != len(s):
            report.failures.append(
                f"t-count {got} != {len(s)} for {s!r}")
    return report.finish(forms=len(forms))


def _generator_words(n: int) -> list[str]:
    words = []
    for q in range(n):
        words += [f"H {q}", f"S {q}", f"X {q}", f"Z {q}"]
    for a in range(n):
        for b in range(n):
            if a != b:
                words.append(f"CX {a} {b}")
    for a in range(n):
        for b in range(a + 1, n):
            words += [f"CZ {a} {b}", f"SWAP {a} {b}"]
    return words


def verify_oracle(n: int, trials: int = 100,
                  seed: int = DEFAULT_SEED) -> VerificationReport:
    """Structured channels match dense-trace channels exactly.

    Covers every gate generator, every single-Pauli exponential, and
    random forms whose Clifford part is built twice from one gate word:
    as the compose of the tableaux of the word's two halves, and as one
    dense matrix of the whole word.  Each generator's dense channel must
    also be a signed permutation, as the channel of a Clifford is.
    """
    from .channel import (channel_of_canonical, channel_of_clifford,
                          channel_of_exponential)
    from .clifford import from_gate_word
    from .oracle import (SIZE_CAP, channel_bruteforce, dense_of_exponential,
                         dense_of_gate_word)
    _check_run(n, trials, seed)
    _refuse(n, SIZE_CAP, "oracle agreement")
    rng = random.Random(seed)
    report = VerificationReport("oracle", seed=seed)
    words = _generator_words(n)
    for word in words:
        structured = channel_of_clifford(from_gate_word(word, n))
        brute = channel_bruteforce(dense_of_gate_word(word, n))
        if structured != brute:
            report.failures.append(f"gate {word!r} channel mismatch")
        if not brute.is_signed_permutation():
            report.failures.append(
                f"gate {word!r} channel is not a signed permutation")
    for label in range(1, 1 << (2 * n)):
        structured = channel_of_exponential(n, label)
        brute = channel_bruteforce(dense_of_exponential(n, label))
        if structured != brute:
            p = PauliOperator.from_label(n, label)
            report.failures.append(f"exponential {p!r} channel mismatch")
    for _ in range(trials):
        m = rng.randint(1, n)
        s = random_pauli_set(n, m, rng)
        word = random_gate_word(n, rng)
        tokens = word.split(";")
        half = len(tokens) // 2
        tableau = from_gate_word(";".join(tokens[:half]), n).compose(
            from_gate_word(";".join(tokens[half:]), n))
        structured = channel_of_canonical(s, tableau)
        dense = dense_of_gate_word(word, n)
        for label in reversed(s.labels):
            dense = dense_of_exponential(n, label).multiply(dense)
        brute = channel_bruteforce(dense)
        if structured != brute:
            report.failures.append(
                f"form ({s!r}, word {word!r}) channel mismatch")
    return report.finish(generators=len(words) + (1 << (2 * n)) - 1,
                         forms=trials)


def growth_check(n_max: int = 16) -> VerificationReport:
    """g_n >= 2^(n^2) for n up to n_max, by big-integer comparison."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    _refuse(n_max, _GROWTH_CAP, "growth check")
    report = VerificationReport("growth")
    for n in range(1, n_max + 1):
        g, _ = count_tdepth_one(n)
        if g < 1 << (n * n):
            report.failures.append(f"g_{n} = {g} < 2^{n * n}")
    return report.finish(max_qubits=n_max)
