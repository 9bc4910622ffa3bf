"""The lemma checks, each a function returning a VerificationReport.

They run on census's counts and label walk: distinctness of forms, unit
rows vs commutant, Pauli-support growth under diagonal exponentials (read
off the X_j columns of the dense-trace channel of E), spectral T-count,
agreement of the structured channels with the dense-trace oracle, and the
2^(n^2) lower bound on g_n.  Each refuses a run it cannot do through
one helper, before any work, and this module holds the width caps.  The
samplers draw the sets and gate words they check from a seeded
random.Random.  census serves this module's public names too, so
`census.verify_oracle` is `verify.verify_oracle`.
"""

from __future__ import annotations

import random
import time

from . import gf2
from .census import (FeasibilityRefusalError, _all_sets, _check_nm,
                     _span_with, count_tdepth_one)
from .pauli import PauliOperator, PauliSet, _swap_halves, commutant

# the seed of a sampled check run without one
DEFAULT_SEED = 1729

# a mode's widest run: a sampled check draws its forms, an exhaustive one
# pairs every form with every other
_MODE_CAPS = {"sampled": 5, "exhaustive": 2}
_GROWTH_CAP = 64


def _admit(what: str, n: int, cap: int | None = None, trials: int = 0,
           seed: int = 0, mode: str | None = None, arg: str = "n") -> None:
    """Refuse a check's run before any work, in this order: a width below
    1, a negative trial count or seed (random.Random(-5) seeds as
    Random(5) does), an unknown mode, a width past the cap, and a sampled
    run given no trials: it would pass having checked nothing.  A mode
    sets the cap and heads the name, as in "sampled spectrum"."""
    if n < 1:
        raise ValueError(f"need {arg} >= 1, got {n}")
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"need a seed >= 0, got {seed}")
    if mode is not None:
        if mode not in _MODE_CAPS:
            raise ValueError(f"unknown mode {mode!r}")
        cap, what = _MODE_CAPS[mode], f"{mode} {what}"
    if n > cap:
        raise FeasibilityRefusalError(f"{what} capped at {cap} qubits, got {n}")
    if mode == "sampled" and trials < 1:
        raise ValueError(f"need trials >= 1 for {what}, got {trials}")


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


def random_gate_word(n: int, rng, length: int = 24) -> str:
    """A uniformly random word over GATE_ARITY's gates of arity <= n, in
    the order seeded words depend on: not a uniform Clifford, but well
    scrambled, for where a dense matrix is built from the same text."""
    from .clifford import GATE_ARITY
    tokens = []
    pool = [g for g, arity in GATE_ARITY.items() if arity <= n]
    for _ in range(length):
        name = pool[rng.randrange(len(pool))]
        if GATE_ARITY[name] == 2:
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


def verify_distinctness(n: int, mode: str = "exhaustive", trials: int = 1000,
                        seed: int = DEFAULT_SEED) -> VerificationReport:
    """No two distinct sets of exponential factors differ by a Clifford.

    channel(A)^T channel(B) is a signed permutation iff some Cliffords
    reconcile the two forms, so the check never quantifies over the
    Clifford group.  Exhaustive mode also runs every self-pair, which
    must reconcile (by the identity), as a sanity arm on the tester.
    """
    from .channel import exponential_transfer_is_signed_permutation
    _admit("distinctness", n, trials=trials, seed=seed, mode=mode)
    report = VerificationReport("distinctness", mode=mode)
    if mode == "exhaustive":
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
    _admit("unit-rows", n, trials=trials, seed=seed, mode="sampled")
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
    _admit("dense Hamming-weight sweep", n, SIZE_CAP)
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
    _admit("spectrum", n, trials=trials, seed=seed, mode=mode)
    report = VerificationReport("spectrum", mode=mode)
    if mode == "exhaustive":
        ident = CliffordTableau.identity(n)
        forms = [(s, ident) for s in _all_sets(n)]
    else:
        rng = random.Random(seed)
        report.seed = seed
        forms = [(random_pauli_set(n, rng.randint(1, n), rng),
                  random_clifford(n, rng))
                 for _ in range(trials)]
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
    _admit("oracle agreement", n, SIZE_CAP, trials, seed)
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
    _admit("growth check", n_max, _GROWTH_CAP, arg="n_max")
    report = VerificationReport("growth")
    for n in range(1, n_max + 1):
        g, _ = count_tdepth_one(n)
        if g < 1 << (n * n):
            report.failures.append(f"g_{n} = {g} < 2^{n * n}")
    return report.finish(max_qubits=n_max)
