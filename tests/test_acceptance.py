"""The ten go/no-go checks.

Each test registers a PASS or FAIL line that conftest prints after the
run, numbered c01 to c10.  Everything asserted here is exact; the only
tolerances are the stated wall-clock budgets.
"""

import functools
import io
import random
import time
from contextlib import redirect_stdout

from conftest import record_criterion
from dense_reference import is_orthogonal

from tcanon.canonical import (
    TLayer,
    TLayerCircuit,
    canonicalize_depth_d,
    channel_of_circuit,
    channel_of_decomposition,
)
from tcanon.channel import channel_of_canonical, channel_of_clifford
from tcanon.census import count_sets, enumerate_sets
from tcanon.cli import main
from tcanon.clifford import CliffordTableau, from_gate_word, random_clifford
from tcanon.pauli import parse_pauli, validate_set
from tcanon.verify import (
    DEFAULT_SEED,
    growth_check,
    random_gate_word,
    random_pauli_set,
    verify_distinctness,
    verify_hamming_weight,
    verify_oracle,
    verify_spectrum,
    verify_unit_rows,
)

TABLE_EXPECTED = {
    # n: (clifford_order, per-tcount class counts, total classes, total unitaries)
    1: (24, [3], 3, 72),
    2: (11520, [15, 45], 60, 691200),
    3: (92897280, [63, 945, 3780], 4788, 444792176640),
    4: (12128668876800, [255, 16065, 321300, 1927800], 2265420,
        27476529046880256000),
}


def criterion(cid, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                record_criterion(cid, description, ok)
        return wrapper
    return deco


@criterion("c01", "census table fixture, formula path, under 1 s")
def test_c01_table_command_emits_the_known_numbers():
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = main(["table", "--max-qubits", "4"])
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split("\t")
    assert header == ["n", "clifford_order", "tcount_1", "tcount_2",
                      "tcount_3", "tcount_4", "total_classes",
                      "total_unitaries"]
    assert len(lines) == 5
    for row_text in lines[1:]:
        cells = row_text.split("\t")
        n = int(cells[0])
        order, per_m, classes, unitaries = TABLE_EXPECTED[n]
        assert int(cells[1]) == order
        for m in range(1, 5):
            cell = cells[1 + m]
            if m <= n:
                assert int(cell) == per_m[m - 1]
            else:
                assert cell == "-"
        assert int(cells[6]) == classes
        assert int(cells[7]) == unitaries
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"


@criterion("c02", "enumeration lengths match the formula for all n <= 4")
def test_c02_enumeration_agrees_with_the_formula():
    start = time.perf_counter()
    for n in (1, 2, 3):
        for m in range(1, n + 1):
            got = sum(1 for _ in enumerate_sets(n, m))
            assert got == count_sets(n, m), (n, m, got)
    small_elapsed = time.perf_counter() - start
    assert small_elapsed < 10.0, f"n <= 3 took {small_elapsed:.1f}s"

    start = time.perf_counter()
    for m in range(1, 5):
        got = sum(1 for _ in enumerate_sets(4, m))
        assert got == count_sets(4, m), (4, m, got)
    large_elapsed = time.perf_counter() - start
    assert large_elapsed < 300.0, f"n = 4 took {large_elapsed:.1f}s"


@criterion("c03", "pairwise channel distinctness, exhaustive n <= 2 and sampled n = 3, 4, 5")
def test_c03_distinct_sets_give_distinct_channels():
    start = time.perf_counter()
    r1 = verify_distinctness(1, mode="exhaustive")
    r2 = verify_distinctness(2, mode="exhaustive")
    exhaustive_elapsed = time.perf_counter() - start
    assert r1.passed and r1.counts == {"forms": 3, "pairs": 3, "self_pairs": 3}
    assert r2.passed and r2.counts == {"forms": 60, "pairs": 1770,
                                       "self_pairs": 60}
    assert exhaustive_elapsed < 30.0, f"exhaustive took {exhaustive_elapsed:.1f}s"

    r3 = verify_distinctness(3, mode="sampled", trials=10_000,
                             seed=DEFAULT_SEED)
    assert r3.passed and r3.counts == {"pairs": 10_000}, r3.failures
    r4 = verify_distinctness(4, mode="sampled", trials=1_000,
                             seed=DEFAULT_SEED)
    assert r4.passed and r4.counts == {"pairs": 1_000}, r4.failures
    r5 = verify_distinctness(5, mode="sampled", trials=500,
                             seed=DEFAULT_SEED)
    assert r5.passed and r5.counts == {"pairs": 500}, r5.failures


@criterion("c04", "unit channel rows equal the set commutant, 100 pairs per n in 1..3, 20 at n = 5")
def test_c04_unit_rows_are_the_commutant():
    for n, trials in ((1, 100), (2, 100), (3, 100), (5, 20)):
        report = verify_unit_rows(n, trials=trials, seed=DEFAULT_SEED + n)
        assert report.passed, report.failures
        assert report.counts == {"trials": trials}


@criterion("c05", "conjugated X support is 2^w for every independent family, n <= 3")
def test_c05_hamming_weight_support():
    expected_counts = {1: {"families": 1, "instances": 1},
                       2: {"families": 6, "instances": 12},
                       3: {"families": 56, "instances": 168}}
    for n in (1, 2, 3):
        report = verify_hamming_weight(n)
        assert report.passed, report.failures
        assert report.counts == expected_counts[n]


@criterion("c06", "spectrum T-count reader recovers m, every form at n <= 2, sampled n = 3, 5")
def test_c06_t_count_inference():
    r1 = verify_spectrum(1, mode="exhaustive")
    assert r1.passed and r1.counts == {"forms": 3}, r1.failures
    r2 = verify_spectrum(2, mode="exhaustive")
    assert r2.passed and r2.counts == {"forms": 60}, r2.failures
    r3 = verify_spectrum(3, mode="sampled", trials=500, seed=DEFAULT_SEED)
    assert r3.passed and r3.counts == {"forms": 500}, r3.failures
    r5 = verify_spectrum(5, mode="sampled", trials=20, seed=DEFAULT_SEED)
    assert r5.passed and r5.counts == {"forms": 20}, r5.failures


@criterion("c07", "structured channels equal the dense-matrix oracle")
def test_c07_oracle_agreement():
    r1 = verify_oracle(1, trials=50, seed=DEFAULT_SEED)
    assert r1.passed, r1.failures
    assert r1.counts == {"generators": 7, "forms": 50}
    r2 = verify_oracle(2, trials=50, seed=DEFAULT_SEED)
    assert r2.passed, r2.failures
    assert r2.counts == {"generators": 27, "forms": 50}
    r3 = verify_oracle(3, trials=100, seed=DEFAULT_SEED)
    assert r3.passed, r3.failures
    assert r3.counts == {"generators": 87, "forms": 100}


def _random_layer(n, rng):
    qubits = [q for q in range(n) if rng.random() < 0.7] or [rng.randrange(n)]
    tdg = [q for q in qubits if rng.random() < 0.5]
    t = [q for q in qubits if q not in tdg]
    return TLayer(n, t=t, tdg=tdg)


@criterion("c08", "canonicalized circuits keep their exact channel")
def test_c08_canonicalizer_soundness():
    # the single-T sandwich becomes ({Z}, S)
    one = CliffordTableau.identity(1)
    (paulis,), tail = canonicalize_depth_d(
        TLayerCircuit([one, one], [TLayer(1, t=[0])]))
    assert (paulis, tail) == (validate_set([parse_pauli("Z")]),
                              from_gate_word("S 0", 1))

    rng = random.Random(DEFAULT_SEED)
    n = 2
    for _ in range(100):
        c1 = from_gate_word(random_gate_word(n, rng), n)
        c2 = from_gate_word(random_gate_word(n, rng), n)
        layer = _random_layer(n, rng)
        circ = TLayerCircuit([c1, c2], [layer])
        (paulis,), tail = canonicalize_depth_d(circ)
        assert (channel_of_canonical(paulis, tail)
                == channel_of_circuit(circ))

    for _ in range(50):
        cliffords = [from_gate_word(random_gate_word(n, rng), n)
                     for _ in range(4)]
        layers = [_random_layer(n, rng) for _ in range(3)]
        circ = TLayerCircuit(cliffords, layers)
        sets, tail = canonicalize_depth_d(circ)
        assert channel_of_decomposition(sets, tail) == channel_of_circuit(circ)


@criterion("c09", "channels orthogonal; Clifford iff signed permutation")
def test_c09_orthogonality_and_signed_permutations():
    rng = random.Random(DEFAULT_SEED)
    for n, samples in ((1, 400), (2, 350), (3, 250)):
        for _ in range(samples):
            c = random_clifford(n, random.Random(rng.randrange(1 << 48)))
            rep_c = channel_of_clifford(c)
            assert is_orthogonal(rep_c)
            assert rep_c.is_signed_permutation()

            m = rng.randint(1, n)
            s = random_pauli_set(n, m, rng)
            tail = random_clifford(n, random.Random(rng.randrange(1 << 48)))
            rep_f = channel_of_canonical(s, tail)
            assert is_orthogonal(rep_f)
            assert not rep_f.is_signed_permutation()


@criterion("c10", "class count clears 2^(n^2) for n <= 16, under 1 s")
def test_c10_growth_witness():
    start = time.perf_counter()
    report = growth_check(16)
    elapsed = time.perf_counter() - start
    assert report.passed, report.failures
    assert report.counts == {"max_qubits": 16}
    assert elapsed < 1.0, f"growth check took {elapsed:.3f}s"
