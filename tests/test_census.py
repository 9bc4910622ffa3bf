"""Counting formulas, the backtracking enumerator, and the verifier battery."""

import json
import math
import random

import pytest
from dense_reference import pauli_product

from tcanon import census, channel, gf2, oracle, verify
from tcanon.census import (
    FeasibilityRefusalError,
    _span_with,
    count_sets,
    count_tdepth_one,
    count_tuples,
    emit_table,
    enumerate_sets,
)
from tcanon.clifford import CliffordTableau, group_order, parse_gate_word
from tcanon.pauli import (PauliOperator, PauliSet, _swap_halves, parse_pauli,
                          validate_set)
from tcanon.verify import (
    DEFAULT_SEED,
    VerificationReport,
    growth_check,
    random_gate_word,
    random_pauli_set,
    verify_distinctness,
    verify_hamming_weight,
    verify_oracle,
    verify_spectrum,
    verify_unit_rows,
)


def _reference_pauli_set(n, m, rng):
    """random_pauli_set's earlier loop: each attempt's bits gathered, then
    combined, and the span and commutant cut after every element."""
    chosen = []
    span = 1
    basis = [1 << f for f in range(2 * n)]
    while len(chosen) < m:
        while True:
            bits = 0
            for i in range(len(basis)):
                bits |= rng.getrandbits(1) << i
            v = gf2.combine(basis, bits)
            if not (span >> v) & 1:
                break
        span = _span_with(span, v)
        chosen.append(v)
        gf2.add_constraint(basis, _swap_halves(v, n))
    return PauliSet.from_labels(n, sorted(chosen))


class TestCounting:
    def test_tuple_counts(self):
        assert count_tuples(1, 1) == 3
        assert count_tuples(2, 1) == 15
        assert count_tuples(2, 2) == 90
        assert count_tuples(3, 3) == 22680

    def test_set_counts(self):
        assert count_sets(1, 1) == 3
        assert count_sets(2, 2) == 45
        assert count_sets(3, 2) == 945
        assert count_sets(3, 3) == 3780
        assert count_sets(4, 4) == 1927800

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 2), (5, 3), (6, 5),
                                      (64, 64), (70, 37)])
    def test_tuple_counts_match_one_factor_at_a_time(self, n, m):
        want = 1
        for k in range(m):
            want *= (1 << (2 * n - k)) - (1 << k)
        assert count_tuples(n, m) == want

    def test_tuple_counts_are_always_divisible_by_m_factorial(self):
        for n in range(1, 9):
            for m in range(1, n + 1):
                assert count_tuples(n, m) % math.factorial(m) == 0
                assert count_sets(n, m) * math.factorial(m) == count_tuples(n, m)

    def test_class_and_unitary_totals(self):
        assert count_tdepth_one(1) == (3, 72)
        assert count_tdepth_one(2) == (60, 691200)
        assert count_tdepth_one(3) == (4788, 444792176640)
        assert count_tdepth_one(4) == (2265420, 27476529046880256000)

    def test_totals_factor_through_the_clifford_order(self):
        for n in range(1, 5):
            classes, unitaries = count_tdepth_one(n)
            assert unitaries == classes * group_order(n)
            assert classes == sum(count_sets(n, m) for m in range(1, n + 1))


def test_emit_table_single_row():
    assert emit_table(1) == (
        "n\tclifford_order\ttcount_1\ttotal_classes\ttotal_unitaries\n"
        "1\t24\t3\t3\t72\n"
    )


def test_emit_table_pads_missing_counts_with_dashes():
    text = emit_table(4)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == [
        "n", "clifford_order", "tcount_1", "tcount_2", "tcount_3", "tcount_4",
        "total_classes", "total_unitaries"]
    assert lines[1].split("\t") == ["1", "24", "3", "-", "-", "-", "3", "72"]
    assert lines[4].split("\t") == [
        "4", "12128668876800", "255", "16065", "321300", "1927800",
        "2265420", "27476529046880256000"]


def test_emit_table_computes_each_count_once(monkeypatch):
    # one count_sets call per (n, m) cell, none again for the totals
    calls = []
    count_sets = census.count_sets

    def counted(n, m):
        calls.append((n, m))
        return count_sets(n, m)

    monkeypatch.setattr(census, "count_sets", counted)
    emit_table(10)
    assert sorted(calls) == [(n, m) for n in range(1, 11)
                             for m in range(1, n + 1)]


class TestEnumeration:
    def test_one_qubit_singletons(self):
        got = sorted(s.labels for s in enumerate_sets(1, 1))
        assert got == [(1,), (2,), (3,)]  # Z, X, Y

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2),
                                      (3, 1), (3, 2), (3, 3),
                                      (4, 1), (4, 2)])
    def test_stream_length_matches_the_formula(self, n, m):
        assert sum(1 for _ in enumerate_sets(n, m)) == count_sets(n, m)

    def test_enumerated_sets_are_valid_sorted_and_distinct(self):
        seen = set()
        for s in enumerate_sets(2, 2):
            assert isinstance(s, PauliSet)
            assert s.labels == tuple(sorted(s.labels))
            assert validate_set(list(s)).labels == s.labels
            seen.add(s.labels)
        assert len(seen) == 45

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_commutation_table_agrees_with_operator_products(self, n):
        ops = [PauliOperator.from_label(n, a) for a in range(1 << (2 * n))]
        masks = census._commute_masks(n)
        for a, p in enumerate(ops):
            for b, q in enumerate(ops):
                assert (masks[a] >> b & 1) == (pauli_product(p, q)
                                               == pauli_product(q, p))

    def test_refuses_large_widths_without_the_override(self):
        with pytest.raises(FeasibilityRefusalError):
            next(iter(enumerate_sets(5, 1)))
        stream = enumerate_sets(5, 1, allow_large=True)
        first = next(iter(stream))
        assert first.labels == (1,)

    def test_the_override_stops_at_seven_qubits(self):
        # refused when called, before any table is built
        enumerate_sets(7, 1, allow_large=True)
        for n in (40, 8):
            with pytest.raises(FeasibilityRefusalError, match="7 qubits"):
                enumerate_sets(n, 1, allow_large=True)


class TestSampling:
    def test_random_pauli_set_shape(self):
        rng = random.Random(DEFAULT_SEED)
        for n in (1, 2, 3, 4):
            for m in range(1, n + 1):
                s = random_pauli_set(n, m, rng)
                assert len(s) == m
                assert validate_set(list(s)).labels == s.labels

    def test_random_pauli_set_covers_uniformly(self):
        # chi^2 against the uniform law on the 45 sets at n=2, m=2;
        # threshold is mean + 5*sqrt(2*dof) for dof = 44
        rng = random.Random(19)
        draws = 9000
        counts = {}
        for _ in range(draws):
            s = random_pauli_set(2, 2, rng)
            counts[s.labels] = counts.get(s.labels, 0) + 1
        assert len(counts) == 45
        expected = draws / 45
        chi2 = sum((v - expected) ** 2 / expected for v in counts.values())
        assert chi2 < 91.0, chi2

    def test_random_pauli_set_keeps_the_reference_stream(self):
        # same labels and same generator state after every draw, so every
        # seeded stream that follows a draw is unmoved
        draws = 0
        for seed in (0, 7, DEFAULT_SEED, 4099):
            rng, ref = random.Random(seed), random.Random(seed)
            for n in range(1, 6):
                for m in range(1, n + 1):
                    for _ in range(40):
                        want = _reference_pauli_set(n, m, ref)
                        assert random_pauli_set(n, m, rng).labels == want.labels
                        assert rng.getstate() == ref.getstate()
                        draws += 1
        assert draws == 2400

    def test_random_gate_word_stays_in_range(self):
        rng = random.Random(20)
        for n in (1, 2, 3):
            word = random_gate_word(n, rng)
            toks = parse_gate_word(word, n)  # raises if out of range
            assert toks
        # a single qubit admits no two-qubit gates
        word = random_gate_word(1, rng, length=40)
        assert all(name in ("H", "S", "X", "Z")
                   for name, _ in parse_gate_word(word, 1))


class TestVerifiers:
    def test_distinctness_exhaustive_one_qubit(self):
        r = verify_distinctness(1, mode="exhaustive")
        assert r.passed
        assert r.counts == {"forms": 3, "pairs": 3, "self_pairs": 3}
        assert r.mode == "exhaustive"

    def test_distinctness_sampled(self):
        r = verify_distinctness(3, mode="sampled", trials=25, seed=5)
        assert r.passed
        assert r.counts == {"pairs": 25}
        assert r.seed == 5

    def test_unit_rows(self):
        r = verify_unit_rows(2, trials=20, seed=11)
        assert r.passed
        assert r.counts == {"trials": 20}

    def test_hamming_weight_counts_families(self):
        r = verify_hamming_weight(2)
        assert r.passed
        assert r.counts == {"families": 6, "instances": 12}
        r = verify_hamming_weight(3)
        assert r.passed
        assert r.counts == {"families": 56, "instances": 168}

    def test_hamming_weight_catches_a_lost_entry(self, monkeypatch):
        # every column of E's channel is nonempty, so dropping one entry
        # leaves a support of 2^w - 1 at every qubit of every family;
        # verify reads channel_bruteforce from oracle at each call
        channel_bruteforce = oracle.channel_bruteforce

        def lossy(u):
            rep = channel_bruteforce(u)
            for col in rep.cols:
                del col[next(iter(col))]
            return rep

        monkeypatch.setattr(oracle, "channel_bruteforce", lossy)
        r = verify_hamming_weight(2)
        assert not r.passed
        assert len(r.failures) == r.counts["instances"] == 12
        assert all(f.startswith("support ") for f in r.failures)

    def test_spectrum_exhaustive(self):
        r = verify_spectrum(1, mode="exhaustive")
        assert r.passed
        assert r.counts == {"forms": 3}

    def test_spectrum_sampled(self):
        r = verify_spectrum(2, mode="sampled", trials=10, seed=21)
        assert r.passed
        assert r.counts == {"forms": 10}

    def test_oracle_generators_and_forms(self):
        r = verify_oracle(1, trials=5, seed=31)
        assert r.passed
        assert r.counts == {"generators": 7, "forms": 5}

    def test_oracle_catches_a_compose_in_the_wrong_order(self, monkeypatch):
        compose = CliffordTableau.compose
        monkeypatch.setattr(CliffordTableau, "compose",
                            lambda self, other: compose(other, self))
        r = verify_oracle(2, trials=5, seed=31)
        assert not r.passed
        assert all(f.startswith("form (") for f in r.failures)

    def test_oracle_catches_a_gate_channel_that_is_no_signed_permutation(
            self, monkeypatch):
        # both sides give one exponential's channel for every gate word
        # (the only words whose true channels are signed permutations):
        # they agree, so only the signed-permutation arm can catch it
        fake = channel.channel_of_exponential(2, 1)
        channel_bruteforce = oracle.channel_bruteforce

        def brute(u):
            rep = channel_bruteforce(u)
            return fake if rep.is_signed_permutation() else rep

        monkeypatch.setattr(channel, "channel_of_clifford", lambda c: fake)
        monkeypatch.setattr(oracle, "channel_bruteforce", brute)
        r = verify_oracle(2, trials=0)
        assert r.failures == [
            f"gate {w!r} channel is not a signed permutation"
            for w in verify._generator_words(2)]
        assert r.counts == {"generators": 27, "forms": 0}

    def test_oracle_names_a_mismatched_exponential_by_its_text(self,
                                                               monkeypatch):
        # the one PauliOperator verify makes renders this failure; verify
        # reads channel_of_exponential from channel at each call
        channel_of_exponential = channel.channel_of_exponential
        yz = parse_pauli("YZ").label

        def inverted_at_yz(n, label):
            rep = channel_of_exponential(n, label)
            return rep.transpose() if label == yz else rep

        monkeypatch.setattr(channel, "channel_of_exponential", inverted_at_yz)
        r = verify_oracle(2, trials=0)
        assert r.failures == ["exponential <Pauli +YZ> channel mismatch"]

    @pytest.mark.parametrize("check, kwargs", [
        (verify_spectrum, {"mode": "sampled", "trials": 5}),
        (verify_unit_rows, {"trials": 5}),
        (verify_distinctness, {"mode": "sampled", "trials": 5}),
        (verify_oracle, {"trials": 5}),
    ], ids=["spectrum", "unit-rows", "distinctness", "oracle"])
    def test_a_negative_seed_is_refused(self, check, kwargs):
        # random.Random(-5) draws Random(5)'s stream, so seed -5 would
        # report one seed and run another
        assert random.Random(-5).random() == random.Random(5).random()
        with pytest.raises(ValueError, match=r"need a seed >= 0, got -5$"):
            check(3, seed=-5, **kwargs)

    @pytest.mark.parametrize("check, kwargs, what", [
        (verify_spectrum, {"mode": "sampled"}, "sampled spectrum"),
        (verify_unit_rows, {}, "sampled unit-rows"),
        (verify_distinctness, {"mode": "sampled"}, "sampled distinctness"),
    ], ids=["spectrum", "unit-rows", "distinctness"])
    def test_a_sampled_check_refuses_zero_trials(self, check, kwargs, what):
        # with no trials it would pass having checked nothing
        with pytest.raises(ValueError,
                           match=f"^need trials >= 1 for {what}, got 0$"):
            check(2, trials=0, **kwargs)

    def test_unit_rows_refuses_a_single_trial(self):
        # trial 0 is the empty set, so one trial would sample no set
        with pytest.raises(ValueError, match="^need trials >= 2 for "
                                             "sampled unit-rows: trial 0 "):
            verify_unit_rows(2, trials=1)
        assert verify_unit_rows(2, trials=2).counts == {"trials": 2}

    def test_growth(self):
        r = growth_check(16)
        assert r.passed
        assert r.counts == {"max_qubits": 16}

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_growth_rejects_widths_below_one(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            growth_check(n_max)


_CAPPED = FeasibilityRefusalError
# (check, args, kwargs, error type, its whole message), in groups: a width
# below one, a negative trial count, a negative seed, a width past the cap,
# too few trials, an unknown mode, then which refusal fires first
REFUSALS = [
    (verify_distinctness, (0,), {}, ValueError, "need n >= 1, got 0"),
    (verify_distinctness, (0, "sampled"), {}, ValueError,
     "need n >= 1, got 0"),
    (verify_unit_rows, (0,), {}, ValueError, "need n >= 1, got 0"),
    (verify_hamming_weight, (0,), {}, ValueError, "need n >= 1, got 0"),
    (verify_spectrum, (0,), {}, ValueError, "need n >= 1, got 0"),
    (verify_spectrum, (0, "sampled"), {}, ValueError, "need n >= 1, got 0"),
    (verify_oracle, (0,), {}, ValueError, "need n >= 1, got 0"),
    (growth_check, (0,), {}, ValueError, "need n_max >= 1, got 0"),
    (growth_check, (-3,), {}, ValueError, "need n_max >= 1, got -3"),
    (verify_distinctness, (2,), {"trials": -1}, ValueError,
     "need trials >= 0, got -1"),
    (verify_distinctness, (2, "sampled"), {"trials": -1}, ValueError,
     "need trials >= 0, got -1"),
    (verify_unit_rows, (2,), {"trials": -1}, ValueError,
     "need trials >= 0, got -1"),
    (verify_spectrum, (2,), {"trials": -1}, ValueError,
     "need trials >= 0, got -1"),
    (verify_spectrum, (2, "sampled"), {"trials": -1}, ValueError,
     "need trials >= 0, got -1"),
    (verify_oracle, (2,), {"trials": -1}, ValueError,
     "need trials >= 0, got -1"),
    (verify_distinctness, (2,), {"seed": -5}, ValueError,
     "need a seed >= 0, got -5"),
    (verify_unit_rows, (2,), {"seed": -5}, ValueError,
     "need a seed >= 0, got -5"),
    (verify_spectrum, (2,), {"seed": -5}, ValueError,
     "need a seed >= 0, got -5"),
    (verify_oracle, (2,), {"seed": -5}, ValueError,
     "need a seed >= 0, got -5"),
    (verify_distinctness, (3,), {}, _CAPPED,
     "exhaustive distinctness capped at 2 qubits, got 3"),
    (verify_distinctness, (6, "sampled"), {}, _CAPPED,
     "sampled distinctness capped at 5 qubits, got 6"),
    (verify_unit_rows, (6,), {}, _CAPPED,
     "sampled unit-rows capped at 5 qubits, got 6"),
    (verify_hamming_weight, (4,), {}, _CAPPED,
     "dense Hamming-weight sweep capped at 3 qubits, got 4"),
    (verify_spectrum, (3,), {}, _CAPPED,
     "exhaustive spectrum capped at 2 qubits, got 3"),
    (verify_spectrum, (6, "sampled"), {}, _CAPPED,
     "sampled spectrum capped at 5 qubits, got 6"),
    (verify_oracle, (4,), {}, _CAPPED,
     "oracle agreement capped at 3 qubits, got 4"),
    (growth_check, (65,), {}, _CAPPED,
     "growth check capped at 64 qubits, got 65"),
    (verify_distinctness, (2, "sampled"), {"trials": 0}, ValueError,
     "need trials >= 1 for sampled distinctness, got 0"),
    (verify_unit_rows, (2,), {"trials": 0}, ValueError,
     "need trials >= 1 for sampled unit-rows, got 0"),
    (verify_unit_rows, (2,), {"trials": 1}, ValueError,
     "need trials >= 2 for sampled unit-rows: trial 0 is the empty set, "
     "so one trial samples no set"),
    (verify_spectrum, (2, "sampled"), {"trials": 0}, ValueError,
     "need trials >= 1 for sampled spectrum, got 0"),
    (verify_distinctness, (2, "bogus"), {}, ValueError,
     "unknown mode 'bogus'"),
    (verify_spectrum, (2, "bogus"), {}, ValueError, "unknown mode 'bogus'"),
    (verify_oracle, (4,), {"trials": -1}, ValueError,
     "need trials >= 0, got -1"),
    (verify_distinctness, (6, "sampled"), {"trials": 0}, _CAPPED,
     "sampled distinctness capped at 5 qubits, got 6"),
    (verify_unit_rows, (6,), {"trials": 1}, _CAPPED,
     "sampled unit-rows capped at 5 qubits, got 6"),
    (verify_unit_rows, (2,), {"trials": -1, "seed": -5}, ValueError,
     "need trials >= 0, got -1"),
    (verify_distinctness, (0, "bogus"), {"seed": -5}, ValueError,
     "need n >= 1, got 0"),
    (verify_spectrum, (2, "bogus"), {"seed": -5}, ValueError,
     "need a seed >= 0, got -5"),
    (verify_spectrum, (9, "bogus"), {}, ValueError, "unknown mode 'bogus'"),
    (verify_distinctness, (3,), {"trials": 0}, _CAPPED,
     "exhaustive distinctness capped at 2 qubits, got 3"),
    (verify_hamming_weight, (-1,), {}, ValueError, "need n >= 1, got -1"),
]


@pytest.mark.parametrize(
    "check, args, kwargs, error, message", REFUSALS,
    ids=[f"{c.__name__}{a}{k or ''}" for c, a, k, _, _ in REFUSALS])
def test_each_refusal_has_its_exact_text(check, args, kwargs, error, message):
    with pytest.raises(ValueError) as info:
        check(*args, **kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


class TestReports:
    def test_json_dict_shape(self):
        r = verify_unit_rows(1, trials=3, seed=2)
        d = r.to_json_dict()
        assert list(d) == ["check", "passed", "counts", "failures", "seed",
                           "mode", "elapsed_seconds"]
        assert d["check"] == "unit-rows"
        assert d["passed"] is True
        assert d["failures"] == []
        assert d["seed"] == 2
        json.dumps(d)  # serializable

    def test_summary_line(self):
        r = VerificationReport(check="demo", counts={"trials": 4})
        r.elapsed = 0.5
        assert r.summary() == "demo: pass [trials=4] in 0.50s"
        bad = VerificationReport(check="demo")
        bad.failures.append("broken")
        assert not bad.passed
        assert bad.summary().startswith("demo: FAIL (1)")

    def test_finish_sets_the_counts_and_the_time_since_the_report_was_made(
            self):
        r = VerificationReport("demo", counts={"stale": 1})
        assert r.elapsed == 0.0
        assert r.finish(forms=3, pairs=2) is r
        assert r.counts == {"forms": 3, "pairs": 2}
        assert list(r.counts) == ["forms", "pairs"]
        assert r.elapsed > 0
