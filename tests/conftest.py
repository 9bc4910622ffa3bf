"""Shared test plumbing.

The acceptance tests register one line per criterion here so the run ends
with a compact pass/fail scoreboard regardless of how pytest interleaved
the output.  inverse_word builds a Clifford's inverse from its gate word,
so inverse facts are checked without any tableau inversion.  pauli_of
and conjugate turn a tableau's (label, phase) images into PauliOperator
objects, so tests can compare them with products and dense matrices;
dense_of turns such an operator, phase included, into a dense matrix:
the oracle's matrix of its label, times i^phase.
commutes states the package's commutation rule, the parity of a label
against the dual label of pauli._swap_halves.
"""

from dense_reference import cyc_mul, dense_of_pauli, zeta_power
from tcanon.clifford import parse_gate_word
from tcanon.oracle import DenseUnitary
from tcanon.pauli import PauliOperator, _swap_halves

ACCEPTANCE_RESULTS: list[tuple[str, str, bool]] = []


def record_criterion(cid: str, description: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((cid, description, passed))


def inverse_word(word: str, n: int) -> str:
    """The gate word of the inverse: the gates in reverse order, each
    inverted.  H, X, Z, CX, CZ and SWAP are their own inverses, and the
    inverse of S is Z S."""
    inverted = []
    for name, qubits in reversed(parse_gate_word(word, n)):
        args = " ".join(map(str, qubits))
        inverted.append(f"Z {args}; S {args}" if name == "S"
                        else f"{name} {args}")
    return "; ".join(inverted)


def commutes(a: int, b: int, n: int) -> bool:
    """Whether the Paulis of unsigned labels a and b commute."""
    return not (a & _swap_halves(b, n)).bit_count() & 1


def pauli_of(n: int, image: tuple) -> PauliOperator:
    """The operator i^phase * P_label of a (label, phase) pair."""
    label, phase = image
    return PauliOperator(n, label >> n, label & ((1 << n) - 1), phase)


def conjugate(c, p: PauliOperator) -> PauliOperator:
    """The tableau c's image of p, as an operator."""
    return pauli_of(c.n, c.conjugate_pauli(p.label, p.phase))


def dense_of(p: PauliOperator):
    """The dense matrix of i^phase * P_label for an operator p."""
    unit = zeta_power(4 * p.phase)
    return DenseUnitary(p.n, [[cyc_mul(unit, v) for v in row]
                              for row in dense_of_pauli(p.n, p.label).mat])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid, description, passed in sorted(ACCEPTANCE_RESULTS):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{word}] {cid}: {description}")
