"""The start-up contract: a command imports only the modules it runs, and
the package re-exports its names without importing any module first."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcanon

# every name the package exported when it imported all its modules eagerly
EXPORTED = {
    "canonical": ["CanonicalForm", "TLayer", "TLayerCircuit",
                  "WidthMismatchError", "canonicalize_depth_d",
                  "canonicalize_depth_one", "channel_of_circuit",
                  "parse_circuit", "parse_form"],
    "census": ["DEFAULT_SEED", "FeasibilityRefusalError",
               "VerificationReport", "count_sets", "count_tdepth_one",
               "count_tuples", "emit_table", "enumerate_sets",
               "growth_check", "random_pauli_set", "verify_distinctness",
               "verify_hamming_weight", "verify_oracle", "verify_spectrum",
               "verify_unit_rows"],
    "channel": ["ChannelRep", "SpectrumMismatchError", "channel_of_canonical",
                "channel_of_clifford", "channel_of_exponential",
                "infer_t_count"],
    "clifford": ["CliffordTableau", "from_gate_word", "group_order",
                 "random_clifford"],
    "exactnum": ["Cyclotomic16Scalar", "DyadicSqrt2Scalar"],
    "oracle": ["DenseUnitary", "channel_bruteforce", "dense_of_exponential",
               "dense_of_gate_word", "dense_of_pauli", "dense_of_t_layer"],
    "pauli": ["PauliOperator", "PauliSet", "commutant", "parse_pauli",
              "validate_set"],
}

# the modules a fresh process has loaded since `before`, as its last line
_REPORT = "print(' '.join(sorted(set(sys.modules) - before)))"


def _loaded_by(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs code."""
    package_root = str(Path(tcanon.__file__).resolve().parent.parent)
    script = f"import sys\nbefore = set(sys.modules)\n{code}\n{_REPORT}\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _loaded_by_command(*argv: str) -> set[str]:
    return _loaded_by("from tcanon import cli\n"
                      "assert cli.main(sys.argv[1:]) == 0", *argv)


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.txt"
    path.write_text("QUBITS: 2\nCLIFFORD: H 0; CX 0 1\nTLAYER: t=0 tdg=1\n"
                    "CLIFFORD: S 1\n", encoding="utf-8")
    return str(path)


# enumerate's modules: the label walk and the text edge it renders with
_WALK = {"cli", "census", "pauli", "gf2"}
_CHANNELS = _WALK | {"canonical", "clifford", "channel", "exactnum"}

# (argv, the tcanon modules it loads beyond the package itself); None in
# argv stands for the circuit file
MODULE_SETS = [
    (["enumerate", "--qubits", "2", "--tcount", "1"], _WALK),
    (["count", "--qubits", "3"], _WALK | {"clifford"}),
    (["table", "--max-qubits", "3"], _WALK | {"clifford"}),
    (["growth", "--max-qubits", "4"], _WALK | {"clifford"}),
    (["canonicalize", "--in", None],
     {"cli", "canonical", "clifford", "pauli", "gf2"}),
    (["verify", "spectrum", "--qubits", "2"], _CHANNELS),
    (["verify", "unit-rows", "--qubits", "2"], _CHANNELS),
    (["verify", "distinctness", "--qubits", "2"], _CHANNELS - {"canonical"}),
    (["verify", "oracle", "--qubits", "1"], _CHANNELS | {"oracle"}),
    (["verify", "hamming-weight", "--qubits", "2"], _CHANNELS | {"oracle"}),
]


@pytest.mark.parametrize("argv, modules", MODULE_SETS, ids=[
    "-".join(argv[:2]) if argv[0] == "verify" else argv[0]
    for argv, _ in MODULE_SETS])
def test_each_command_loads_exactly_its_modules(argv, modules, circuit_file):
    argv = [circuit_file if a is None else a for a in argv]
    loaded = {m for m in _loaded_by_command(*argv)
              if m == "tcanon" or m.startswith("tcanon.")}
    assert loaded == {"tcanon"} | {f"tcanon.{m}" for m in modules}


def test_parse_index_has_one_definition():
    from tcanon import clifford, pauli
    assert clifford.parse_index is pauli.parse_index


def test_canonicalize_loads_neither_the_verifiers_nor_the_channels(
        circuit_file):
    loaded = _loaded_by_command("canonicalize", "--in", circuit_file)
    assert {"tcanon.cli", "tcanon.canonical"} <= loaded
    assert not loaded & {"tcanon.census", "tcanon.oracle", "tcanon.channel",
                         "tcanon.exactnum", "dataclasses"}


@pytest.mark.parametrize("argv", [
    ["verify", "spectrum", "--qubits", "2"],
    ["enumerate", "--qubits", "2", "--tcount", "1"],
], ids=["verify-spectrum", "enumerate"])
def test_commands_off_the_dense_oracle_do_not_load_it(argv):
    loaded = _loaded_by_command(*argv)
    assert "tcanon.census" in loaded
    assert "tcanon.oracle" not in loaded


@pytest.mark.parametrize("argv", [
    ["count", "--qubits", "3"],
    ["table", "--max-qubits", "3"],
    ["growth", "--max-qubits", "4"],
    ["enumerate", "--qubits", "2", "--tcount", "1"],
], ids=["count", "table", "growth", "enumerate"])
def test_commands_off_the_channels_load_neither_them_nor_their_scalars(argv):
    loaded = _loaded_by_command(*argv)
    assert "tcanon.census" in loaded
    assert not loaded & {"tcanon.channel", "tcanon.exactnum"}


@pytest.mark.parametrize("argv, loads_json", [
    (["canonicalize", "--in", None], False),
    (["enumerate", "--qubits", "2", "--tcount", "1"], False),
    (["count", "--qubits", "1", "--json"], True),
], ids=["canonicalize", "enumerate", "count-json"])
def test_only_json_output_loads_json(argv, loads_json, circuit_file):
    argv = [circuit_file if a is None else a for a in argv]
    assert ("json" in _loaded_by_command(*argv)) == loads_json


def test_importing_the_package_loads_no_module_of_it():
    loaded = _loaded_by("import tcanon")
    assert "tcanon" in loaded
    assert not {m for m in loaded if m.startswith("tcanon.")}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTED.items() for name in names])
def test_every_exported_name_is_its_modules_object(module, name):
    home = importlib.import_module(f"tcanon.{module}")
    namespace = {}
    exec(f"from tcanon import {name}", namespace)
    assert getattr(tcanon, name) is getattr(home, name)
    assert namespace[name] is getattr(home, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        tcanon.nope


def test_all_lists_exactly_the_exported_names():
    assert sorted(tcanon.__all__) == sorted(
        name for names in EXPORTED.values() for name in names)
