"""The start-up contract: a command imports only the modules it runs, and
the package re-exports its names without importing any module first."""

import ast
import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcanon
from tcanon import census, verify

# every name the package exported when it imported all its modules eagerly
EXPORTED = {
    "canonical": ["TLayer", "TLayerCircuit", "WidthMismatchError",
                  "canonicalize_depth_d", "channel_of_circuit",
                  "parse_circuit", "parse_form"],
    "census": ["FeasibilityRefusalError",
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
               "dense_of_gate_word", "dense_of_t_layer"],
    "pauli": ["PauliOperator", "PauliSet", "commutant", "parse_pauli",
              "validate_set"],
    "verify": ["DEFAULT_SEED"],
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


@functools.cache
def _loaded_by_command(*argv: str) -> frozenset[str]:
    """The modules a command loads; each distinct argv starts one
    interpreter per test run."""
    return frozenset(_loaded_by("from tcanon import cli\n"
                                "assert cli.main(sys.argv[1:]) == 0", *argv))


@pytest.fixture(scope="module")
def circuit_file(tmp_path_factory):
    # one path for the module, so the canonicalize commands share a run
    path = tmp_path_factory.mktemp("circuit") / "circuit.txt"
    path.write_text("QUBITS: 2\nCLIFFORD: H 0; CX 0 1\nTLAYER: t=0 tdg=1\n"
                    "CLIFFORD: S 1\n", encoding="utf-8")
    return str(path)


# enumerate's modules: the label walk and the text edge it renders with
_WALK = {"cli", "census", "pauli"}
# the counting formulas add the Clifford group order and its GF(2) algebra
_FORMULAS = _WALK | {"clifford", "gf2"}
# the checks, and the verifiers' channels and their scalars
_CHANNELS = _FORMULAS | {"verify", "channel", "exactnum"}

# (argv, the tcanon modules it loads beyond the package itself, whether it
# loads json); None in argv stands for the circuit file.  No command loads
# dataclasses.
MODULE_SETS = [
    (["enumerate", "--qubits", "2", "--tcount", "1"], _WALK, False),
    (["count", "--qubits", "3"], _FORMULAS, False),
    (["count", "--qubits", "1", "--json"], _FORMULAS, True),
    (["table", "--max-qubits", "3"], _FORMULAS, False),
    (["growth", "--max-qubits", "4"], _FORMULAS | {"verify"}, False),
    (["canonicalize", "--in", None],
     {"cli", "canonical", "clifford", "pauli", "gf2"}, False),
    (["verify", "spectrum", "--qubits", "2"], _CHANNELS, False),
    (["verify", "unit-rows", "--qubits", "2"], _CHANNELS, False),
    (["verify", "distinctness", "--qubits", "2"], _CHANNELS - {"clifford"},
     False),
    (["verify", "oracle", "--qubits", "1"], _CHANNELS | {"oracle"}, False),
    (["verify", "hamming-weight", "--qubits", "2"], _CHANNELS | {"oracle"},
     False),
]


def _row_id(argv: list) -> str:
    if argv[0] == "verify":
        return "-".join(argv[:2])
    return argv[0] + ("-json" if "--json" in argv else "")


@pytest.mark.parametrize("argv, modules, loads_json", MODULE_SETS,
                         ids=[_row_id(argv) for argv, _, _ in MODULE_SETS])
def test_each_command_loads_exactly_its_modules(argv, modules, loads_json,
                                                circuit_file):
    argv = [circuit_file if a is None else a for a in argv]
    loaded = _loaded_by_command(*argv)
    ours = {m for m in loaded if m == "tcanon" or m.startswith("tcanon.")}
    assert ours == {"tcanon"} | {f"tcanon.{m}" for m in modules}
    assert ("json" in loaded) == loads_json
    assert "dataclasses" not in loaded


def test_parse_index_has_one_definition():
    from tcanon import clifford, pauli
    assert clifford.parse_index is pauli.parse_index


def _load_time_imports(tree) -> dict[str, set[str]]:
    """{in-package module: the names it binds} over the imports a module
    runs when it is loaded, its top-level statements; an import under `if
    TYPE_CHECKING:` is not one of them."""
    out: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            for a in node.names:
                # `from . import gf2` binds the module itself
                out.setdefault(node.module or a.name, set()).add(
                    a.asname or a.name)
    return out


class _RuntimeNames(ast.NodeVisitor):
    """Every name a module reads outside its annotations."""

    def __init__(self):
        self.names: set[str] = set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_arg(self, node):
        pass  # an argument's annotation

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)  # not node.returns

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)


def test_no_module_is_imported_at_load_time_only_for_annotations():
    # such an import belongs under `if TYPE_CHECKING:`: loading the module
    # costs every command that imports this one, and computes nothing
    src = Path(tcanon.__file__).resolve().parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses = _RuntimeNames()
        uses.visit(tree)
        for module, names in _load_time_imports(tree).items():
            if not names & uses.names:
                offenders.append(f"{path.stem} -> {module}: {sorted(names)}")
    assert offenders == []


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


@pytest.mark.parametrize("name", census._VERIFY_NAMES)
def test_census_serves_each_moved_name_as_verifys_object(name):
    namespace = {}
    exec(f"from tcanon.census import {name}", namespace)
    assert getattr(census, name) is getattr(verify, name)
    assert namespace[name] is getattr(verify, name)


def test_census_refuses_a_name_it_does_not_serve():
    # private names moved to verify are not served: tests read them there
    for name in ("nope", "_generator_words"):
        with pytest.raises(AttributeError,
                           match=f"module 'tcanon.census' has no attribute "
                                 f"'{name}'"):
            getattr(census, name)


def _load_time_modules(tree) -> set[str]:
    """The modules a module's top-level statements import, stdlib and
    in-package alike, by the last part of their name."""
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.update([node.module] if node.module
                       else (a.name for a in node.names))
    return out


@pytest.mark.parametrize("module, kept_out", [
    ("census", {"random", "time", "gf2"}),
    ("cli", {"random"}),
    ("pauli", {"gf2"}),
], ids=["census", "cli", "pauli"])
def test_the_walk_path_imports_no_module_only_the_checks_run(module,
                                                             kept_out):
    # site preloads random, so sys.modules cannot show what these files
    # import; their top-level statements can
    path = Path(tcanon.__file__).resolve().parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not _load_time_modules(tree) & kept_out


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        tcanon.nope


def test_all_lists_exactly_the_exported_names():
    assert sorted(tcanon.__all__) == sorted(
        name for names in EXPORTED.values() for name in names)
