"""Every function, class, method and module-level name in src/tcanon is
used by the program.

A module-level function, class or assigned name, or a method other than a
dunder, must be referenced somewhere in src/ or bench/ outside its own
definition.  The package's __init__ re-exports and the tests do not
count: a helper or constant that only its own unit test uses is code no
command, verifier or benchmark runs.  A reference is an identifier, or a
word in a string that is not a docstring (the benchmark's tracer names
its spans in strings); one made inside an unreached definition does not
count either.  Names are matched without their class, so a method shares
its references with every other method of the same name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tcanon"

# defined names no program path reaches yet, each with why it stays
KEEP = {
    "oracle.dense_of_quarter_exponential":
        "dense reference the tests check quarter_exponential against",
    "oracle.DenseUnitary.dagger":
        "U' in the U P U' conjugation references of test_clifford,"
        " test_canonical and test_oracle; the program reads conjugates"
        " off channel_bruteforce's columns",
    "oracle.dense_of_t_layer":
        "dense reference for true T/Tdg layers; ROADMAP G gives it a caller",
    "canonical.parse_form":
        "inverse of CanonicalForm.render; ROADMAP E's round trip needs it",
    "channel.ChannelRep.is_orthogonal": "c09's orthogonality predicate",
    "channel.ChannelRep.is_signed_permutation":
        "c09's Clifford-iff-signed-permutation predicate",
    "exactnum.Cyclotomic16Scalar.to_dyadic":
        "the scalar reference channel in tests/test_oracle.py reads its"
        " traces with it; the oracle reads its own off packed digits",
}
SCOPES = ast.Module, ast.ClassDef, ast.FunctionDef


def references(tree):
    """(word, line) for every identifier and non-docstring string word."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, SCOPES) and node.body
            and isinstance(node.body[0], ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno


def definitions(tree, module):
    """(qualified name, first line, last line) of the module-level
    functions, classes and assigned non-dunder names, and the classes'
    non-dunder methods."""
    for node in tree.body:
        if isinstance(node, SCOPES[1:]):
            yield f"{module}.{node.name}", node.lineno, node.end_lineno
        for target in node.targets if isinstance(node, ast.Assign) else ():
            for name in ast.walk(target):
                if (isinstance(name, ast.Name)
                        and not re.fullmatch(r"__\w+__", name.id)):
                    yield (f"{module}.{name.id}", node.lineno,
                           node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not re.fullmatch(r"__\w+__", item.name)):
                    yield (f"{module}.{node.name}.{item.name}",
                           item.lineno, item.end_lineno)


def unreached(live):
    """Qualified names of the tcanon definitions outside live that no
    reached code references, found by dropping unreached definitions
    until none is left to drop."""
    files = [f for f in sorted(PACKAGE.glob("*.py"))
             + sorted((ROOT / "bench").glob("*.py"))
             if f.name != "__init__.py" and not f.name.startswith("test_")]
    refs, defs = {}, []
    for f in files:
        tree = ast.parse(f.read_text(encoding="utf-8"))
        for word, line in references(tree):
            refs.setdefault(word, []).append((f, line))
        if f.parent == PACKAGE:
            defs += [(f, *d) for d in definitions(tree, f.stem)
                     if d[0] not in live]
    dead = []

    def reached(d):
        return any(not any(g == f and first <= line <= last
                           for f, _, first, last in dead + [d])
                   for g, line in refs.get(d[1].rsplit(".", 1)[1], ()))

    while new := [d for d in defs if d not in dead and not reached(d)]:
        dead += new
    return sorted(qualname for _, qualname, _, _ in dead)


def test_every_definition_is_reached_from_the_program():
    assert unreached(live=KEEP) == []


def test_every_kept_name_is_defined_and_still_needs_keeping():
    # a kept name that gains a caller, or is deleted, leaves the list
    for name, reason in KEEP.items():
        assert reason
        assert name in unreached(live=set(KEEP) - {name})
