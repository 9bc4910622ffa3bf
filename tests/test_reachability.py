"""Every function, class, method and module-level name in src/tcanon is
used by the program.

A module-level function, class or assigned name, or a method other than a
dunder, must be referenced somewhere in src/ or bench/ outside its own
definition.  The package's __init__ re-exports and the tests do not
count: a helper or constant that only its own unit test uses is code no
command, verifier or benchmark runs.  A reference is an identifier, or a
word in a string that is not a docstring (the benchmark's tracer names
its spans in strings); one made inside an unreached definition does not
count either.  A method is reached only as an attribute, or in a string
as Class.method, never by a plain identifier or word of its name (a local
variable, a word of an error message).  An attribute is resolved to a
class when the AST shows which: its receiver is self or cls inside that
class, the class's name, or a call of it, and the class defines the
attribute.  Such a reference reaches only that class's method; any other
attribute reaches every method of its name.  A module-level __getattr__
is reached, since the interpreter calls it (PEP 562), and so are the
names it reads.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tcanon"

# defined names no program path reaches yet, each with the open ROADMAP
# item that gives it a caller
KEEP = {
    "oracle.dense_of_t_layer":
        "dense reference for true T/Tdg layers; ROADMAP N's orbit arm"
        " builds its start channels with it",
    "canonical.parse_form":
        "reads back the line render_canonical writes at depth <= 1;"
        " ROADMAP Q's synthesize and E's round trip need it",
}
SCOPES = ast.Module, ast.ClassDef, ast.FunctionDef


def methods(trees):
    """{class name: names of the functions its body defines}."""
    return {node.name: {item.name for item in node.body
                        if isinstance(item, ast.FunctionDef)}
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)}


def receiver(node, owner, classes):
    """The class an attribute node is resolved to, or None."""
    value = node.value
    if isinstance(value, ast.Name) and value.id in ("self", "cls"):
        name = owner.get(id(node))
    else:
        if isinstance(value, ast.Call):
            value = value.func
        name = (value.id if isinstance(value, ast.Name) else
                value.attr if isinstance(value, ast.Attribute) else None)
    return name if node.attr in classes.get(name, ()) else None


def references(tree, classes):
    """(key, line) for every reference: an identifier or a word of a
    non-docstring string is keyed by itself, an attribute by Class.attr
    when resolved to a class and by .attr otherwise, and a Class.method
    spelled in such a string by Class.method."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, SCOPES) and node.body
            and isinstance(node.body[0], ast.Expr)}
    owner = {}  # innermost enclosing class, by node; walk is outer first
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owner.update((id(inner), node.name) for inner in ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            cls = receiver(node, owner, classes)
            yield f"{cls or ''}.{node.attr}", node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno
            for cls, attr in re.findall(r"(\w+)\.(?=(\w+))", node.value):
                if attr in classes.get(cls, ()):
                    yield f"{cls}.{attr}", node.lineno


def definitions(tree, module):
    """(qualified name, keys that reach it, first line, last line) of the
    module-level functions but __getattr__, classes and assigned
    non-dunder names, and the classes' non-dunder methods."""
    for node in tree.body:
        if isinstance(node, SCOPES[1:]) and node.name != "__getattr__":
            yield (f"{module}.{node.name}", (node.name, f".{node.name}"),
                   node.lineno, node.end_lineno)
        for target in node.targets if isinstance(node, ast.Assign) else ():
            for name in ast.walk(target):
                if (isinstance(name, ast.Name)
                        and not re.fullmatch(r"__\w+__", name.id)):
                    yield (f"{module}.{name.id}", (name.id, f".{name.id}"),
                           node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not re.fullmatch(r"__\w+__", item.name)):
                    yield (f"{module}.{node.name}.{item.name}",
                           (f".{item.name}", f"{node.name}.{item.name}"),
                           item.lineno, item.end_lineno)


@functools.lru_cache(maxsize=None)
def program_files():
    """(module, source, defines) for every program file: the package's
    modules define names, and bench's only reference them."""
    return tuple((f.stem, f.read_text(encoding="utf-8"), f.parent == PACKAGE)
                 for f in sorted(PACKAGE.glob("*.py"))
                 + sorted((ROOT / "bench").glob("*.py"))
                 if f.name != "__init__.py" and not f.name.startswith("test_"))


def unreached(live, files=None):
    """Qualified names of the definitions outside live that no reached
    code references, found by dropping unreached definitions until none
    is left to drop; files defaults to program_files()."""
    files = program_files() if files is None else files
    trees = [ast.parse(source) for _, source, _ in files]
    classes = methods(tree for tree, (_, _, defines) in zip(trees, files)
                      if defines)
    refs, defs = {}, []
    for f, (tree, (module, _, defines)) in enumerate(zip(trees, files)):
        for key, line in references(tree, classes):
            refs.setdefault(key, []).append((f, line))
        if defines:
            defs += [(f, *d) for d in definitions(tree, module)
                     if d[0] not in live]
    dead = []

    def reached(d):
        return any(not any(g == f and first <= line <= last
                           for f, _, _, first, last in dead + [d])
                   for key in d[2] for g, line in refs.get(key, ()))

    while new := [d for d in defs if d not in dead and not reached(d)]:
        dead += new
    return sorted(qualname for _, qualname, _, _, _ in dead)


def test_every_definition_is_reached_from_the_program():
    assert unreached(live=KEEP) == []


def test_every_kept_name_is_defined_and_still_needs_keeping():
    # a kept name that gains a caller, or is deleted, leaves the list; one
    # whose caller no open ROADMAP item plans goes
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    for name, reason in KEEP.items():
        item = re.search(r"ROADMAP ([A-Z])\b", reason)
        assert item, f"{name}: the reason names no ROADMAP item"
        assert re.search(rf"^### {item[1]}\. ", roadmap, re.M), (
            f"{name}: ROADMAP {item[1]} is not an open item")
        assert name in unreached(live=set(KEEP) - {name})


# two classes share every method name; only class A's are called, each
# through one resolvable receiver, and spare through an unresolved one
TWO_CLASSES = """
class A:
    @classmethod
    def make(cls):
        return cls.fresh()

    @classmethod
    def fresh(cls):
        return cls()

    def grow(self):
        return self.shrink()

    def shrink(self):
        return self

    def spare(self):
        return self


class B(A):
    def make(self):
        return self.fresh()

    def fresh(self):
        return self

    def grow(self):
        return self.shrink()

    def shrink(self):
        return self

    def spare(self):
        return self


def main(x):
    A.make()
    A().grow()
    x.spare()


main(B())
"""


def test_methods_are_resolved_by_the_class_of_their_receiver():
    # A.make (class name), A.fresh (cls), A.grow (a call of the class),
    # A.shrink (self) are reached, B's namesakes are not; B.make's
    # self.fresh() and B.grow's self.shrink() resolve to B, and die with
    # them; spare has no resolvable receiver, so both are reached
    files = (("m", TWO_CLASSES, True),)
    assert unreached(live=set(), files=files) == [
        "m.B.fresh", "m.B.grow", "m.B.make", "m.B.shrink"]


def test_an_inherited_method_falls_back_to_its_bare_name():
    # self.shrink() in C resolves to no class, as C defines no shrink, so
    # it reaches B.shrink as well as A.shrink
    files = (("m", TWO_CLASSES + """

class C(A):
    def use(self):
        return self.shrink()


main(C().use())
""", True),)
    assert unreached(live=set(), files=files) == [
        "m.B.fresh", "m.B.grow", "m.B.make"]


def test_a_plain_name_or_word_reaches_no_method():
    # a local variable and a message word share a method's name; only the
    # tracer's spelling, module.Class.method in a string, reaches one
    files = (("m", """
class D:
    def named(self):
        return self

    def spoken(self):
        return self

    def traced(self):
        return self


def main():
    named = D()
    return named, "a spoken word", "m.D.traced"


main()
""", True),)
    assert unreached(live=set(), files=files) == ["m.D.named", "m.D.spoken"]


def test_a_module_getattr_is_reached_and_so_is_what_it_reads():
    # nothing calls __getattr__ by name; serve and its table are reached
    # through it, spare is not
    files = (("m", """
_SERVED = ("a", "b")


def serve(name):
    return name


def spare():
    return None


def __getattr__(name):
    if name not in _SERVED:
        raise AttributeError(name)
    return serve(name)
""", True),)
    assert unreached(live=set(), files=files) == ["m.spare"]
