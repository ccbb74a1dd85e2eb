"""Every public name in ``src/cobordseries`` has a caller.

The scan parses the sources with ``ast`` and never imports them.  A public
top-level def or class counts as called when its name is used outside its
own definition: in another top-level statement of the package (the
``__init__`` re-exports do not count) or anywhere in ``perfbench/``,
including the dotted strings its ``LAYER_CALLS`` table resolves.  A public
method or property of a public class counts as called when its name is
used anywhere in the package (again not ``__init__``) or in ``perfbench/``
outside its own def.  Only attribute uses and dotted strings count for a
member, so a local variable of the same name does not hide an orphan; the
same attribute name on two classes still does.  The only names allowed
without a caller are those in ``KEEP`` (members as ``Class.member``), each
mapped to the test that checks a paper claim through it.

A private top-level def or class must be used by another top-level
statement of the package, and a use counts only from a statement that is
not itself an orphan, so a helper that only a dead helper calls is flagged
too.  Tests and ``perfbench/`` do not count for private names.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cobordseries"
BENCH = ROOT / "perfbench"

KEEP = {
    "extract": "tests/test_measures.py::test_extract_preserves_original_orders",
    "gibbs_density": "tests/test_measures.py::test_gibbs_density_nonzero_action",
    "glue": "tests/test_cells.py::test_cosurface_axioms_exhaustive_window",
    "holonomy_cosurface": "tests/test_cells.py::test_holonomy_is_the_reversed_path_word",
    "sigma_action": "tests/test_acceptance.py::test_criterion_6_reordering",
    "Cell.reverse": "tests/test_cells.py::test_reverse_flips_sign_and_swaps_labels",
    "ComplexMeasure.conditional_mass":
        "tests/test_measures.py::test_conditional_mass_equals_brute_filtered_sum",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def node_names(sub) -> tuple:
    """The names one node uses: an identifier, an attribute, or the parts
    of a dotted string."""
    if isinstance(sub, ast.Name):
        return (sub.id,)
    return member_names(sub)


def member_names(sub) -> tuple:
    """The member names one node uses: an attribute or the parts of a
    dotted string, never a bare identifier."""
    if isinstance(sub, ast.Attribute):
        return (sub.attr,)
    if (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and DOTTED.fullmatch(sub.value)):
        return tuple(sub.value.split("."))
    return ()


def references(node) -> set:
    """Names a node uses: identifiers, attributes, and dotted strings."""
    return {name for sub in ast.walk(node) for name in node_names(sub)}


def orphans(package_sources: dict, other_sources=()) -> list:
    """Public top-level defs and classes of the package modules (name ->
    source text) that nothing uses, as sorted (module, name) pairs."""
    trees = {name: ast.parse(text) for name, text in package_sources.items()
             if name != "__init__"}
    used_elsewhere = set()
    for text in other_sources:
        used_elsewhere |= references(ast.parse(text))
    statements = [(module, stmt, references(stmt))
                  for module, tree in trees.items() for stmt in tree.body]
    found = []
    for module, stmt, _ in statements:
        if not (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")):
            continue
        if stmt.name in used_elsewhere or any(
                stmt.name in used for _, other, used in statements if other is not stmt):
            continue
        found.append((module, stmt.name))
    return sorted(found)


def private_orphans(package_sources: dict) -> list:
    """Private top-level defs and classes of the package modules (name ->
    source text) that no live top-level statement of the package uses, as
    sorted (module, name) pairs; orphans are removed until none is left."""
    statements = [(module, stmt, references(stmt))
                  for module, text in package_sources.items() if module != "__init__"
                  for stmt in ast.parse(text).body]
    private = [(module, stmt) for module, stmt, _ in statements
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and stmt.name.startswith("_")]
    dead = set()
    while True:
        newly = {stmt for _, stmt in private if stmt not in dead and not any(
            stmt.name in used for _, other, used in statements
            if other is not stmt and other not in dead)}
        if not newly:
            return sorted((module, stmt.name) for module, stmt in private if stmt in dead)
        dead |= newly


def member_orphans(package_sources: dict, other_sources=()) -> list:
    """Public methods and properties of the package's public classes that
    nothing uses outside their own def, as sorted (module, "Class.member")
    pairs."""
    trees = {name: ast.parse(text) for name, text in package_sources.items()
             if name != "__init__"}
    defs = [(module, cls.name, member)
            for module, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for member in cls.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")]
    uses = Counter(name for tree in [*trees.values(), *map(ast.parse, other_sources)]
                   for sub in ast.walk(tree) for name in member_names(sub))
    found = []
    for module, cls, member in defs:
        own = sum(member_names(sub).count(member.name) for sub in ast.walk(member))
        if uses[member.name] == own:
            found.append((module, f"{cls}.{member.name}"))
    return sorted(found)


def repo_orphans() -> list:
    package = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    bench = [path.read_text() for path in sorted(BENCH.rglob("*.py"))]
    return orphans(package, bench) + member_orphans(package, bench)


def test_every_public_name_has_a_caller_or_a_claim():
    unexplained = [(module, name) for module, name in repo_orphans() if name not in KEEP]
    assert unexplained == [], "public names with no caller; delete them or add to KEEP"


def test_keep_lists_only_uncalled_names_with_their_claim_tests():
    assert sorted(name for _, name in repo_orphans()) == sorted(KEEP)
    for name, test_id in KEEP.items():
        path, test = test_id.split("::")
        tree = ast.parse((ROOT / path).read_text())
        body = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == test)
        assert name.split(".")[-1] in references(body), f"{test_id} does not use {name}"


def test_every_private_def_has_a_caller_in_the_package():
    package = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert private_orphans(package) == [], "private defs nothing in the package calls"


def test_scanner_flags_an_orphan_private_def():
    package = {
        "__init__": "from .core import _exported\n",
        "core": ("def _used():\n    return 1\n\n"
                 "def _exported():\n    return 2\n\n"
                 "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
                 "def _leaf():\n    return 3\n\n"
                 "def _dead():\n    return _leaf()\n\n"
                 "class _Shape:\n    pass\n\n"
                 "def area():\n    return _used() + _Shape.__name__.count('_')\n"),
        "cli": "from .core import _used\n\nVALUE = _used()\n",
    }
    assert private_orphans(package) == [("core", "_dead"), ("core", "_exported"),
                                        ("core", "_leaf"), ("core", "_recursive")]


def test_scanner_flags_an_orphan_def():
    package = {
        "__init__": "from .core import orphan, used, Shape\n",
        "core": ("def used():\n    return 1\n\n"
                 "def orphan():\n    return orphan()\n\n"
                 "class Shape:\n    def area(self):\n        return used()\n\n"
                 "def _private():\n    return 0\n"),
        "cli": "from .core import Shape\n\ndef main():\n    return Shape()\n",
    }
    bench = ["LAYER_CALLS = (('core.main', 'cli', 'main'),)\n"]
    assert orphans(package, bench) == [("core", "orphan")]
    assert orphans(package) == [("cli", "main"), ("core", "orphan")]


def test_scanner_flags_an_orphan_method():
    package = {
        "__init__": "from .core import Shape\n",
        "core": ("class Shape:\n"
                 "    def area(self):\n        return self.area()\n\n"
                 "    @property\n    def side(self):\n        return 1\n\n"
                 "    def used(self):\n        return self.side\n\n"
                 "    def _private(self):\n        return 0\n\n"
                 "class _Hidden:\n    def alone(self):\n        return 0\n"),
    }
    bench = ["def run(shape):\n    return shape.used()\n"]
    assert member_orphans(package, bench) == [("core", "Shape.area")]
    assert member_orphans(package) == [("core", "Shape.area"), ("core", "Shape.used")]


def test_scanner_ignores_a_local_variable_named_like_a_method():
    package = {
        "__init__": "from .core import Poly\n",
        "core": ("class Poly:\n"
                 "    def degree(self):\n        return 0\n\n"
                 "    def used(self):\n        return 1\n"),
    }
    bench = ["def run(poly):\n    degree = 3\n    return poly.used() + degree\n"]
    assert member_orphans(package, bench) == [("core", "Poly.degree")]
