"""Every public top-level name in ``src/cobordseries`` has a caller.

The scan parses the sources with ``ast`` and never imports them.  A public
def or class counts as called when its name is used outside its own
definition: in another top-level statement of the package (the
``__init__`` re-exports do not count) or anywhere in ``perfbench/``,
including the dotted strings its ``LAYER_CALLS`` table resolves.  The only
names allowed without a caller are those in ``KEEP``, each mapped to the
test that checks a paper claim through it.
"""

import ast
import re
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
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def references(node) -> set:
    """Names a node uses: identifiers, attributes, and dotted strings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and DOTTED.fullmatch(sub.value)):
            out.update(sub.value.split("."))
    return out


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


def repo_orphans() -> list:
    package = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    bench = [path.read_text() for path in sorted(BENCH.rglob("*.py"))]
    return orphans(package, bench)


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
        assert name in references(body), f"{test_id} does not use {name}"


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
