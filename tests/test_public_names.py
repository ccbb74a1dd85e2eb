"""Every public name in ``src/cobordseries`` has a caller, and every
option of a package def is passed by some call.

The scan parses the sources with ``ast`` and never imports them.  A public
top-level def or class counts as called when its name is used outside its
own definition: in another top-level statement of the package (the
``__init__`` re-exports do not count) or anywhere in ``perfbench/``,
including the dotted strings its ``LAYER_CALLS`` table resolves.  A bare
name counts as a use only where it is loaded and no enclosing function,
lambda or comprehension binds it (as a parameter, an assignment target, a
comprehension variable or an import from outside the package), so a local
variable named like a def does not hide an orphan.  A public method or
property of a public class counts as called when its name is used anywhere
in the package (again not ``__init__``) or in ``perfbench/`` outside its
own def.  Only loaded attributes and dotted strings count for a member, so
neither a local variable of the same name nor an attribute store such as
``self.alpha = ...`` hides an orphan.  A member name that two public
classes define still hides one: ``Composite.boxes`` had no caller and
escaped the scan, because ``BorderPiece.boxes`` has callers.  The only
names allowed without a caller are those in ``KEEP`` (members as
``Class.member``), each mapped to the test that checks a paper claim
through it.

A private top-level def or class must be used by another top-level
statement of the package, and a use counts only from a statement that is
not itself an orphan, so a helper that only a dead helper calls is flagged
too.  Tests and ``perfbench/`` do not count for private names.

An optional parameter of a package def (a top-level function or a method,
dunders other than ``__init__`` excepted, since frameworks call them) must
be passed, by keyword or by position, by at least one call of the def's
name in the package, in ``perfbench/`` or in the tests; an ``__init__`` is
called by its class's name or by ``super().__init__``.  Calls are matched by
name, so a call of another def of the same name counts too.
"""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cobordseries"
BENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"

KEEP = {
    "extract": "tests/test_measures.py::test_extract_preserves_original_orders",
    "gibbs_density": "tests/test_measures.py::test_gibbs_density_nonzero_action",
    "glue": "tests/test_cells.py::test_cosurface_axioms_exhaustive_window",
    "holonomy_cosurface": "tests/test_cells.py::test_holonomy_is_the_reversed_path_word",
    "p_prime": "tests/test_nonregular.py::test_p_kernels_equal_the_halving_formulas",
    "phi": "tests/test_nonregular.py::test_phi_one_half",
    "sigma_action": "tests/test_acceptance.py::test_criterion_6_reordering",
    "Cell.reverse": "tests/test_cells.py::test_reverse_flips_sign_and_swaps_labels",
    "FiniteGroup.inv": "tests/test_algebras.py::test_builtin_groups_are_groups",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = FUNCTIONS + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def from_package(node) -> bool:
    """Whether an import statement imports from the package itself."""
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name)


def local_names(scope) -> set:
    """Names a function, lambda or comprehension binds in its own scope:
    parameters, assignment, loop and exception targets, comprehension
    variables, imports from outside the package (one from inside binds the
    package's own def), and nested defs and classes."""
    bound = set()
    if isinstance(scope, FUNCTIONS):
        args = scope.args
        bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if a}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            bound.add(sub.id)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)) and not from_package(sub):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in sub.names}
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(sub.name)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        if not isinstance(sub, (*SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(sub))
    return bound


def name_uses(node, bound=frozenset()):
    """The bare names a node loads that no enclosing function, lambda or
    comprehension binds."""
    if isinstance(node, SCOPES):
        bound = bound | local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from name_uses(child, bound)


def member_names(sub) -> tuple:
    """The member names one node uses: a loaded attribute or the parts of
    a dotted string, never a bare identifier or an attribute store."""
    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
        return (sub.attr,)
    if (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and DOTTED.fullmatch(sub.value)):
        return tuple(sub.value.split("."))
    return ()


def references(node) -> set:
    """Names a node uses: free identifiers, loaded attributes, and dotted
    strings."""
    return set(name_uses(node)) | {name for sub in ast.walk(node) for name in member_names(sub)}


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


def package_defs(tree):
    """(qualified name, def, self offset, callee names) for the module's
    top-level functions and its classes' methods, dunders other than
    ``__init__`` excepted; a method's first parameter is bound by the call,
    unless it is a staticmethod.  A def is called by its own name, an
    ``__init__`` by its class's name or by ``super().__init__``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if member.name == "__init__":
                    yield f"{stmt.name}.__init__", member, 1, (stmt.name, "super().__init__")
                elif not (member.name.startswith("__") and member.name.endswith("__")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in member.decorator_list)
                    yield (f"{stmt.name}.{member.name}", member, 0 if static else 1,
                           (member.name,))
        elif isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt, 0, (stmt.name,)


def callee_name(call):
    """The name a call is matched by: the called name or attribute, and
    ``super().__init__`` for a call of the parent class's initializer."""
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"):
        return "super().__init__"
    return getattr(func, "id", getattr(func, "attr", None))


def passes(call, index, name) -> bool:
    """Whether a call passes the parameter at ``index`` among the call's
    positions (None for keyword-only) by keyword or by position; a ``*`` or
    ``**`` argument may pass any."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or index is not None and len(call.args) > index)


def unpassed_options(package_sources: dict, other_sources=()) -> list:
    """Optional parameters of the package's defs (``package_defs``) that no
    call of the def's name passes, as sorted (module, "def.parameter")
    pairs."""
    trees = {name: ast.parse(text) for name, text in package_sources.items()
             if name != "__init__"}
    calls = {}
    for tree in [*trees.values(), *map(ast.parse, other_sources)]:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                calls.setdefault(callee_name(call), []).append(call)
    found = []
    for module, tree in trees.items():
        for qualname, fn, offset, callees in package_defs(tree):
            args = fn.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            options = [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first]
            options += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]
            found += [(module, f"{qualname}.{name}") for index, name in options
                      if not any(passes(call, index, name)
                                 for callee in callees for call in calls.get(callee, ()))]
    return sorted(found)


def repo_orphans() -> list:
    package = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    bench = [path.read_text() for path in sorted(BENCH.rglob("*.py"))]
    return orphans(package, bench) + member_orphans(package, bench)


def test_every_optional_parameter_is_passed_by_some_call():
    package = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    callers = [path.read_text() for path in sorted([*BENCH.rglob("*.py"), *TESTS.glob("*.py")])]
    assert unpassed_options(package, callers) == [], "options no call passes; delete them"


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


def test_scanner_ignores_an_attribute_store():
    package = {
        "__init__": "from .core import Cell, Glued\n",
        "core": ("class Cell:\n    def alpha(self):\n        return 0\n\n"
                 "class Glued:\n    def __init__(self, alpha):\n        self.alpha = alpha\n"),
    }
    bench = ["def run(cell):\n    return cell.alpha()\n"]
    assert member_orphans(package) == [("core", "Cell.alpha")]
    assert member_orphans(package, bench) == []


@pytest.mark.parametrize("binding", [
    "def run(phi):\n    return phi\n",
    "def run(x):\n    phi = x\n    return phi\n",
    "def run(xs):\n    return [phi for phi in xs]\n",
    "def run():\n    from math import pi as phi\n    return phi\n",
    "def run(phi):\n    return lambda: phi\n",
], ids=["parameter", "assignment", "comprehension", "import", "closure"])
def test_scanner_ignores_a_local_name_that_shadows_a_def(binding):
    package = {
        "__init__": "from .core import phi\n",
        "core": "def phi(t):\n    return t\n",
    }
    assert orphans(package, [binding]) == [("core", "phi")]
    assert orphans(package, [binding + "\ndef call():\n    return phi(0)\n"]) == []


def test_scanner_flags_an_unpassed_option():
    package = {
        "__init__": "from .core import box, Word\n",
        "core": ("def box(spans, sign=1, labels=()):\n    return spans\n\n"
                 "class Word:\n"
                 "    def __init__(self, cells, check=True):\n        self.cells = cells\n\n"
                 "    def read(self, domain, cover=False, *, strict=False):\n        return domain\n\n"
                 "    @staticmethod\n    def empty(size=0):\n        return size\n"),
    }
    tests = ["def test_box(word):\n    box(((0, 1),), -1)\n    word.read(1, True)\n"
             "    word.read(2, strict=True)\n    Word.empty(3)\n"]
    assert unpassed_options(package, tests) == [("core", "Word.__init__.check"),
                                                ("core", "box.labels")]
    assert unpassed_options(package) == [
        ("core", "Word.__init__.check"), ("core", "Word.empty.size"),
        ("core", "Word.read.cover"), ("core", "Word.read.strict"),
        ("core", "box.labels"), ("core", "box.sign")]


def test_scanner_flags_an_unpassed_constructor_option():
    """An ``__init__`` option counts as passed by a call of its class's name
    (self bound, so positions shift by one) or by a ``super().__init__``."""
    package = {
        "__init__": "from .core import Box, Cube\n",
        "core": ("class Box:\n"
                 "    def __init__(self, spans, axis=0, sign=1, labels=()):\n"
                 "        self.spans = spans\n\n"
                 "class Cube(Box):\n"
                 "    def __init__(self, spans):\n"
                 "        super().__init__(spans, sign=-1)\n"),
    }
    tests = ["def test_box():\n    Box(((0, 1),), 1)\n"]
    assert unpassed_options(package, tests) == [("core", "Box.__init__.labels")]
    assert unpassed_options(package) == [("core", "Box.__init__.axis"),
                                         ("core", "Box.__init__.labels")]


def test_scanner_counts_a_local_import_from_the_package():
    package = {"__init__": "from .core import phi\n", "core": "def phi(t):\n    return t\n"}
    bench = ["def run():\n    from cobordseries.core import phi\n    return phi(0)\n"]
    assert orphans(package, bench) == []
