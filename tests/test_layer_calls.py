"""Guard for the benchmark's bindings: every library call that
``perfbench/harness.py`` lists in ``LAYER_CALLS`` must exist in ``src/``,
and the attributes its workloads read off a ``ComplexMeasure`` must stay.

The harness is read as source with ``ast`` (never imported), so this test
needs nothing from the benchmark beyond the file itself.
"""

import ast
import importlib
from pathlib import Path

import pytest

import cobordseries
from cobordseries.cells import CellComplex, domain_box, point_cell
from cobordseries.groups import builtin_group

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness.py"


def layer_calls():
    tree = ast.parse(HARNESS.read_text(), filename=str(HARNESS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_CALLS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("LAYER_CALLS not found in perfbench/harness.py")


def test_library_is_imported_from_src():
    assert Path(cobordseries.__file__).resolve().parent == \
        (ROOT / "src" / "cobordseries").resolve()


def test_layer_calls_are_listed():
    # an empty tuple would leave the parametrized test below with no cases
    assert layer_calls()


@pytest.mark.parametrize("metric,module,path", layer_calls(),
                         ids=[metric for metric, _, _ in layer_calls()])
def test_layer_call_resolves(metric, module, path):
    obj = importlib.import_module(f"cobordseries.{module}")
    for part in path.split("."):
        assert hasattr(obj, part), f"{metric}: {module}.{path} is missing"
        obj = getattr(obj, part)
    assert callable(obj), f"{metric}: {module}.{path} is not callable"


def test_complex_measure_exposes_words_and_q_tables():
    from cobordseries.measures import ComplexMeasure, SemigroupDensity

    z3 = builtin_group("Z3")
    density = SemigroupDensity(z3)
    complex_ = CellComplex([point_cell((i,)) for i in range(3)])
    domains = [domain_box(((0, 1),)), domain_box(((1, 2),))]
    measure = ComplexMeasure(complex_, domains, density)
    assert measure.words == ([(0, -1), (1, 1)], [(1, -1), (2, 1)])
    assert measure.q_tables == (density.q(1).values, density.q(1).values)
    assert all(len(q) == z3.order for q in measure.q_tables)
