"""The benchmark tracer patches ``swcactus`` attributes by name.

``perfbench/worker.py`` lists them in ``TRACED`` as ``(module, attribute,
span name)`` and looks each up with ``getattr`` when a traced run starts,
so a refactor that drops or renames one breaks every traced run.  The list
is read from the file's source, without importing the worker.
"""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def _traced() -> tuple:
    for node in ast.parse(WORKER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{WORKER} assigns no TRACED")


def test_traced_attributes_resolve():
    traced = _traced()
    assert traced
    for module, attr, _ in traced:
        mod = importlib.import_module(f"swcactus.{module}")
        assert callable(getattr(mod, attr, None)), f"swcactus.{module}.{attr}"
