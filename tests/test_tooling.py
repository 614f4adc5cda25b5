"""The benchmark's tracer wraps functions by name; each name must exist.

``perfbench/tracer.py`` reports a vanished name only as a ``missing metric``
line in a traced run.  This test reads its ``TARGETS`` table (without
importing the module) and resolves every entry in the package, so a
refactor that drops or renames a traced function fails here instead.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS table")


def test_every_traced_name_resolves_to_a_callable():
    targets = tracer_targets()
    assert targets
    missing = []
    for span, (module, qualname) in targets.items():
        owner = importlib.import_module(f"tubalgcn.{module}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(span)
    assert not missing, f"traced names not defined in tubalgcn: {missing}"
