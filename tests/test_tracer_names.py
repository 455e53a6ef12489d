"""perfbench's tracer patches foltools attributes by name: each must exist.

`perfbench/tracing.py` is read as text and its SPANS and COUNTS tables are
evaluated as literals, so nothing is imported from perfbench and no file is
written there.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and node.targets[0].id in ("SPANS", "COUNTS")
    }


def test_every_traced_name_exists_in_foltools():
    tables = _tables()
    spans, counts = tables["SPANS"], tables["COUNTS"]
    assert sum(map(len, spans.values())) > 40 and len(counts) > 5
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"foltools.{layer}"), name, None))
    ]
    for layer, cls, attr in counts:
        module = importlib.import_module(f"foltools.{layer}")
        owner = getattr(module, cls, None) if cls else module
        if owner is None or attr not in vars(owner):  # the tracer patches vars(owner)[attr]
            missing.append(".".join(filter(None, (layer, cls, attr))))
    assert missing == []
