"""perfbench's tracer patches foltools attributes by name: each must exist.

`perfbench/tracing.py` is read as text and its SPANS and COUNTS tables are
evaluated as literals, so nothing is imported from perfbench and no file is
written there.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

from conftest import src_env

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


def test_importing_the_cli_loads_every_traced_layer():
    # the tracer looks each layer up in sys.modules right after importing
    # foltools.cli, so a layer that the cli stops importing eagerly breaks
    # traced runs; a fresh interpreter shows what the import alone loads
    tables = _tables()
    layers = sorted({*tables["SPANS"], *(layer for layer, _cls, _attr in tables["COUNTS"])})
    code = "import sys, foltools.cli\nprint(*(m for m in sys.argv[1:] if 'foltools.' + m not in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code, *layers], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0 and proc.stdout == "\n", proc.stdout + proc.stderr
