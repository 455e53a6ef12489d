"""What an import loads: the package itself nothing, the exact layers no numpy.

Each import runs in a fresh interpreter, since the test process has loaded
every module already.
"""

import subprocess
import sys

from conftest import src_env

EXACT_LAYERS = ("singularities", "branches", "construct", "textio", "bounds")
NOT_NEEDED = ("numpy", "foltools.realtopo", "foltools.cycles", "foltools.cli")


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_package_loads_no_module_and_the_exact_layers_load_no_numpy():
    assert _fresh("import sys, foltools\nprint(sorted(m for m in sys.modules if m.startswith('foltools.')))") == "[]\n"
    code = (
        "import importlib, sys\n"
        f"for layer in {EXACT_LAYERS!r}:\n"
        "    importlib.import_module('foltools.' + layer)\n"
        f"print([m for m in {NOT_NEEDED!r} if m in sys.modules])\n"
    )
    assert _fresh(code) == "[]\n"
