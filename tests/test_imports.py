"""What an import loads: the package itself nothing, the exact layers no numpy, not even when they run.

Each import runs in a fresh interpreter, since the test process has loaded
every module already.
"""

import subprocess
import sys

from conftest import src_env

EXACT_LAYERS = ("gaussian", "errors", "bounds", "uniroots", "polyring", "series", "fields", "textio", "singularities", "branches", "construct")
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


def test_the_exact_layers_compute_without_numpy():
    # (x - 1)(x - 2)(x^2 - 2): its root search lifts two roots and leaves x^2 - 2,
    # and it has three real roots above 0; the field's singular points are (+-1, +-2)
    code = (
        "import importlib, sys\n"
        f"for layer in {EXACT_LAYERS!r}:\n"
        "    importlib.import_module('foltools.' + layer)\n"
        "from fractions import Fraction\n"
        "from foltools.fields import AffineVectorField\n"
        "from foltools.singularities import affine_singularities\n"
        "from foltools.textio import parse_poly\n"
        "from foltools.uniroots import count_real_roots, qi_roots\n"
        "rep = qi_roots([(-4, 0), (6, 0), (0, 0), (-3, 0), (1, 0)])\n"
        "field = AffineVectorField.make(parse_poly('x^2 - 1', 2), parse_poly('y^2 - 4*x^2', 2))\n"
        "points = sorted(str(pt) for pt in affine_singularities(field).points)\n"
        "print(sorted(map(str, rep.roots)), rep.residual_degree, rep.uncertain_degree, points,\n"
        "      count_real_roots([-4, 6, 0, -3, 1], Fraction(0), None), 'numpy' in sys.modules)\n"
    )
    points = ["(-1 : -2 : 1)", "(-1 : 2 : 1)", "(1 : -2 : 1)", "(1 : 2 : 1)"]
    assert _fresh(code) == f"['1', '2'] 2 0 {points} 3 False\n"


def test_the_cli_starts_without_dataclasses_or_bounds():
    # every record is a plain class, so importing the cli generates no code;
    # bounds loads when a command asks for a bound, and that command then runs
    code = (
        "import sys, foltools.cli\n"
        "loaded = [m for name, m in sorted(sys.modules.items()) if name.startswith('foltools.')]\n"
        "print([f'{m.__name__}.{c.__name__}' for m in loaded for c in vars(m).values()\n"
        "       if isinstance(c, type) and c.__module__ == m.__name__ and hasattr(c, '__dataclass_fields__')])\n"
        "print('foltools.bounds' in sys.modules)\n"
        "rc = foltools.cli.run(['bounds', '--theorem', 't1', '--m', '3'])\n"
        "print(rc, 'foltools.bounds' in sys.modules)\n"
    )
    assert _fresh(code) == "[]\nFalse\n1\n0 True\n"
