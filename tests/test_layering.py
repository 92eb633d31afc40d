"""Each low-level name is used only by its owner module.

``numpy.linalg`` is called only in ``symmat``, whose ``_eigh``,
``_congruence``, ``_floored`` and ``_haar_frame`` serve every other module.
So are numpy's generator internals, the ``PCG64`` jump-ahead and the
ziggurat tables, which the seeded draw ``random_spd_trials`` needs.
A map's ``action`` is applied only in ``linmaps._apply_map``, which checks
the dimension and symmetrizes the image.  Each tolerance policy lives in one
module: the positive definite floor and the order slack in ``symmat`` (the
package re-exports ``PD_FLOOR``), the ALM stopping rule in ``kubo_ando`` and
the monotonicity margin in ``functions``.

The rules read syntax trees, so a use is found however it is formatted or
imported, and a name in a docstring is not a use.  To check another tree:

    python tests/test_layering.py path/to/src/opmeanlab
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opmeanlab"

#: Names (an attribute, a variable, an import or a definition) and the one
#: module that may use each.
OWNERS = {
    "linalg": "symmat",
    "LinAlgError": "symmat",
    "PD_FLOOR": "symmat",
    "_floor_error": "symmat",
    "_ORDER_SLACK": "symmat",
    "_ALM_TOL": "kubo_ando",
    "_ALM_MAX_ITER": "kubo_ando",
    "_LOEWNER_TOL": "functions",
    # numpy's generator internals: the seeded draw is bitwise default_rng's
    "PCG64": "symmat",
    "_PCG64_MULT": "symmat",
    "_PCG64_INVERSE": "symmat",
    "_pcg64_jumps": "symmat",
    "_pcg64_words": "symmat",
    "_ziggurat": "symmat",
    "_first_normal": "symmat",
    "_fast_bound": "symmat",
}

#: Where outside their owners a name may be imported: the package's re-export.
REEXPORTS = {("__init__", "PD_FLOOR")}

#: The one function that may apply a map's action.
ACTION_OWNER = ("linmaps", "_apply_map")

#: A factor that multiplies by it is the order slack, which ``symmat`` owns.
SLACK = 1e-9


def _names(node):
    """The names ``node`` uses, with whether it is a re-export import."""
    if isinstance(node, ast.Name):
        return [(node.id, False)]
    if isinstance(node, ast.Attribute):
        return [(node.attr, False)]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [(node.name, False)]
    if isinstance(node, ast.Import):
        return [(part, False) for alias in node.names for part in alias.name.split(".")]
    if isinstance(node, ast.ImportFrom):
        module = [(part, False) for part in (node.module or "").split(".") if part]
        return module + [(alias.name, True) for alias in node.names]
    return []


def _is_slack_product(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        operands = (node.left, node.right)
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
        operands = (node.value,)
    else:
        return False
    return any(isinstance(x, ast.Constant) and x.value == SLACK for x in operands)


def _module_violations(module, tree):
    found = []

    def visit(node, function):
        where = f"{module}.py:{getattr(node, 'lineno', 0)}"
        for name, imported in _names(node):
            owner = OWNERS.get(name)
            if owner is not None and module != owner and not (imported and (module, name) in REEXPORTS):
                found.append(f"{where}: {name} outside {owner}")
        if isinstance(node, ast.Attribute) and node.attr == "action" and (module, function) != ACTION_OWNER:
            found.append(f"{where}: .action outside {'.'.join(ACTION_OWNER)}")
        if _is_slack_product(node) and module != OWNERS["_ORDER_SLACK"]:
            found.append(f"{where}: product with {SLACK:g} outside {OWNERS['_ORDER_SLACK']}")
        if isinstance(node, ast.FunctionDef) and function is None:
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def layering_violations(src=SRC):
    """One line per use of an owned name outside its owner, over ``src/*.py``."""
    found = []
    for path in sorted(Path(src).glob("*.py")):
        found += _module_violations(path.stem, ast.parse(path.read_text(), filename=str(path)))
    return found


def test_package_keeps_every_name_in_its_owner():
    assert layering_violations() == []


@pytest.mark.parametrize(
    "module, source",
    [
        ("functions", "from numpy.linalg import eigh"),
        ("functions", "import numpy.linalg as la"),
        ("functions", "from numpy import linalg"),
        ("kubo_ando", "import numpy as np\nr = np.linalg.cholesky(a)"),
        ("kubo_ando", "try:\n    pass\nexcept LinAlgError:\n    pass"),
        ("linmaps", "def is_unital(phi, x):\n    return phi.action(x)"),
        ("statements", "f = phi.action"),
        ("kubo_ando", "from .symmat import PD_FLOOR"),
        ("kubo_ando", "from . import symmat\nlow = symmat.PD_FLOOR"),
        ("kubo_ando", "raise _floor_error('A', low)"),
        ("__init__", "low = PD_FLOOR"),
        ("__init__", "from .symmat import _ORDER_SLACK"),
        ("statements", "tol = 1e-9 * (1.0 + scale)"),
        ("statements", "tol = scale * 1e-9"),
        ("statements", "tol = scale\ntol *= 1e-9"),
        ("statements", "from .kubo_ando import _ALM_TOL"),
        ("symmat", "_alm(x, 1e-12, _ALM_MAX_ITER)"),
        ("symmat", "_LOEWNER_TOL = 1e-6"),
        ("search", "import numpy as np\nbits = np.random.PCG64(0)"),
        ("statements", "from numpy.random import PCG64"),
        ("statements", "from .symmat import _ziggurat"),
    ],
)
def test_a_use_outside_the_owner_is_found(module, source, tmp_path):
    (tmp_path / f"{module}.py").write_text(source + "\n")
    assert layering_violations(tmp_path), source


@pytest.mark.parametrize(
    "module, source",
    [
        ("symmat", "import numpy as np\nw = np.linalg.eigvalsh(a)\nPD_FLOOR = 1e-13\ntol = 1e-9 * scale"),
        ("linmaps", "def _apply_map(phi, x):\n    return _symmetrize(phi.action(x))"),
        ("linmaps", 'def is_unital(phi):\n    """An image at or below ``PD_FLOOR`` raises."""'),
        ("__init__", "from .symmat import (\n    PD_FLOOR,\n    SymMatrix,\n)\n__all__ = ['PD_FLOOR']"),
        ("matio", "ASYMMETRY_WARN = 1e-9"),
        ("kubo_ando", "_ALM_TOL = 1e-12\n_ALM_MAX_ITER = 1000"),
        ("functions", "ok = margin >= -_LOEWNER_TOL"),
        ("symmat", "import numpy as np\nbits = np.random.PCG64(0)\nwords = _pcg64_words(starts, 8)"),
    ],
)
def test_a_use_in_the_owner_is_allowed(module, source, tmp_path):
    (tmp_path / f"{module}.py").write_text(source + "\n")
    assert layering_violations(tmp_path) == []


if __name__ == "__main__":
    violations = layering_violations(sys.argv[1] if len(sys.argv) > 1 else SRC)
    print("\n".join(violations) or "no layering violations")
    sys.exit(1 if violations else 0)
