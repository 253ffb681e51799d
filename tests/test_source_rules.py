"""Source rules for the library: its numerical kernels are its own.

Library modules may use numpy for storage, FFT and norms, but not for
eigenvalues, factorizations or polynomial roots, and may not import
scipy. Checked on the syntax tree, so comments and strings never count.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "spinpoint").glob("*.py"))


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def violations(source):
    """Forbidden numpy and scipy uses in ``source``, as written."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "scipy"
                      or alias.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [alias.name for alias in node.names]
            if module.split(".")[0] == "scipy":
                found.append(f"from {module} import {', '.join(names)}")
            elif module == "numpy.linalg":
                found += [f"from numpy.linalg import {name}" for name in names
                          if name != "norm"]
            elif module == "numpy":
                found += [f"from numpy import {name}" for name in names
                          if name in ("linalg", "roots")]
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name is None:
                continue
            head, _, rest = name.partition(".")
            if head in numpy_names and (
                    rest == "roots"
                    or (rest.startswith("linalg.") and rest != "linalg.norm")):
                found.append(name)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_uses_in_house_kernels(path):
    assert violations(path.read_text()) == []


def test_rules_catch_forbidden_uses():
    source = "\n".join([
        "import numpy as xp",
        "import scipy.optimize",
        "from scipy import linalg",
        "from numpy.linalg import eigvals, norm",
        "from numpy import roots",
        "xp.linalg.norm(a)",
        "xp.linalg.eig(a)",
        "xp.roots(c)",
        "w = xp.linalg.svd",
    ])
    assert sorted(violations(source)) == sorted([
        "import scipy.optimize",
        "from scipy import linalg",
        "from numpy.linalg import eigvals",
        "from numpy import roots",
        "xp.linalg.eig",
        "xp.roots",
        "xp.linalg.svd",
    ])
