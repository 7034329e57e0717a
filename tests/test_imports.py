"""Lint: no module in src/, tests/ or demos/ imports a name it never uses,
`src/swstab` imports only numpy, the standard library and itself, and
`src/swstab/linalg.py` is the package's one door to LAPACK.

`__init__.py` files are exempt from the first: their imports are the
package's exports.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_only_unused_names():
    source = "import os\nimport numpy as np\nfrom a import b, c\nfrom __future__ import annotations\nnp.x(b)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


def test_no_unused_imports():
    assert len(FILES) > 20
    found = {
        str(path.relative_to(ROOT)): names
        for path in FILES
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


# pyproject.toml declares numpy as the package's one dependency.
ALLOWED = {"numpy", "swstab", *sys.stdlib_module_names}


def foreign_imports(source: str) -> list[str]:
    """Lines that import a module outside ALLOWED; relative imports are the
    package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    return found


def test_foreign_import_checker_flags_other_packages():
    source = (
        "import os, scipy.linalg\n"
        "from numpy.linalg import norm\n"
        "from . import linalg\n"
        "from swstab.graph import build_graph\n"
        "from hypothesis import given\n"
        "from __future__ import annotations\n"
    )
    assert foreign_imports(source) == ["line 1: scipy.linalg", "line 5: hypothesis"]


def test_src_imports_only_numpy_and_the_standard_library():
    modules = sorted((ROOT / "src" / "swstab").glob("*.py"))
    assert len(modules) > 5
    found = {
        path.name: names
        for path in modules
        if (names := foreign_imports(path.read_text()))
    }
    assert found == {}


# numpy's eigenvalue, singular-value and least-squares routines, the
# line fit built on the last, and the gufunc module under them; only
# src/swstab/linalg.py may reach them, so each operation has one kernel.
LAPACK = {"eigvals", "svd", "lstsq", "polyfit", "_umath_linalg"}


def lapack_uses(source: str) -> list[str]:
    """Lines that reach a name of LAPACK, as an attribute or by an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.ImportFrom):
            names = {*(node.module or "").split("."), *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            names = {part for alias in node.names for part in alias.name.split(".")}
        else:
            continue
        found += [(node.lineno, name) for name in names & LAPACK]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_lapack_checker_flags_attributes_and_imports():
    source = (
        "import numpy as np\n"
        "np.linalg.eigvals(a)\n"
        "from numpy.linalg import svd as s\n"
        "import numpy.linalg._umath_linalg\n"
        "np.linalg.norm(x)\n"
        "from numpy.linalg._umath_linalg import eigvals\n"
        "np.linalg.lstsq(a, b)\n"
        "slope, intercept = np.polyfit(t, y, 1)\n"
    )
    assert lapack_uses(source) == [
        "line 2: eigvals",
        "line 3: svd",
        "line 4: _umath_linalg",
        "line 6: _umath_linalg",
        "line 6: eigvals",
        "line 7: lstsq",
        "line 8: polyfit",
    ]


def test_only_linalg_calls_lapack():
    modules = sorted((ROOT / "src" / "swstab").glob("*.py"))
    assert len(modules) > 5
    found = {
        path.name: uses
        for path in modules
        if (uses := lapack_uses(path.read_text()))
    }
    assert set(found) == {"linalg.py"}
