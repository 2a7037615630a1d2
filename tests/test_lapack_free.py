"""The production package is LAPACK-free: no module under ``src/bse`` uses a
``numpy.linalg`` function other than ``norm``, or imports from
``numpy.linalg`` or ``scipy``.  Tests may use both as independent oracles.

Nor does it call ``numpy.seterr``: the Sturm counts rely on IEEE infinities,
so floating-point handling stays scoped by ``np.errstate``, and the suite's
``error::RuntimeWarning`` filter sees every other overflow and 0/0."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bse").glob("*.py"))


def _is_numpy_attr(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def _forbidden(tree: ast.AST) -> list[str]:
    """Every forbidden import, ``numpy.linalg`` use or ``numpy.seterr`` in ``tree``."""
    nodes = list(ast.walk(tree))
    norms = {id(node.value) for node in nodes
             if isinstance(node, ast.Attribute) and node.attr == "norm"}
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith(("scipy", "numpy.linalg"))]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith(("scipy", "numpy.linalg")) or (
                    module == "numpy" and any(a.name in ("linalg", "seterr")
                                              for a in node.names)):
                found.append(f"from {module} import ...")
        elif ((_is_numpy_attr(node, "linalg") and id(node) not in norms)
              or _is_numpy_attr(node, "seterr")):
            found.append(f"{ast.unparse(node)} at line {node.lineno}")
    return found


def test_no_lapack_in_sources():
    assert "kernels.py" in {path.name for path in SOURCES}
    uses = {path.name: _forbidden(ast.parse(path.read_text(), str(path)))
            for path in SOURCES}
    assert {name: found for name, found in uses.items() if found} == {}


@pytest.mark.parametrize("snippet", [
    "import numpy as np\nnp.linalg.eigh(x)",
    "import numpy\nsolve = numpy.linalg.solve",
    "from numpy.linalg import cholesky",
    "from numpy import linalg",
    "import scipy.linalg",
    "from scipy import linalg",
    "import numpy as np\nnp.seterr(all='ignore')",
    "import numpy\nold = numpy.seterr(over='ignore')",
    "from numpy import seterr",
])
def test_guard_catches(snippet):
    assert _forbidden(ast.parse(snippet))
