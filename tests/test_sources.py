"""The package's own sources, read as syntax trees.

``numpy.linalg`` is the test suite's independent oracle, so the package
itself may take nothing from it but ``norm``; every factorization and
eigensolver it runs is its own.
"""

import ast
from pathlib import Path

import framekit

ALLOWED = {"norm"}
SOURCES = sorted(Path(framekit.__file__).parent.glob("*.py"))


def numpy_linalg_uses(tree):
    """(line, what) for every use of numpy.linalg in a module: the names read
    from it through a numpy alias or a ``from numpy.linalg import``, and "linalg"
    itself wherever the submodule is bound to a name or passed on bare."""
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "numpy"}
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [(node.lineno, "linalg") for a in node.names if a.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            uses += [(node.lineno, "linalg") for a in node.names if a.name == "linalg"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            uses += [(node.lineno, a.name) for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            parent = parents.get(node)
            read = isinstance(parent, ast.Attribute) and parent.value is node
            uses.append((node.lineno, parent.attr if read else "linalg"))
    return uses


def test_the_checker_sees_every_kind_of_use():
    tree = ast.parse(
        "import numpy as np\nimport numpy.linalg\nfrom numpy import linalg\n"
        "from numpy.linalg import eigh, norm\nla = np.linalg\nnp.linalg.svd(a)\n"
        "np.linalg.norm(a)\nlinalg.hermitian_eigen(a)\n")
    assert sorted(numpy_linalg_uses(tree)) == [
        (2, "linalg"), (3, "linalg"), (4, "eigh"), (4, "norm"), (5, "linalg"),
        (6, "svd"), (7, "norm")]


def test_the_package_takes_only_norm_from_numpy_linalg():
    assert len(SOURCES) >= 8
    seen = []
    for path in SOURCES:
        for line, name in numpy_linalg_uses(ast.parse(path.read_text(), str(path))):
            seen.append(name)
            assert name in ALLOWED, f"{path.name}:{line} uses numpy.linalg.{name}"
    assert seen  # the norms are found, so the walk reads the sources
