"""The package's own sources, read as syntax trees.

``numpy.linalg`` is the test suite's independent oracle, so the package
itself takes nothing from it; every factorization, eigensolver and norm it
runs is its own.

Every tolerance the package tests against lives in one table in
``linalg``; no other module defines one, under a tolerance's name or as a
small float literal.

Eigenpairs are computed only where a spectrum is read: ``hermitian_eigen``
has exactly four call sites, ``_one_sided_jacobi`` serves a frame's bounds alone, and
only the CLI commands that report or iterate with a frame's bounds diagonalize it.

Every Hermiticity and PSD verdict on an operator stack comes from one rule,
``linalg._admission``, and only that rule reaches the shifted Cholesky kernel.

Every data-file loader builds its object one way, whatever the layout: only
``linalg._decode_family`` reads the JSON type of a per-atom family.

The frame algorithm has one loop, over the set bits of n that it folds into
x(n), and the table of iterates one, over the levels of its doubling scan.

The CLI's writer knows a payload by its type and leaves a new file's mode to
open(): it scans no string and neither reads nor sets the umask.
"""

import ast
import fnmatch
from pathlib import Path

import framekit

ALLOWED = set()
SOURCES = sorted(Path(framekit.__file__).parent.glob("*.py"))
TABLE = "linalg.py"
TOLERANCE_NAMES = ("TOL_*", "*_TOL", "*_TOL_REL", "*_SLACK", "*_MARGIN")
SMALL = 1e-6  # a nonzero float literal below this is a tolerance


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


def test_the_package_takes_nothing_from_numpy_linalg():
    assert len(SOURCES) >= 8
    for path in SOURCES:
        for line, name in numpy_linalg_uses(ast.parse(path.read_text(), str(path))):
            assert name in ALLOWED, f"{path.name}:{line} uses numpy.linalg.{name}"


def tolerance_definitions(tree):
    """(line, what) for every tolerance a module defines: a module-level name
    matching TOLERANCE_NAMES (leading underscores aside), bound by assignment or
    import, and every nonzero float literal below SMALL that is not the whole
    value of a module-level DEFAULT_* assignment (the default of an option)."""
    found, defaults = [], set()
    for node in tree.body:
        names = []
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            default = all(n.startswith("DEFAULT_") for n in names)
            if default and isinstance(node.value, ast.Constant):
                defaults.add(node.value)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        found += [(node.lineno, name) for name in names
                  if any(fnmatch.fnmatchcase(name.lstrip("_"), p) for p in TOLERANCE_NAMES)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and 0.0 < node.value < SMALL and node not in defaults):
            found.append((node.lineno, repr(node.value)))
    return found


def test_the_guard_sees_every_kind_of_tolerance():
    tree = ast.parse("TOL_X = 1e-10\nfrom .linalg import TOL_HERM\nok = x <= 1e-12 * y\n"
                     "TABLE = {'a': 1e-9}\n_X_SLACK: float = 0.5\nimport m as CERT_MARGIN\n")
    assert sorted(tolerance_definitions(tree)) == [
        (1, "1e-10"), (1, "TOL_X"), (2, "TOL_HERM"), (3, "1e-12"), (4, "1e-09"),
        (5, "_X_SLACK"), (6, "CERT_MARGIN")]
    clean = ast.parse("from . import linalg\nDEFAULT_TARGET_ERROR = 1e-9\n"
                      "ok = x <= linalg.TOL_HERM * y\nSCALE = 0.5\nTOLERANCES = {'a': None}\n")
    assert tolerance_definitions(clean) == []


def test_every_tolerance_lives_in_the_linalg_table():
    for path in SOURCES:
        found = tolerance_definitions(ast.parse(path.read_text(), str(path)))
        if path.name == TABLE:
            assert found  # the table is found, so the walk reads the sources
        else:
            assert not found, f"{path.name} defines tolerances: {found}"


# The code that reads a spectrum of a matrix with no factor: the POVM elements'
# reports, M(Omega) in the framedness test, the dyadic rule's Gram matrix and the
# square root.
EIGEN_SITES = [
    "correspondence.reference_measure",
    "linalg.psd_sqrt",
    "povm.ValidationReport.element_reports",
    "povm.is_framed",
]


def reference_sites(tree, module, name):
    """module.qualname of the function or class body around every reference to
    ``name``, read as a bare name or as an attribute: its calls, and any place it
    is passed on or bound, as such a reference can be called later."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)):
            sites.append(".".join([module] + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return sites


def package_sites(name):
    return sorted(site for path in SOURCES
                  for site in reference_sites(ast.parse(path.read_text(), str(path)),
                                              path.stem, name))


def test_the_site_walker_sees_calls_and_bare_references():
    tree = ast.parse("def f(a):\n    return linalg.g(a)\n"
                     "class C:\n    def m(self):\n        return g(1), map(linalg.g, [])\n"
                     "h = g\ndef g(a):\n    return a\n")
    assert reference_sites(tree, "mod", "g") == ["mod.f", "mod.C.m", "mod.C.m", "mod"]


def test_hermitian_eigen_serves_only_the_code_that_reads_a_spectrum():
    assert package_sites("hermitian_eigen") == EIGEN_SITES


def test_one_sided_jacobi_serves_only_frames():
    assert package_sites("_one_sided_jacobi") == ["frames.OperatorValuedFrame._bounds"]


def test_one_admission_rule_gives_every_psd_verdict():
    """validate and Decomposition take their verdicts from linalg._admission, the
    one caller of _positive_definite_where, which alone calls the kernel."""
    assert package_sites("_admission") == ["correspondence.Decomposition._fill", "povm.validate"]
    assert package_sites("_positive_definite_where") == ["linalg._admission"] * 2  # two tiers
    assert package_sites("_shifted_positive_definite") == ["linalg._positive_definite_where"]


def test_only_the_commands_that_read_frame_bounds_diagonalize_a_frame():
    """In cli, frame_bounds (and the cached _bounds behind it) is reached from
    bounds and roundtrip, and from reconstruct through frame_algorithm; to-povm
    and to-ovf read the frame's stored bound."""
    path = Path(framekit.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    direct = sorted({site for name in ("frame_bounds", "_bounds")
                     for site in reference_sites(tree, "cli", name)})
    assert direct == ["cli._cmd_bounds", "cli._cmd_roundtrip"]
    assert reference_sites(tree, "cli", "frame_algorithm") == ["cli._cmd_reconstruct"]
    assert "reconstruction.frame_algorithm" in package_sites("frame_bounds")
    assert reference_sites(tree, "cli", "_condition") == ["cli._cmd_to_povm", "cli._cmd_to_ovf"]


# The modules whose loaders read a per-atom family through linalg._decode_family.
LOADER_MODULES = ("frames", "povm", "correspondence")


def layout_branches(tree):
    """(loader, line) for every isinstance test against str or list, alone or in a
    tuple, inside a function whose name ends in _from_json."""
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.endswith("_from_json")):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id in ("str", "list") for k in kinds):
                    found.append((fn.name, node.lineno))
    return found


def test_the_layout_checker_sees_every_branch_on_a_family_type():
    tree = ast.parse("def a_from_json(obj):\n    if isinstance(obj['x'], str):\n        pass\n"
                     "    ok = not isinstance(v, (int, list))\n"
                     "def b(obj):\n    return isinstance(obj, str)\n"
                     "def c_from_json(obj):\n    return isinstance(obj, dict), isinstance(obj)\n")
    assert layout_branches(tree) == [("a_from_json", 2), ("a_from_json", 4)]


def test_no_loader_branches_on_the_layout_of_a_family():
    loaders = set()
    for name in LOADER_MODULES:
        path = Path(framekit.__file__).parent / f"{name}.py"
        tree = ast.parse(path.read_text(), str(path))
        loaders |= {fn.name for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name.endswith("_from_json")}
        assert layout_branches(tree) == [], name
    assert loaders >= {"ovf_from_json", "vector_frame_from_json", "coefficients_from_json",
                       "povm_from_json", "decomposition_from_json"}  # the walk reads them


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def loops_in(tree, name):
    """The loop nodes (statements and comprehensions) in the body of every
    function called ``name``."""
    return [node for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == name
            for node in ast.walk(fn) if isinstance(node, LOOPS)]


def test_the_loop_finder_sees_every_kind_of_loop():
    tree = ast.parse("def f(a):\n    for x in a:\n        while x:\n            x -= 1\n"
                     "    return [y for y in a], {y for y in a}, {y: 1 for y in a}, sum(y for y in a)\n"
                     "def g(a):\n    for x in a:\n        pass\n")
    assert [type(node).__name__ for node in loops_in(tree, "f")] == [
        "For", "While", "ListComp", "SetComp", "DictComp", "GeneratorExp"]


def test_the_frame_algorithm_has_one_loop_over_the_levels():
    path = Path(framekit.__file__).parent / "reconstruction.py"
    loops = loops_in(ast.parse(path.read_text(), str(path)), "frame_algorithm")
    assert len(loops) == 1 and isinstance(loops[0], ast.While)


def test_the_iterate_table_has_one_loop_over_the_levels():
    path = Path(framekit.__file__).parent / "reconstruction.py"
    loops = loops_in(ast.parse(path.read_text(), str(path)), "_iterate_table")
    assert len(loops) == 1 and isinstance(loops[0], ast.While)


def test_the_cli_writer_reads_no_payload_and_sets_no_mode():
    """The writer knows a payload by its type and lets open() apply the umask, so
    cli.py scans no string with isprintable, and neither sets the umask, sets a
    file's mode nor takes a temporary file from tempfile."""
    path = Path(framekit.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    assert not names & {"isprintable", "umask", "fchmod", "tempfile"}
