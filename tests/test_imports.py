"""Every import in the package's modules is used, every module-level private
name is read somewhere in the package, and the lazy package namespace keeps
its public names."""

import ast
import importlib
from pathlib import Path

import pytest

import idlaws

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "idlaws"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(statements) -> list:
    """(name, line) of each name bound by the import statements among statements."""
    out = []
    for node in statements:
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def unused_imports(source: str) -> list:
    """Names bound by an import that nothing reads: a top-level import must be
    read somewhere in the module, an import inside a function in that function."""
    tree = ast.parse(source)
    scopes = [(tree, tree.body)] + [
        (f, list(ast.walk(f)))
        for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    out = []
    for scope, statements in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        out += [
            f"{name} (line {line})"
            for name, line in _imported_names(statements)
            if name not in read
        ]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_a_stale_import_in_a_function() -> None:
    source = (
        "import math\n\n"
        "def used():\n    from os import sep\n    return sep\n\n"
        "def stale():\n    from os import getcwd\n    return math.pi\n\n"
        "def elsewhere():\n    return getcwd\n"
    )
    # getcwd is read, but not by the function that imports it
    assert unused_imports(source) == ["getcwd (line 8)"]


def stranded_privates(sources: dict) -> list:
    """Module-level private names (a _x def, class or assignment) of each
    module in ``sources`` (name -> text) that no module reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    out = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            out += [
                f"{module}: {name} (line {node.lineno})"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return out


def test_stranded_privates_finds_a_helper_its_last_caller_left() -> None:
    helper = "def _weight(u):\n    return u\n\n_SCALE = 2.0\n"
    caller = "from a import _weight\n\ndef constant():\n    return _weight(0.5)\n"
    assert stranded_privates({"a.py": helper, "b.py": caller}) == ["a.py: _SCALE (line 4)"]
    assert stranded_privates({"a.py": helper, "b.py": "x = 1\n"}) == [
        "a.py: _weight (line 1)",
        "a.py: _SCALE (line 4)",
    ]


def test_no_stranded_private_helpers() -> None:
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert stranded_privates(sources) == []


# the names idlaws.__all__ has had since the package imported every submodule
# eagerly, in the order of their defining modules, less stream_for and
# sample_increments, now the reference sampler of tests/test_simulate.py
PUBLIC_NAMES = [
    "__version__",
    "CanonicalMeasure", "InfiniteWeight", "MissingAtomValue", "cdf", "integrate", "quantile",
    "restrict", "reweight", "symmetric_grid", "total_mass",
    "BadParameter", "CompoundPoissonSpec", "InfiniteVariance", "KolmogorovPair",
    "LevyKhintchinePair", "LevyTriplet", "NonFiniteLogCF", "catalog", "definetti_sequence",
    "kolmogorov_to_lk", "law_from_json_dict", "law_to_json_dict", "law_to_lk",
    "lk_to_kolmogorov", "lk_to_levy", "levy_to_lk", "log_cf", "log_cf_lk", "scale_law",
    "truncate_cp",
    "CharacteristicFunctionGrid", "DivisibilityReport", "ProbeOutOfRange", "ZeroCrossing",
    "build_cf_grid", "build_log_cf_grid", "grid_to_csv", "nth_root", "psd_check",
    "verify_infinitely_divisible",
    "BoundViolated", "GhFamily", "InsufficientSpan", "InversionIntermediates", "NoConvergence",
    "OutOfRange", "SignViolation", "delta", "delta_profile", "extract_limit", "g_from_k",
    "g_h_from_root", "gnedenko_tail_check", "i_h", "inversion_report", "invert_cf",
    "k_from_delta", "tail_bounds",
    "BadTimes", "EmpiricalCF", "ProcessSpec", "ScalingReport", "TriangularArrayReport",
    "empirical_cf", "empirical_cf_to_csv", "paths_to_csv", "sample_paths", "scaling_check",
    "triangular_array_check",
]


def test_lazy_namespace_keeps_the_public_names() -> None:
    assert idlaws.__all__ == PUBLIC_NAMES and len(PUBLIC_NAMES) == 70
    star = {}
    exec("from idlaws import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC_NAMES)
    for name in PUBLIC_NAMES[1:]:
        value = getattr(idlaws, name)
        assert star[name] is value
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert value.__module__.startswith("idlaws.")
    assert idlaws.khinchin is importlib.import_module("idlaws.khinchin")
    with pytest.raises(AttributeError, match="no_such_name"):
        idlaws.no_such_name
    assert {"__all__", *PUBLIC_NAMES} <= set(dir(idlaws))


# the package modules each module may import at its top level; cli imports
# the rest of what a verb runs inside that verb's function
MAY_IMPORT = {
    "__init__": set(),
    "measure": set(),
    "canonical": {"measure"},
    "divisibility": {"measure"},
    "khinchin": {"canonical", "divisibility", "measure"},
    "simulate": {"canonical", "measure"},
    "cli": {"canonical", "measure"},
}


def package_imports(source: str) -> set:
    """The package modules named by a module's top-level relative imports
    (a name ``from . import`` takes from the package itself is not one)."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {node.module} if node.module else {a.name for a in node.names}
            out |= names & MAY_IMPORT.keys()
    return out


def test_package_imports_finds_each_form() -> None:
    source = (
        "from . import canonical, __version__\n"
        "from .measure import cdf\n"
        "import numpy as np\n\n"
        "def verb():\n    from .khinchin import delta\n"
    )
    assert package_imports(source) == {"canonical", "measure"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_the_layers_below(path) -> None:
    assert package_imports(path.read_text(encoding="utf-8")) <= MAY_IMPORT[path.stem]
