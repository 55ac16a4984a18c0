"""Every module-level import in the package's modules is used, and every
module-level private name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "idlaws"
# __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
