"""Every name a drpki module imports is used in that module, and every
private definition is referenced somewhere in the package.

A name kept on purpose, say one that a tracer patches by name, carries
`# noqa: F401` on its own line.  A private definition is a `_`-prefixed
module-level function, class or constant, or a `_`-prefixed method; a
dunder name is not one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drpki"


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name bound by an import -> its line, unless that line is exempt."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                out[name] = alias.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, in code, in quoted annotations and in __all__."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _used(ast.parse(part.value, mode="eval"))
    return used


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for name, line in sorted(_imported(tree, source.splitlines()).items())
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _unused_imports(path)] == []


def test_the_check_sees_an_unused_import():
    source = (
        "import os\n"
        "import sys  # noqa: F401 - kept on purpose\n"
        "from typing import Optional, Sequence\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.sep\n"
    )
    tree = ast.parse(source)
    assert sorted(set(_imported(tree, source.splitlines())) - _used(tree)) == ["Sequence"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private module-level functions, classes and constants, and private
    methods of any class -> their line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node.lineno
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[item.name] = item.lineno
    return {name: line for name, line in out.items() if _is_private(name)}


def _references(tree: ast.Module) -> set[str]:
    """Names the module reads, as a bare name or as an attribute."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    refs = set().union(*map(_references, trees.values()))
    return [f"{module}:{line}: {name}" for module, tree in sorted(trees.items())
            for name, line in sorted(_private_definitions(tree).items()) if name not in refs]


def test_no_private_definition_goes_unreferenced():
    trees = {str(path.relative_to(SRC.parent)): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    assert len(trees) > 1
    assert _unreferenced(trees) == []


def test_the_check_sees_an_unreferenced_private_definition():
    source = (
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "def public():\n"
        "    return C()._called()\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._state = 0\n"
        "    def _called(self):\n"
        "        return self._state\n"
        "    def _orphan(self):\n"
        "        pass\n"
    )
    assert _unreferenced({"m": ast.parse(source)}) == [
        "m:2: _UNUSED", "m:3: _helper", "m:12: _orphan"]
