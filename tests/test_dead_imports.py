"""Every name a drpki module imports is used in that module, every
private definition is referenced somewhere in the package, and every
public function, class and method is named in the package, the benchmark
or the scripts, unless it is on the one list of names kept for tests.

A name kept on purpose, say one that a tracer patches by name, carries
`# noqa: F401` on its own line.  A private definition is a `_`-prefixed
module-level function, class or constant, or a `_`-prefixed method; a
dunder name is not one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "drpki"


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


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and classes, and methods of any class -> their line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[item.name] = item.lineno
    return out


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private module-level functions, classes and constants, and private
    methods of any class -> their line."""
    out = _definitions(tree)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node.lineno
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


# public definitions no module, benchmark or script names: kept for tests
TEST_FACING = {"to_text", "from_text", "export_tal", "test_reconstruct_sk",
               "test_reconstruct_k", "consumed_ids"}


def _named(tree: ast.Module) -> set[str]:
    """Names a file reads, imports, or spells out as a string, as a tracer
    that patches by name does."""
    names = _references(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _unnamed(trees: dict[str, ast.Module], readers: list[ast.Module]) -> dict[str, str]:
    """Public definition of `trees` that no tree of `readers` names -> where."""
    named = set().union(*map(_named, readers))
    return {name: f"{module}:{line}: {name}" for module, tree in sorted(trees.items())
            for name, line in sorted(_definitions(tree).items())
            if not name.startswith("_") and name not in named}


def test_every_public_definition_is_named_outside_the_tests():
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    readers = list(trees.values()) + [ast.parse(path.read_text())
                                      for folder in ("perfbench", "scripts")
                                      for path in sorted((ROOT / folder).rglob("*.py"))]
    unnamed = _unnamed(trees, readers)
    assert [where for name, where in unnamed.items() if name not in TEST_FACING] == []
    assert set(unnamed) == TEST_FACING  # a name the code now uses leaves the list


def test_the_check_sees_an_unnamed_public_definition():
    source = (
        "def used():\n"
        "    return C().method()\n"
        "def imported():\n"
        "    pass\n"
        "def patched():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
        "class C:\n"
        "    def method(self):\n"
        "        return getattr(self, 'patched')\n"
        "    def unused(self):\n"
        "        pass\n"
    )
    tree = ast.parse(source)
    reader = ast.parse("from m import imported\nused()\n")
    assert list(_unnamed({"m": tree}, [tree, reader])) == ["orphan", "unused"]
