"""Every name a drpki module imports is used in that module.

A name kept on purpose, say one that a tracer patches by name, carries
`# noqa: F401` on its own line.
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
