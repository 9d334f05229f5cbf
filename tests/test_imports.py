"""Layout guard: no icasc module imports a private name from another."""

import ast
from pathlib import Path

import icasc

SRC = Path(icasc.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "icasc":
            continue
        hits += [f"{path.name}:{node.lineno} imports {alias.name}"
                 for alias in node.names if alias.name.startswith("_")]
    return hits


def test_no_private_names_imported_across_modules():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in private_imports(path)] == []
