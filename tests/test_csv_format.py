"""Layout guard: only ``data.write_csv`` builds a CSV writer, so the cell
format (floats as repr, bools as 0/1) is decided in one place."""

import ast
from pathlib import Path

import icasc

SRC = Path(icasc.__file__).resolve().parent
WRITERS = ("writer", "DictWriter")


def writer_refs(path: Path) -> list[str]:
    """``module.function`` of every reference to a csv writer in ``path``."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Attribute) and child.attr in WRITERS \
                    and isinstance(child.value, ast.Name) \
                    and child.value.id == "csv":
                hits.append(scope)
            if isinstance(child, ast.ImportFrom) and child.module == "csv" \
                    and any(alias.name in WRITERS for alias in child.names):
                hits.append(scope)
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return hits


def test_csv_writer_only_in_write_csv():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in writer_refs(path)] == \
        ["data.write_csv"]
