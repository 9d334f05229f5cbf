"""Static guard on the op registry: every kind the engine can record has a
derivative rule, so any tape it builds can be differentiated again."""

import ast
from pathlib import Path

from icasc import autodiff as ad


def recorded_kinds() -> set[str]:
    """String kinds passed to ``_emit(...)`` and ``._record(...)``."""
    tree = ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))
    kinds = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        first = node.args[0]
        if name in ("_emit", "_record") and isinstance(first, ast.Constant):
            kinds.add(first.value)
    return kinds


def test_every_recorded_kind_has_a_rule():
    assert recorded_kinds() == set(ad._RULES) | {"leaf", "constant"}


def test_public_names_resolve():
    missing = [name for name in ad.__all__ if not hasattr(ad, name)]
    assert missing == []
