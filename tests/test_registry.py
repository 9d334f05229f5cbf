"""Static guard on the op registry: every kind the engine can record has a
derivative rule, so any tape it builds can be differentiated again."""

import ast
from pathlib import Path

from icasc import autodiff as ad


def engine_tree() -> ast.Module:
    return ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))


def recorded_kinds() -> set[str]:
    """String kinds passed to ``_emit(...)`` and ``._record(...)``."""
    kinds = set()
    for node in ast.walk(engine_tree()):
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


class _Positional(ast.NodeTransformer):
    """Rename a rule's parameters to their positions."""

    def __init__(self, params: list[str]):
        self.names = {name: f"arg{i}" for i, name in enumerate(params)}

    def visit_Name(self, node):
        node.id = self.names.get(node.id, node.id)
        return node


def rule_bodies() -> dict[str, str]:
    """Kind -> ``ast.dump`` of its ``@_rule`` function body, parameters
    renamed to positional placeholders."""
    bodies = {}
    for node in ast.walk(engine_tree()):
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name) \
                    and dec.func.id == "_rule":
                rename = _Positional([a.arg for a in node.args.args])
                body = [rename.visit(stmt) for stmt in node.body]
                bodies[dec.args[0].value] = ast.dump(ast.Module(body, []))
    return bodies


def test_no_two_rules_share_a_body():
    bodies = rule_bodies()
    assert set(bodies) == set(ad._RULES)
    kinds_by_body: dict[str, list[str]] = {}
    for kind, body in bodies.items():
        kinds_by_body.setdefault(body, []).append(kind)
    assert [k for k in kinds_by_body.values() if len(k) > 1] == []
