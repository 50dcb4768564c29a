"""The public functions and types offer only what their callers use
(ROADMAP aim 2: keep no public helper, option or field that only tests use)."""

import ast
import dataclasses
import inspect
from pathlib import Path

import kpcaig

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "scripts", "perfbench")


def nodes(roots):
    """Every ast node of the Python files under roots."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def passed_arguments(roots):
    """For each name called in the Python files under roots, the argument
    positions and keywords that some call passes; "*" stands for a
    ``*iterable`` argument (every position) and "**" for a ``**mapping``
    (every keyword)."""
    passed = {}
    for node in nodes(roots):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            seen = passed.setdefault(name, set())
            for position, arg in enumerate(node.args):
                seen.add("*" if isinstance(arg, ast.Starred) else position)
            seen.update("**" if kw.arg is None else kw.arg for kw in node.keywords)
    return passed


def unpassed_defaults(roots):
    """``name(parameter)`` for each defaulted parameter of a function in
    kpcaig.__all__ that no call under roots passes."""
    passed = passed_arguments(roots)
    missing = []
    for name in kpcaig.__all__:
        if not inspect.isfunction(function := getattr(kpcaig, name)):
            continue
        seen = passed.get(name, set())
        for position, param in enumerate(inspect.signature(function).parameters.values()):
            by_position = param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD) \
                and (position in seen or "*" in seen)
            by_keyword = param.kind != param.POSITIONAL_ONLY and (param.name in seen or "**" in seen)
            if param.default is not param.empty and not (by_position or by_keyword):
                missing.append(f"{name}({param.name})")
    return missing


def test_every_defaulted_public_parameter_is_passed_outside_the_tests():
    assert unpassed_defaults([ROOT / root for root in CALLERS]) == []


def unread_fields(roots):
    """``Type.field`` for each field of a dataclass in kpcaig.__all__ that no
    code under roots reads: no attribute access loads it and no string
    constant names it (as ``getattr`` by a column name does)."""
    read = set()
    for node in nodes(roots):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return [f"{name}.{field.name}" for name in kpcaig.__all__
            if dataclasses.is_dataclass(kind := getattr(kpcaig, name))
            for field in dataclasses.fields(kind) if field.name not in read]


def test_every_public_field_is_read_outside_the_tests():
    assert unread_fields([ROOT / root for root in CALLERS]) == []
