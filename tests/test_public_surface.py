"""Every name a module exports is its own and has a caller in the program,
and so has every public method of a public class.

A caller is a ``Name`` or ``Attribute`` node anywhere in ``src/``,
``demos/`` or ``perfbench/``; a method's caller is an ``Attribute``.
Imports hold aliases and ``__all__`` holds strings, so neither counts; a
name used only by tests belongs in ``tests/``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eulerlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _defined(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _public_methods(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _referenced():
    """The names and, separately, the attributes the program refers to."""
    names, attributes = set(), set()
    for top in ("src", "demos", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    return names | attributes, attributes


REFERENCED, ATTRIBUTES = _referenced()


@pytest.mark.parametrize("module", MODULES)
def test_exports_are_defined_in_their_module(module):
    tree = _tree(PACKAGE / f"{module}.py")
    assert sorted(set(_exports(tree)) - _defined(tree)) == []


@pytest.mark.parametrize("module", MODULES)
def test_exports_have_a_caller_outside_tests(module):
    tree = _tree(PACKAGE / f"{module}.py")
    assert [n for n in _exports(tree) if n not in REFERENCED] == []


@pytest.mark.parametrize("module", MODULES)
def test_public_methods_have_a_caller_outside_tests(module):
    tree = _tree(PACKAGE / f"{module}.py")
    assert [q for q, name in _public_methods(tree) if name not in ATTRIBUTES] == []
