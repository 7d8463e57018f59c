"""The oracle rule and the caller rule, read off the source: an oracle shares
no logic with what it checks, and every exported name has a caller."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import chainedboards

SRC = Path(chainedboards.__file__).parent
REFERENCE = Path(__file__).parent / "reference.py"

# what the transfer-matrix count runs; the enumerators it is checked against must not
TRANSFER_NAMES = {"transfer_matrix", "_transfer_steps", "_count_walks"}


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute that ``node`` mentions."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_reference_imports_no_private_library_name():
    tree = ast.parse(REFERENCE.read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "chainedboards"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    # nor reads one off a library object, as ``c._grid`` would
    private += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
    ]
    assert private == []


def test_enumerators_do_not_use_the_transfer_matrix_walk():
    for module, function in [("asm.py", "enumerate_chained_asm"), ("placements.py", "enumerate_placements")]:
        tree = ast.parse((SRC / module).read_text())
        (found,) = [
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function
        ]
        assert not _names(found) & TRANSFER_NAMES, function


# public names with no caller in the library, each kept for a reason
CALLER_RULE_PINNED = {
    "attacks": "the paper's attack relation between two squares, stated for users",
    "qtasm_count": "a closed form waiting for its verify-tables row (ROADMAP item 7)",
}


def test_every_exported_function_or_class_has_a_caller_in_the_library():
    """The caller rule: a public function or class of a library module (the
    names of its ``__all__``, or else those without a leading underscore) that
    no library module uses gains a use or moves to tests/reference.py."""
    used, public = set(), set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        used |= _names(ast.parse(path.read_text()))
        module = importlib.import_module(f"chainedboards.{path.stem}")
        names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        public |= {
            name
            for name in names
            if (inspect.isfunction(value := getattr(module, name)) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
    # the package's exports are among them
    assert {name for name in chainedboards.__all__ if name in public} == {
        name for name in chainedboards.__all__
        if inspect.isfunction(getattr(chainedboards, name)) or inspect.isclass(getattr(chainedboards, name))
    }
    assert sorted(public - used - set(CALLER_RULE_PINNED)) == []
    assert set(CALLER_RULE_PINNED) <= public - used  # a pinned name that gains a use leaves the set
