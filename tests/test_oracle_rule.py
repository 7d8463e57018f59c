"""The oracle rule, the caller rule, the built rule and the import rule,
read off the source: an oracle shares no logic with what it checks, every
exported name and every public method has a caller, only a pinned set of
sites builds objects without their checks, and every module-level import is
read."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import chainedboards

SRC = Path(chainedboards.__file__).parent
REFERENCE = Path(__file__).parent / "reference.py"

# what the transfer-matrix count runs; the enumerators it is checked against must not
TRANSFER_NAMES = {"transfer_matrix", "_transfer_steps", "_count_tm_max", "_count_walks", "_max_reads"}
# what the composition walk of count_placements_formula runs; the placement searches must not
WALK_NAMES = {"_composition_steps", "_composition_deficits", "_count_formula_max", "_count_walks", "_max_reads",
              "falling_factorial"}


def test_every_walk_name_is_defined():
    # a renamed or deleted walk helper would leave the oracle rule below
    # checking for a name that nothing can mention
    defined = {
        node.name
        for path in [*SRC.glob("*.py"), REFERENCE]
        for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)
    }
    assert sorted((TRANSFER_NAMES | WALK_NAMES) - defined) == []


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


# the searches checked against the transfer-matrix count or the composition
# walk, each with the file it is defined in
ORACLE_ENTRY_POINTS = [
    (SRC / "asm.py", "enumerate_chained_asm"),
    (SRC / "placements.py", "enumerate_placements"),
    (SRC / "placements.py", "count_placements_brute"),
    (SRC / "perms.py", "enumerate_chained_permutations"),
    # the private path streams that the CLI writes from, and the enumerators wrap
    (SRC / "asm.py", "_matrix_paths"),
    (SRC / "perms.py", "_matrix_paths"),
    (SRC / "placements.py", "_search"),
    (REFERENCE, "row_search"),
]


def _reached(path: Path, entry: str) -> dict[tuple[Path, str], ast.FunctionDef]:
    """The module-level functions that function ``entry`` of ``path`` reaches
    by name, itself included, keyed by (file, name).  A name resolves to its
    own file's function of that name, or else to every library module's."""
    library = sorted(SRC.glob("*.py"))
    defs = {
        where: {node.name: node for node in ast.parse(where.read_text()).body if isinstance(node, ast.FunctionDef)}
        for where in {*library, path}
    }
    reached, todo = {}, [(path, entry)]
    while todo:
        where, name = todo.pop()
        if (where, name) in reached:
            continue
        node = reached[where, name] = defs[where][name]
        for used in _names(node):
            todo += [(where, used)] if used in defs[where] else [(lib, used) for lib in library if used in defs[lib]]
    return reached


def test_enumerators_do_not_use_the_transfer_matrix_walk():
    """The oracle rule, followed through calls: no function that an
    enumerator reaches is, or mentions, a name of the transfer-matrix count
    or of the composition walk."""
    for path, entry in ORACLE_ENTRY_POINTS:
        mentioned = set().union(*map(_names, _reached(path, entry).values()))
        assert mentioned & (TRANSFER_NAMES | WALK_NAMES) == set(), f"{path.name}::{entry}"
    # the calls are followed: the brute count reaches the per-board options through _search,
    # and the chained-ASM search each matrix's completions
    assert (SRC / "placements.py", "_options") in _reached(SRC / "placements.py", "count_placements_brute")
    completions = _reached(SRC / "asm.py", "enumerate_chained_asm").get((SRC / "asm.py", "_completions"))
    assert completions is not None and _names(completions) & (TRANSFER_NAMES | WALK_NAMES) == set()
    # both searches run on one product loop and one keep helper, which mention neither walk
    for path, entry in [(SRC / "placements.py", "count_placements_brute"), (SRC / "placements.py", "_search"),
                        (SRC / "perms.py", "_matrix_paths"), (SRC / "asm.py", "_matrix_paths")]:
        reached = _reached(path, entry)
        for shared in ("_chain", "_kept"):
            node = reached.get((SRC / "placements.py", shared))
            assert node is not None and _names(node) & (TRANSFER_NAMES | WALK_NAMES) == set(), (entry, shared)


def test_the_searches_do_not_know_the_document_format():
    """The format rule: the searches that the CLI writes from take builders
    of their payloads and import neither ``json`` nor ``serialization``, the
    one module that knows the document format."""
    for name in ("asm.py", "perms.py", "placements.py"):
        imported = set()
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {node.module or "", *(f"{node.module or ''}.{alias.name}" for alias in node.names)}
        modules = {part for module in imported for part in module.split(".") if part}
        assert modules & {"json", "serialization"} == set(), name


# public names with no caller in the library, each kept for a reason
CALLER_RULE_PINNED = {
    "attacks": "the paper's attack relation between two squares, stated for users",
    "qtasm_count": "a closed form waiting for its verify-tables row (ROADMAP item 7)",
    "count_chained_asm_tm": "the one-board form of asm._count_tm_max, which verify-tables"
    " reads once per (shape, n); it waits for a CLI row (ROADMAP item 19)",
    # the CLI writes each search's paths of texts with serialization._documents, making no object
    "enumerate_chained_asm": "the paper's enumeration of chained ASMs as objects, for library users;"
    " the CLI streams the same search's payloads (asm._matrix_paths)",
    "enumerate_chained_permutations": "the paper's enumeration of chained permutations as objects, for"
    " library users; the CLI streams the same search's payloads (perms._matrix_paths)",
    "enumerate_placements": "the paper's enumeration of rook placements as objects, for library users;"
    " the CLI streams the same search's payloads (placements._search)",
    "serialize_stream": "the stream writer of objects, for library users; the CLI writes the searches'"
    " payloads with the same writer core (serialization._documents)",
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


# every public method and property of a library class, keyed by class:
# (module, function) of a library function that reads ``.name``, or the
# reason the method stays without one
METHOD_CALLERS = {
    "BoardSpec.circular": ("placements", "_search"),
    "GridGraph.vertices": ("rendering", "_grid_dot"),
    "GridGraph.edges": "the canonical edge order, which IceConfiguration.heads follows;"
    " tests/reference.py reads it there, since it may read no private name",
    "ChainGraph.vertex_rows": ("matchings", "ChainGraph.vertices"),
    "ChainGraph.vertices": ("rendering", "_chain_graph_dot"),
    "ChainGraph.edges": ("rendering", "_chain_graph_dot"),
    "ChainGraph.endpoints": ("matchings", "matching_problems"),
    "RookPlacement.m": ("perms", "placement_to_matrices"),
    "VerificationRecord.row": ("verify", "VerificationReport.to_tsv"),
    "VerificationReport.to_tsv": ("cli", "_cmd_verify_tables"),
    "VerificationReport.failures": ("cli", "_cmd_verify_tables"),
    "VerificationReport.skipped": ("cli", "_cmd_verify_tables"),
}


def _definition(module: str, qualname: str) -> ast.AST:
    """The function (or method, as ``Class.name``) ``qualname`` of a library module."""
    node = ast.parse((SRC / f"{module}.py").read_text())
    for part in qualname.split("."):
        (node,) = [
            sub for sub in node.body
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub.name == part
        ]
    return node


def test_every_public_method_has_a_caller_or_a_pin():
    """The caller rule for methods, by class: a name that another class's
    method or a local variable shares cannot stand in for a caller."""
    methods = {
        f"{top.name}.{node.name}"
        for path in SRC.glob("*.py")
        for top in ast.parse(path.read_text()).body if isinstance(top, ast.ClassDef)
        for node in top.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    unlisted = sorted(methods - set(METHOD_CALLERS))
    assert not unlisted, f"public methods with neither a library caller nor a pin: {unlisted}"
    assert sorted(set(METHOD_CALLERS) - methods) == []  # a deleted method leaves the table


@pytest.mark.parametrize("method", sorted(METHOD_CALLERS))
def test_the_named_caller_reads_the_method(method):
    caller = METHOD_CALLERS[method]
    if isinstance(caller, str):
        assert caller.strip(), f"{method} is pinned without a reason"
        return
    name = method.split(".")[1]
    reads = {sub.attr for sub in ast.walk(_definition(*caller)) if isinstance(sub, ast.Attribute)}
    assert name in reads, f"{'.'.join(caller)} does not read .{name}"


# (module, function, class) of each call of ``boards._built``, which skips a
# constructor's checks: each site assembles its object from parts it made
# and checked itself, and tests/test_built.py checks what each one emits
BUILT_SITES = [
    ("asm", "enumerate_chained_asm", "ChainedASM"),
    ("perms", "_with_ones", "ChainedPermutation"),
    ("perms", "enumerate_chained_permutations", "ChainedPermutation"),
    ("placements", "enumerate_placements", "RookPlacement"),
]


def _is_built(node: ast.AST) -> bool:
    """Whether ``node`` is the name ``_built`` or an attribute of that name."""
    return (isinstance(node, ast.Name) and node.id == "_built"
            or isinstance(node, ast.Attribute) and node.attr == "_built")


def test_only_the_pinned_sites_build_objects_unchecked():
    """The built rule: a new call of ``_built`` is a site that could take
    outside input unchecked, so it joins the pinned sites with a reason."""
    sites, other_uses = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            calls = [node for node in ast.walk(top) if isinstance(node, ast.Call) and _is_built(node.func)]
            sites += [(path.stem, where, ast.unparse(call.args[0]) if call.args else "") for call in calls]
            # passed on, stored or imported under another name, it could be called unseen
            other_uses += [(path.stem, where)] * (sum(map(_is_built, ast.walk(top))) - len(calls))
            other_uses += [
                (path.stem, alias.asname) for node in ast.walk(top) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name == "_built" and alias.asname
            ]
    assert sorted(sites) == BUILT_SITES
    assert other_uses == []


def test_every_module_level_import_is_read():
    """The import rule: a name that a library module other than ``__init__.py``
    imports at module level is read somewhere in that module."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # it imports to re-export
            continue
        tree = ast.parse(path.read_text())
        reads = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for top in tree.body:
            if isinstance(top, ast.ImportFrom) and top.module == "__future__":
                continue
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in top.names]
                unread += [f"{path.stem}: {name}" for name in bound if name not in reads]
    assert unread == []
