"""Every name a module of the package or of ``tools/`` imports is read.

No lint tool runs on this repository, so this test keeps its rule of no
import that nothing needs.  It parses each module with ``ast`` and fails on
an imported name the module never reads.  A name counts as read where it
is loaded anywhere in the module, where it is listed in ``__all__``, or
where a string annotation (``"ScenarioConfig"``) names it.  An import that
exists for a reader outside the module stays, but only on a line marked
``# noqa: F401`` under a comment that names that reader's file.

It also keeps the rule of no private code that nothing runs: every
module-level function and class of the package whose name starts with
``_`` must be read by some module of the package or of ``tools/``, by
name or as an attribute (``model._pack``).  A read from a test does not
count.
"""

from __future__ import annotations

import ast
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = (os.path.join("src", "causalloop"), "tools")
MODULES = sorted(
    os.path.join(d, name)
    for d in DIRS
    for name in os.listdir(os.path.join(ROOT, d))
    if name.endswith(".py")
)
# A comment that names the file of the reader an import is kept for.
READER = re.compile(r"#.*\b[\w/]+\.py\b")


def imported(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name an import binds, with its line; ``__future__`` imports bind
    no name a module reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    return out


def annotations(tree: ast.Module):
    """Every annotation in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                yield None if arg is None else arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree: ast.Module) -> set[str]:
    """The names the module loads, lists in ``__all__`` or names in a
    string annotation."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def kept_for_a_reader(lines: list[str], lineno: int) -> bool:
    """Whether the import at ``lineno`` is marked ``# noqa: F401`` and the
    comment above it names the file that reads the name."""
    if "# noqa: F401" not in lines[lineno - 1]:
        return False
    above = lineno - 2
    while above >= 0 and lines[above].lstrip().startswith("#"):
        if READER.search(lines[above]):
            return True
        above -= 1
    return False


@pytest.mark.parametrize("path", MODULES)
def test_every_imported_name_is_read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        source = f.read()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = read_names(tree)
    unused = [
        f"{path}:{lineno}: {name}"
        for name, lineno in imported(tree)
        if name not in read and not kept_for_a_reader(lines, lineno)
    ]
    assert not unused, "imported but never read: " + ", ".join(unused)


def test_an_unread_import_is_found():
    """The check itself: a name imported and never read is caught, one read
    in a string annotation or kept for a named reader is not."""
    source = (
        "import json\n"
        "from typing import Any, Sequence\n"
        "# Not called here: perfbench/bench_layers.py wraps os.\n"
        "import os  # noqa: F401\n"
        "import re  # noqa: F401\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return json\n"
    )
    tree = ast.parse(source)
    lines = source.splitlines()
    read = read_names(tree)
    unused = [name for name, lineno in imported(tree) if name not in read and not kept_for_a_reader(lines, lineno)]
    assert unused == ["Any", "re"]


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Each module-level function and class named with a leading ``_``
    (a dunder such as ``__getattr__`` is not private), with its line."""
    return [
        (node.name, node.lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def unread_definitions(package: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """Each private definition of the ``package`` modules (path to tree)
    that none of ``readers`` reads by name (:func:`read_names`) or as an
    attribute."""
    read: set[str] = set()
    for tree in readers:
        read |= read_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [
        f"{path}:{lineno}: {name}"
        for path, tree in package.items()
        for name, lineno in private_definitions(tree)
        if name not in read
    ]


def test_every_private_definition_is_read():
    trees = {}
    for path in MODULES:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            trees[path] = ast.parse(f.read())
    package = {path: tree for path, tree in trees.items() if path.startswith(DIRS[0] + os.sep)}
    unread = unread_definitions(package, list(trees.values()))
    assert not unread, "defined but never read outside the tests: " + ", ".join(unread)


def test_an_unread_private_definition_is_found():
    """The check itself: a private function or class read by name in its
    own module, through an import or as an attribute from a reader is not
    caught; one never read, or read only by a test, is, and a dunder is
    never private."""
    package = {
        "a.py": ast.parse(
            "def _used():\n    return 1\n"
            "def _unread():\n    return 2\n"
            "class _Spied:\n    pass\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
            "def public():\n    return _used()\n"
        ),
        "b.py": ast.parse("class _Tooled:\n    pass\ndef _imported():\n    pass\n"),
    }
    tool = ast.parse("import b\nfrom b import _imported\nb._Tooled()\n_imported()\n")
    # Only a test reads ``a._Spied``, and a test is not a reader.
    assert unread_definitions(package, [*package.values(), tool]) == ["a.py:3: _unread", "a.py:5: _Spied"]
