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


def comment_above(lines: list[str], lineno: int) -> list[str]:
    """The comment lines right above line ``lineno``, nearest first."""
    out = []
    above = lineno - 2
    while above >= 0 and lines[above].lstrip().startswith("#"):
        out.append(lines[above])
        above -= 1
    return out


def kept_for_a_reader(lines: list[str], lineno: int) -> bool:
    """Whether the import at ``lineno`` is marked ``# noqa: F401`` and the
    comment above it names the file that reads the name."""
    if "# noqa: F401" not in lines[lineno - 1]:
        return False
    return any(READER.search(line) for line in comment_above(lines, lineno))


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


BENCH_LAYERS = "perfbench/bench_layers.py"


def wrapped_sites(tree: ast.Module) -> set[tuple[str, str]]:
    """Each ``(module, attribute)`` an entry of the module-level ``SITES``
    wraps, the module named by its ``<module>_mod`` alias."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets):
            return {(site.elts[0].id.removesuffix("_mod"), site.elts[1].value) for site in node.value.elts}
    return set()


def unwrapped_imports(module: str, source: str, wrapped: set[tuple[str, str]]) -> list[str]:
    """Each name ``module`` imports only for :data:`BENCH_LAYERS` (kept for
    a reader whose comment names that file) that no site of ``wrapped``
    wraps in ``module``."""
    lines = source.splitlines()
    return [
        f"{module}:{lineno}: {name}"
        for name, lineno in imported(ast.parse(source))
        if kept_for_a_reader(lines, lineno)
        and any(BENCH_LAYERS in line for line in comment_above(lines, lineno))
        and (module, name) not in wrapped
    ]


def test_every_import_kept_for_the_benchmark_is_wrapped():
    """An import the package keeps only so that the benchmark can wrap it
    (``agent``'s ``predict``, ``rollout`` and ``record_to_dict``,
    ``reflect``'s ``loss``) is wrapped by an entry of ``SITES`` in that
    module: a benchmark change that drops a site must drop its import."""
    with open(os.path.join(ROOT, *BENCH_LAYERS.split("/")), encoding="utf-8") as f:
        wrapped = wrapped_sites(ast.parse(f.read()))
    stale = []
    for path in MODULES:
        if path.startswith(DIRS[0] + os.sep):
            with open(os.path.join(ROOT, path), encoding="utf-8") as f:
                stale += unwrapped_imports(os.path.basename(path)[:-3], f.read(), wrapped)
    assert not stale, "kept for perfbench/bench_layers.py, which no longer wraps it: " + ", ".join(stale)


def test_an_import_the_benchmark_no_longer_wraps_is_found():
    """The check itself: of two names kept for the benchmark, the one no
    site wraps is caught; a name kept for another reader is not."""
    sites = ast.parse(
        "import causalloop.agent as agent_mod\n"
        "SITES = (\n    (agent_mod, 'predict', 'model.predict', None),\n)\n"
    )
    source = (
        "# Not called here: perfbench/bench_layers.py wraps both.\n"
        "from .model import predict, rollout  # noqa: F401\n"
        "# Not called here: tools/other.py reads it.\n"
        "from .core import loss  # noqa: F401\n"
    )
    assert wrapped_sites(sites) == {("agent", "predict")}
    assert unwrapped_imports("agent", source, wrapped_sites(sites)) == ["agent:2: rollout"]
