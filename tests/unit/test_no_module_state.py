"""Gate: no module under ``src/repro`` holds mutable state.

Every id sequence, RNG and container belongs to the object that owns what it
counts or draws (a marketplace's transaction sequence, an auction house's
auction sequence and RNG, a context's aglet ids), so two platforms built in
one process are independent values and a replay reproduces a run.  This test
walks the syntax tree of every source module and fails on:

- a module-level binding to ``itertools.count(...)``, ``random.Random(...)``
  or a ``collections`` container (``deque``, ``defaultdict``, ``OrderedDict``,
  ``Counter``, ``ChainMap``), however it was imported;
- any ``global`` statement;
- a list, dict or set literal (or comprehension) used as a parameter default.

Read-only constant tables bound at module level — ``TAXONOMY``,
``IMPLICIT_WEIGHTS`` and the like, plain literals no code writes to — are
allowed: they are configuration, not state.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SOURCE_ROOT = Path(repro.__file__).parent
SOURCES = sorted(SOURCE_ROOT.rglob("*.py"))

#: ``module.attribute`` constructors that create mutable module state.
STATEFUL_CONSTRUCTORS = {
    ("itertools", "count"),
    ("random", "Random"),
    ("collections", "deque"),
    ("collections", "defaultdict"),
    ("collections", "OrderedDict"),
    ("collections", "Counter"),
    ("collections", "ChainMap"),
}

MUTABLE_DEFAULTS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _imported_names(tree: ast.Module) -> dict:
    """Local name → (module, attribute) for ``from module import attribute``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def _module_aliases(tree: ast.Module) -> dict:
    """Local name → module for ``import module [as alias]``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    return aliases


def _constructor(call: ast.Call, imported: dict, aliases: dict):
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (aliases.get(func.value.id, func.value.id), func.attr)
    if isinstance(func, ast.Name):
        return imported.get(func.id)
    return None


def _module_level_statements(body):
    """Top-level statements, descending into module-level if/try/with blocks."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field, []):
                    if isinstance(child, ast.ExceptHandler):
                        yield from _module_level_statements(child.body)
                    else:
                        yield from _module_level_statements([child])


def violations(source: str, filename: str = "<source>") -> list:
    """Every module-state violation in ``source`` as ``file:line: reason``."""
    tree = ast.parse(source, filename)
    imported, aliases = _imported_names(tree), _module_aliases(tree)
    found = []

    for node in _module_level_statements(tree.body):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if isinstance(value, ast.Call):
                target = _constructor(value, imported, aliases)
                if target in STATEFUL_CONSTRUCTORS:
                    found.append(
                        f"{filename}:{node.lineno}: module-level {'.'.join(target)}()"
                    )

    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"{filename}:{node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            for default in [*arguments.defaults, *arguments.kw_defaults]:
                if isinstance(default, MUTABLE_DEFAULTS):
                    found.append(
                        f"{filename}:{default.lineno}: mutable parameter default "
                        f"({type(default).__name__.lower()})"
                    )
    return found


def test_the_walk_covers_every_package():
    packages = {path.parent.name for path in SOURCES}
    assert {"agents", "api", "core", "ecommerce", "platform"} <= packages


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(path.relative_to(SOURCE_ROOT)) for path in SOURCES]
)
def test_module_holds_no_mutable_state(path):
    assert violations(path.read_text(encoding="utf-8"), str(path)) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "import itertools\n_ids = itertools.count(1)\n",
        "from itertools import count\n_ids = count()\n",
        "import random as rnd\n_rng = rnd.Random(7)\n",
        "from random import Random\nif True:\n    _rng = Random(0)\n",
        "import collections\n_seen = collections.deque()\n",
        "from collections import defaultdict\n_by_id: dict = defaultdict(list)\n",
        "def bump():\n    global _n\n    _n = 1\n",
        "def f(items=[]):\n    return items\n",
        "def f(*, table={}):\n    return table\n",
        "class A:\n    def f(self, seen={1}):\n        return seen\n",
        "handler = lambda keys=[k for k in 'ab']: keys\n",
    ],
)
def test_the_gate_catches(snippet):
    assert len(violations(snippet)) == 1


@pytest.mark.parametrize(
    "snippet",
    [
        "TAXONOMY = {'books': {'scifi': ['dune']}}\n",
        "WEIGHTS = (('buy', 1.0), ('view', 0.2))\n",
        "import itertools\nclass Seq:\n    def __init__(self):\n"
        "        self._ids = itertools.count(1)\n",
        "import random\ndef draw(seed):\n    return random.Random(seed).random()\n",
        "def f(items=(), table=None):\n    return items, table\n",
    ],
)
def test_the_gate_allows(snippet):
    assert violations(snippet) == []
