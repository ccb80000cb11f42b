"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

import cesaro_copson

MODULES = sorted(p for p in Path(cesaro_copson.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, other than those it lists in
    ``__all__`` and those on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from a import (b,\n    c)\n"
              "from d import e  # noqa: F401\n"
              "__all__ = ['c']\n"
              "print(b)\n")
    assert unused_imports(source) == ["math (line 2)", "os (line 3)"]


CACHES = {"cache", "lru_cache"}


def unbounded_caches(source: str) -> list[str]:
    """Each use of ``functools.cache`` or ``functools.lru_cache`` (through
    the module or a name imported from it) that does not declare a finite
    ``maxsize``: a positive integer literal, first or by keyword.  A bare
    ``@lru_cache`` keeps the default size, which it does not declare."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}

    def cache_name(node):
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            return node.attr
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return names.get(node.id)
        return None

    bounded = {id(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and cache_name(node.func) == "lru_cache"
               and any(isinstance(x, ast.Constant) and type(x.value) is int and x.value > 0
                       for x in node.args[:1] + [k.value for k in node.keywords
                                                 if k.arg == "maxsize"])}
    found = sorted((node.lineno, name) for node in ast.walk(tree)
                   if (name := cache_name(node)) and id(node) not in bounded)
    return [f"{name} (line {line})" for line, name in found]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_cache_declares_a_finite_maxsize(path):
    assert unbounded_caches(path.read_text()) == []


def test_unbounded_caches_are_found():
    source = ("import functools\n"
              "from functools import lru_cache as lc, cache\n"
              "@functools.lru_cache(maxsize=64)\ndef a(x): return x\n"
              "@lc(32)\ndef b(x): return x\n"
              "@functools.lru_cache\ndef c(x): return x\n"
              "@functools.lru_cache(maxsize=None)\ndef d(x): return x\n"
              "@cache\ndef e(x): return x\n"
              "f = lc(None)(a)\n"
              "g = functools.cache(a)\n")
    assert unbounded_caches(source) == ["lru_cache (line 7)", "lru_cache (line 9)",
                                        "cache (line 11)", "lru_cache (line 13)",
                                        "cache (line 14)"]
