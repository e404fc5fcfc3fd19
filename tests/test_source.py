"""Rules the package source keeps, checked on its syntax trees."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qdm"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants are explicit raises: python -O strips every assert
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s has assert statements on lines %s" % (path.name, lines)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI process pays its imports; neither module is needed
    code = ("import sys, qdm.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _names(tree):
    """The names a syntax tree reads, looks up as attributes or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_module_function_has_a_caller():
    # a function only the tests or the package exports reach is code the
    # program does not need; the README's examples and the benchmark's
    # traced entry points count as callers
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    used = {name for tree in trees.values() for name in _names(tree)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
        used.update(_names(ast.parse(block)))
    layers = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    functions = next(ast.literal_eval(node.value) for node in layers.body
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets))
    used.update(name for names in functions.values() for name in names)
    unused = ["%s.%s" % (module, node.name) for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name not in used]
    assert not unused, "functions with no caller: %s" % unused


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_read(path):
    # __init__.py imports to re-export; every other module reads what it
    # imports, apart from the __future__ switch
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(imported - read)
    assert not unused, "%s imports %s without reading them" % (path.name, unused)
