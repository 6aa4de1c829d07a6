"""Every name a phinv module imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by `import` or `from ... import` must appear as a name
somewhere else in the module. `__future__` imports are directives, and the
package `__init__` imports only to re-export, so both are exempt.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "phinv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_injected_unused_import():
    source = (SRC / "runner.py").read_text(encoding="utf-8")
    assert MODULES and unused_imports(source) == []
    assert unused_imports("import os.path\nfrom .fock import basis_state\n" + source) == [
        "basis_state", "os",
    ]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.pi\n") == []
