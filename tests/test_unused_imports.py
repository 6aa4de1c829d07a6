"""Every name a phinv module, test module or tool imports is used in that
module, and every name the package exports is used by the package.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by `import` or `from ... import` must appear as a name
somewhere else in the module. `__future__` imports are directives, and the
package `__init__` imports only to re-export, so both are exempt. A name in
`phinv.__all__` must be referenced, as a name or an attribute, in some
module other than `__init__`: an export only tests use belongs in
`tests/support.py`.
"""

import ast
import pathlib

import pytest

import phinv

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phinv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCANNED = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


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


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_injected_unused_import():
    source = (SRC / "runner.py").read_text(encoding="utf-8")
    assert MODULES and unused_imports(source) == []
    assert unused_imports("import os.path\nfrom .fock import basis_state\n" + source) == [
        "basis_state", "os",
    ]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.pi\n") == []


def referenced_names(source: str) -> set[str]:
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_export_is_used_inside_the_package():
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in MODULES))
    assert sorted(set(phinv.__all__) - used) == []
    assert "gauss_params" not in referenced_names("from .metric import gauss_params\n")
