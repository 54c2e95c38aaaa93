"""No module in src/moelora imports a name it never uses (no linter runs on this tree)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "moelora"


def unused_imports(source: str) -> list[str]:
    """Imported names that ``source`` never reads, skipping ``# noqa: F401`` lines and ``__all__``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_every_import_in_the_package_is_used():
    found = {p.name: unused_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(found) >= 8
    assert {name: dead for name, dead in found.items() if dead} == {}


def test_the_guard_flags_an_injected_dead_import():
    source = (SRC / "lora.py").read_text()
    assert unused_imports(source) == []
    assert unused_imports("import numpy as np\n" + source) == ["np (line 1)"]
    assert unused_imports("from .tensor import matmul\n" + source) == ["matmul (line 1)"]
    assert unused_imports("from .tensor import matmul  # noqa: F401\n" + source) == []
    assert unused_imports("import os\n__all__ = ['os']\n") == []
