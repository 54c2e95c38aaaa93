"""No module in src/moelora imports a name it never uses (no linter runs on this tree), no
module-level name or class method is there for the tests alone unless it is listed with the plan
for it, and no settable value is added or removed without this file's table changing."""

import ast
import dataclasses
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "moelora"

# defined in src/moelora, read only by tests; each waits for the ROADMAP item that gives it a
# caller or deletes it (item 4)
TEST_ONLY = {
    "DivergenceError": "item 5: the train step raises it",
    "run_record": "items 5 and 13: the train step and the benchmark emit it",
    "set_backbone_trainable": "item 7: pretraining on task A calls it",
}


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


def package_imports(source: str) -> set[str]:
    """The moelora modules ``source`` imports, by relative or absolute name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # "from . import x" and "from .x import y" are moelora's
            module = ("moelora." if node.level else "") + (node.module or "")
            names += [f"{module.rstrip('.')}.{a.name}" for a in node.names]
    return {name.split(".")[1] for name in names if name.startswith("moelora.")}


# allocation is the plan's side of the package: it may use these modules and no other
ALLOCATION_MAY_IMPORT = {"errors", "utils"}


def test_allocation_imports_no_module_of_the_model_side():
    source = (SRC / "allocation.py").read_text()
    assert package_imports(source) <= ALLOCATION_MAY_IMPORT
    assert package_imports("from .errors import ConfigError\nfrom . import utils\n") == ALLOCATION_MAY_IMPORT


@pytest.mark.parametrize("line, module", [
    ("from .lora import ExpertRole", "lora"),
    ("from . import model", "model"),
    ("from .tensor import Tensor as T", "tensor"),
    ("import moelora.routing", "routing"),
    ("from moelora.lora import SCALE", "lora"),
    ("from moelora import tensor", "tensor"),
    ("def f():\n    from .model import Soft\n    return Soft", "model"),
])
def test_the_layering_guard_flags_an_injected_import(line, module):
    source = (SRC / "allocation.py").read_text()
    assert package_imports(line + "\n" + source) - ALLOCATION_MAY_IMPORT == {module}


def defined(source: str) -> set[str]:
    """Module-level functions, classes and constants of ``source``, and its classes' non-dunder methods."""
    out = set()
    for n in ast.parse(source).body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            out.add(n.name)
        if isinstance(n, ast.ClassDef):
            out.update(m.name for m in n.body if isinstance(m, ast.FunctionDef))
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in out if not name.startswith("__")}


def reads(source: str, strings: bool) -> set[str]:
    """Names ``source`` loads or reads as attributes, plus its string constants when ``strings``.

    An import or an ``__all__`` entry is not a read, and neither is a function's or a class's
    read of its own name inside its own definition, so a recursive orphan is still unread.
    """
    out = set()

    def visit(n, inside):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {n.name}
        name = None
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            name = n.id
        elif isinstance(n, ast.Attribute):
            name = n.attr
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            name = n.value
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(n):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return out


def unread_surface(package: dict[str, str], bench: list[str]) -> set[str]:
    """Names ``package`` (module name -> source) defines that neither it nor ``bench`` reads.

    The benchmark's string constants count as reads, because its tracer wraps names given as strings.
    """
    used = set().union(*(reads(src, False) for src in package.values()), *(reads(src, True) for src in bench))
    return set().union(*(defined(src) for src in package.values())) - used


def sources():
    return ({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))},
            [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))])


def test_no_name_is_there_for_the_tests_alone():
    package, bench = sources()
    assert len(package) >= 8 and len(bench) >= 5
    assert unread_surface(package, bench) == set(TEST_ONLY)


def test_the_guard_flags_an_injected_unread_function():
    package, bench = sources()
    package["lora.py"] += "\n\ndef orphan(x):\n    return x\n"
    assert unread_surface(package, bench) == set(TEST_ONLY) | {"orphan"}
    rorphan = "\n\ndef rorphan(x):\n    return rorphan(x - 1) if x else 0\n"
    recursive = {**package, "lora.py": package["lora.py"] + rorphan}
    assert unread_surface(recursive, bench) == set(TEST_ONLY) | {"orphan", "rorphan"}  # its own call is no read
    assert "rorphan" not in unread_surface(recursive, bench + ["rorphan(3)"])
    package["model.py"] += "\n__all__ = ['orphan']\nfrom .lora import orphan\n"
    assert "orphan" in unread_surface(package, bench)
    assert "orphan" not in unread_surface(package, bench + ["WRAPPED = 'orphan'"])
    assert "run_record" not in unread_surface(package, bench + ["print(model.run_record(m, g, mode))"])
    method = "\n    def orphan_method(self):\n        return self.orphan_method()\n"
    package["lora.py"] = package["lora.py"].replace("class LoraExpert:\n", "class LoraExpert:\n" + method, 1)
    package["routing.py"] += "\nORPHAN_CONST = 3\n"
    assert {"orphan_method", "ORPHAN_CONST"} <= unread_surface(package, bench)
    assert "orphan_method" not in unread_surface(package, bench + ["e.orphan_method()"])


# every value a caller can set, by class: a new option, or one removed, shows up in the diff of
# this table. 16 fields (17 with BackboneConfig.rmsnorm_eps, now the constant tensor.RMS_EPS;
# gamma moved from AllocationConfig to PowerLaw without changing the count)
SETTABLE = {
    "BackboneConfig": ["num_layers", "d_model", "n_heads", "d_ff", "vocab_size", "max_seq_len"],
    "AllocationConfig": ["num_layers", "n_min", "n_max", "base_experts_per_layer", "base_rank",
                         "specialist_ranks", "profile"],
    "PowerLaw": ["gamma"],
    "StepProfile": ["steps"],
    "TopK": ["k"],
}


def test_the_settable_values_are_pinned():
    from moelora import allocation, model

    classes = (model.BackboneConfig, allocation.AllocationConfig, allocation.PowerLaw, allocation.StepProfile,
               model.TopK)
    assert {c.__name__: [f.name for f in dataclasses.fields(c)] for c in classes} == SETTABLE
    assert sum(map(len, SETTABLE.values())) == 16
