"""The package's import graph keeps the verifier on the trusted kernel.

The verifier re-derives every engine decision, so it may only depend on
the kernel that defines those decisions once (model, omegace, trace),
never on the engine, the strategies or the harness.  The build layer sits
on the same kernel: the engine and the strategies import nothing else,
except that robinson takes ConstructionInvariantError from the engine.
The checks read the sources, so they hold without importing anything.
"""

import ast
import importlib
from pathlib import Path

import splitsim

from conftest import bench_module

PACKAGE = Path(splitsim.__file__).parent
KERNEL = {"model", "omegace", "trace"}


def package_imports(path: Path) -> set[str]:
    """The package modules a source file imports, relatively or by package name."""
    tree = ast.parse(path.read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "splitsim":
                parts = node.module.split(".")
                if len(parts) > 1:
                    found.add(parts[1])
                else:
                    found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "splitsim" and len(parts) > 1:
                    found.add(parts[1])
    return found


def imports_of(module: str) -> set[str]:
    return package_imports(PACKAGE / (module + ".py"))


def test_verifier_imports_only_the_kernel():
    assert imports_of("verify") <= KERNEL, imports_of("verify")


def test_kernel_layering():
    assert imports_of("model") == set()
    for module in KERNEL:
        assert imports_of(module) <= KERNEL - {module}, module


def test_build_layer_imports():
    """The engine and the strategies build on the kernel; robinson also takes
    ConstructionInvariantError from the engine, and no strategy imports the other."""
    assert imports_of("engine") <= KERNEL, imports_of("engine")
    assert imports_of("sacks") <= KERNEL, imports_of("sacks")
    assert imports_of("robinson") <= KERNEL | {"engine"}, imports_of("robinson")
    assert "robinson" not in imports_of("sacks") and "sacks" not in imports_of("robinson")


def private_imports(path: Path) -> list[str]:
    """Underscore names a source file imports from another package module."""
    tree = ast.parse(path.read_text())
    return [
        "%s.%s" % (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and (node.level == 1 or node.module.split(".")[0] == "splitsim")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name():
    """A rule two modules share lives under a public kernel name, not a borrowed private one."""
    found = {p.stem: private_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert not {m: names for m, names in found.items() if names}, found


def test_private_import_scan(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .model import _segments, cone_holds\n"
        "from splitsim.trace import _hidden\n"
        "from . import verify as _verify\n"
        "from __future__ import annotations\n"
    )
    assert private_imports(probe) == ["model._segments", "splitsim.trace._hidden"]


def test_import_scan_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import engine\n"
        "from .harness import run\n"
        "from splitsim.robinson import certify\n"
        "from splitsim import sacks\n"
        "import splitsim.cli\n"
        "import json\n"
    )
    assert package_imports(probe) == {"engine", "harness", "robinson", "sacks", "cli"}


def test_bench_patch_targets_exist():
    """Every name the benchmark's tracer wraps or counts resolves in the package."""
    spans = bench_module("spans")
    targets = spans.PATCHES + spans.COUNTED
    assert targets
    for module, cls, attr, _ in targets:
        owner = importlib.import_module("splitsim." + module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        assert callable(getattr(owner, attr, None)), (module, cls, attr)
