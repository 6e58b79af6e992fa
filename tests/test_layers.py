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


def test_strategies_decide_through_the_kernel_steps():
    """Each requirement step has one definition, the kernel's step
    function that the verifier calls too: neither strategy names the
    selection, agreement or membership test the steps are built on."""
    for module in ("sacks", "robinson"):
        tree = ast.parse((PACKAGE / (module + ".py")).read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names.update(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
        assert not names & {"agreement_length", "applicable_axiom", "member"}, module
        assert {"sacks": "sacks_step", "robinson": "robinson_step"}[module] in names, module


def test_selection_goes_through_the_record():
    """The axiom a table selects has one definition, the kernel's
    selection record: no package module defines or names
    applicable_axiom, and robinson, sacks and verify build their records
    with the kernel's selection and never read a table's rows for an
    input (axioms_for) themselves."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
        names.update(node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))
        names.update(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
        assert "applicable_axiom" not in names, path.stem
        if path.stem in ("robinson", "sacks", "verify"):
            assert "selection" in names and "axioms_for" not in names, path.stem


def test_liveness_is_decided_in_the_kernel():
    """A local definition's liveness has one rule, the kernel's
    GuessingIndices.live, which the strategy and the verifier both call:
    neither compares a stage against a definition's death or a cone's
    lifetime."""
    for module in ("robinson", "verify"):
        tree = ast.parse((PACKAGE / (module + ".py")).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                words = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                words.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))
                assert not words & {"death", "lifetime"}, (module, ast.unparse(node))
        calls = {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "live" in calls, module


def test_cone_truth_and_p_come_from_the_guessing_set_record():
    """A guessing set's cone truth and p's answers about it have one
    source, the kernel's GuessingSet record and the policy's spans over
    it: robinson and verify build the record and ask it and the policy,
    and name neither a per-string cone truth nor a first hit, nor call a
    policy's windows.  No package module names those per-string forms."""
    per_string = {"cone_truth", "first_hit", "p_row"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names.update(node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))
        names.update(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
        assert not names & per_string, (path.stem, names & per_string)
        if path.stem in ("robinson", "verify"):
            calls = {
                node.func.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            }
            assert "windows" not in calls, path.stem
            assert {"spans", "holds", "add"} <= calls, path.stem
            assert "GuessingSet" in names, path.stem


def private_imports(path: Path) -> list[str]:
    """Underscore names a source file imports from the package or one of its
    modules, then those it reads off a package module it imported, as
    attributes (dunders such as __name__ excepted there)."""
    tree = ast.parse(path.read_text())
    found = []
    modules = {}  # local name -> the package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level == 1 or (node.module or "").split(".")[0] == "splitsim"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append("%s.%s" % (node.module or "", alias.name))
                if node.module in (None, "splitsim"):
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if alias.asname and parts[0] == "splitsim" and len(parts) == 2:
                    modules[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ):
            found.append("%s.%s" % (modules[node.value.id], node.attr))
    return found


def test_no_module_imports_a_private_name():
    """A rule two modules share lives under a public kernel name, not a
    borrowed private one, whether imported by name or read off a module."""
    found = {p.stem: private_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert not {m: names for m, names in found.items() if names}, found


def test_private_import_scan(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .model import _segments, cone_holds\n"
        "from splitsim.trace import _hidden\n"
        "from . import verify as _verify\n"
        "from splitsim import engine, _x\n"
        "from . import __all__\n"
        "import splitsim.omegace as oc\n"
        "from __future__ import annotations\n"
        "_verify._replay(_verify.verify, oc.__name__)\n"
        "engine.Run._part_two, oc._private, other._free\n"
    )
    assert private_imports(probe) == [
        "model._segments", "splitsim.trace._hidden", "splitsim._x", ".__all__",
        "verify._replay", "omegace._private",
    ]


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
