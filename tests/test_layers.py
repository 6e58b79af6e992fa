"""The package's import graph keeps the verifier on the trusted kernel.

The verifier re-derives every engine decision, so it may only depend on
the kernel that defines those decisions once (model, omegace, trace),
never on the engine, the strategies or the harness.  The build layer sits
on the same kernel: the engine and the strategies import nothing else,
except that robinson takes ConstructionInvariantError from the engine.
The checks read the sources, so they hold without importing anything,
except one that runs two corpus documents to show that the p policy the
strategy and the verifier share keeps no run state.
"""

import ast
import copy
import dataclasses
import importlib
from pathlib import Path

import pytest

import splitsim
from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.scenario import Scenario, load_scenario
from splitsim.verify import passed, verify

from conftest import CORPUS_MAX_HORIZON, CORPUS_SEED, bench_module

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


def test_selection_has_one_lookup():
    """A table's selection record has one lookup, binary or unary: the
    kernel's selection defines exactly one nested function."""
    tree = ast.parse((PACKAGE / "model.py").read_text())
    (select,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "selection"
    ]
    nested = [
        node
        for node in ast.walk(select)
        if node is not select and isinstance(node, (ast.FunctionDef, ast.Lambda))
    ]
    assert len(nested) == 1, [getattr(node, "name", "lambda") for node in nested]


def last_ends(tree) -> list[str]:
    """Every read of a list's last pair's end, x[-1][1], in a parsed source."""
    def constant(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = constant(node.operand)
            return None if inner is None else -inner
        return node.value if isinstance(node, ast.Constant) else None

    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and constant(node.slice) == 1
        and isinstance(node.value, ast.Subscript)
        and constant(node.value.slice) == -1
    ]


def test_the_settled_verdict_is_decided_in_the_kernel():
    """Whether p has settled on a guessing set has one rule, the kernel's
    p_settled: robinson and verify call it, and neither reads the end of
    a span list's last span itself."""
    for module in ("robinson", "verify"):
        tree = ast.parse((PACKAGE / (module + ".py")).read_text())
        calls = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "p_settled" in calls, module
        assert last_ends(tree) == [], module


def test_last_end_scan():
    tree = ast.parse("spans[-1][1] == h\nrows[-1][0]\nrows[1][1]\nrows[0][-1]\nones[-1][1]\n")
    assert sorted(last_ends(tree)) == ["ones[-1][1]", "spans[-1][1]"]


def test_trace_lines_have_one_append():
    """A trace line is appended to the run's events and nowhere else: no
    package module defines or calls an emit."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
        assert "emit" not in names, path.stem


def test_d_policy_is_one_budget():
    """The D policy is one number on the scenario, d_limit."""
    names = {f.name for f in dataclasses.fields(Scenario)}
    assert "d_limit" in names
    assert not names & {"d_policy", "d_policy_limit"}


def names_in(path: Path) -> set[str]:
    """Every name, attribute, definition and imported name a source file holds."""
    tree = ast.parse(path.read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    names.update(
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    )
    names.update(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    names.update(
        node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword) and node.arg
    )
    return names


def test_p_policy_is_built_once_by_the_loader():
    """p has one form, the policy the loader builds as Scenario.p_policy:
    no package module names a policy kind and parameters or a builder."""
    for path in sorted(PACKAGE.glob("*.py")):
        found = names_in(path) & {"build_policy", "p_policy_kind", "p_policy_params"}
        assert not found, (path.stem, found)
    assert "p_policy" in {f.name for f in dataclasses.fields(Scenario)}


def test_verifier_keeps_no_second_records():
    """A W string's first stage lives in its GuessingSet record, and V9
    asks the selection record itself: verify assigns no w_seen or
    selected attribute."""
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    assigned = {
        target.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
    }
    assert "w_sets" in assigned
    assert not assigned & {"w_seen", "selected"}


@pytest.mark.parametrize("kind", ["truthful_delay", "table"])
def test_a_run_leaves_the_p_policy_unchanged(kind):
    """The strategy and the verifier share the scenario's one policy, which
    holds no state: a run and its verify leave its attributes as loaded,
    on the first corpus Robinson document of each policy kind that scans."""
    for i in range(500):
        doc = generate(CORPUS_SEED, i, "robinson", CORPUS_MAX_HORIZON)
        if doc["p_policy"]["type"] != kind:
            continue
        sc = load_scenario(doc)
        before = copy.deepcopy(vars(sc.p_policy))
        events, final = run(sc)
        if any(ev.kind in ("certify", "refuse-certify") for ev in events):
            break
    assert passed(verify(sc, events, final))
    assert any(ev.kind in ("certify", "refuse-certify") for ev in events)
    assert vars(sc.p_policy) == before


WAKE_STATE = {"awake", "reach"}
MUTATORS = {"add", "update", "discard", "remove", "pop", "popitem", "clear", "setdefault"}


def wake_state_writes(path: Path) -> list[str]:
    """Writes a source file makes to a wake record's awake set or reaches:
    assignments to the attributes, stores into them, and mutating calls
    on them or on a local name bound to one of them."""
    tree = ast.parse(path.read_text())

    def held(node):
        return isinstance(node, ast.Attribute) and node.attr in WAKE_STATE

    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                aliases.update(t.id for t, v in pairs if isinstance(t, ast.Name) and held(v))

    def state(node):
        return held(node) or (isinstance(node, ast.Name) and node.id in aliases)

    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            parts = target.elts if isinstance(target, ast.Tuple) else [target]
            if any(held(p) or (isinstance(p, ast.Subscript) and state(p.value)) for p in parts):
                found.append(ast.unparse(node))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and state(node.func.value)
        ):
            found.append(ast.unparse(node))
    return found


def test_only_the_kernel_writes_the_wake_state():
    """The wake rules have one definition, the kernel's wake record: no
    package module names schedule_wakes, and none but model writes an
    awake set or a reach.  The engine calls the record's events and the
    strategies call its sleep."""
    for path in sorted(PACKAGE.glob("*.py")):
        assert "schedule_wakes" not in path.read_text(), path.stem
        if path.stem != "model":
            assert wake_state_writes(path) == [], path.stem
    assert wake_state_writes(PACKAGE / "model.py")


def test_wake_state_write_scan(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "awake, other = run.wakes.awake, 1\n"
        "awake.add(owner)\n"
        "run.wakes.reach[owner] = 3\n"
        "self.awake = set()\n"
        "wakes.awake.update(owners)\n"
        "if owner in awake and wakes.reach.get(owner): wakes.sleep(owner, 2)\n"
        "other.add(owner)\n"
    )
    assert sorted(wake_state_writes(probe)) == [
        "awake.add(owner)", "run.wakes.reach[owner] = 3", "self.awake = set()",
        "wakes.awake.update(owners)",
    ]


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
