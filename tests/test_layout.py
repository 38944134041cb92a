"""Caller and option audits of the package's public functions.

A public module-level function or class, or a public method of such a
class, that nothing in ``src/qshsim`` refers to, outside its own
definition, is either an entry point called from outside the package or
dead code.  The entry points are listed below with their reason; anything
else found here belongs in the tests or nowhere.

The defaulted parameters of the other public functions, and the defaulted
fields of the public dataclasses, are audited in both directions against
the calls in the package.  A default that no call leaves in place is never
used, so the parameter is required; a parameter that no call sets has one
value in use, and that value belongs in a constant.  A call through ``**``
may set any parameter or none, so it counts as both setting and leaving
each one.  Entry points are exempt: their callers live outside the
package.

The package imports nothing beyond numpy, scipy and the standard library,
and only ``dynamics`` loads ``scipy.sparse`` when it is imported: the tasks
that never call it start without it, and ``config.normalize`` loads what a
run will import, so no run pays an import after it.
"""

import ast
import collections
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qshsim

PACKAGE = Path(qshsim.__file__).parent
ROOT = PACKAGE.parents[1]

#: public names without a caller in the package, each with its reason
ENTRY_POINTS = {
    "model.apply_time_reversal": "acceptance criterion 1 applies T to states",
    "model.time_reversal_check": "acceptance criterion 1 derives T symmetry",
    "topology.spin_chern": "acceptance criterion 4 derives Z2 from spin Chern",
    "topology.hofstadter_band_groups": "acceptance criterion 2 groups bands",
    "topology.bulk_gap_at": (
        "the benchmark's tracer test patches it in topology and edgestates"
    ),
    "topology.classify_point": (
        "the README tour and acceptance criterion 3 classify single points; "
        "phase_diagram classifies whole rows"
    ),
    "topology.z2_invariant": (
        "acceptance criterion 4 votes at given Fermi energies; rows vote from "
        "their shared level counts"
    ),
    "dynamics.lindblad_evolve": "the benchmark's tracer wraps it",
    "cli.main": "the command-line entry point",
}


def _is_main_guard(node) -> bool:
    """``if __name__ == "__main__":``, the script entry, not a caller."""
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


@functools.cache
def _package_trees() -> dict:
    """{module name: parsed source} of every module of the package."""
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _callers(trees: dict):
    """Each top-level definition of ``trees`` outside the script entry."""
    for tree in trees.values():
        for top in tree.body:
            if not _is_main_guard(top):
                yield top


def _public(nodes, prefix: str):
    """(qualified name, node) of each public function or class of ``nodes``."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield f"{prefix}.{node.name}", node


def _uncalled_public_names() -> set:
    trees = _package_trees()
    # (qualified name, node, whether a bare name may refer to it): a method
    # is read only as an attribute
    defined = []
    for module, tree in trees.items():
        for qualified, node in _public(tree.body, module):
            defined.append((qualified, node, True))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (name, method, False) for name, method in _public(node.body, qualified)
                    if isinstance(method, ast.FunctionDef)
                )
    # {(name, read as a bare name): the nodes that read it} over the package
    references = collections.defaultdict(set)
    for top in _callers(trees):
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                references[node.id, True].add(id(node))
            elif isinstance(node, ast.Attribute):
                references[node.attr, False].add(id(node))
    uncalled = set()
    for qualified, node, by_name in defined:
        readers = references[node.name, False] | (
            references[node.name, True] if by_name else set()
        )
        if not readers - {id(inner) for inner in ast.walk(node)}:
            uncalled.add(qualified)
    return uncalled


def test_every_public_name_has_a_caller_or_is_an_entry_point():
    assert _uncalled_public_names() == set(ENTRY_POINTS)


#: defaulted parameters every call in the package sets, each with the files
#: outside the package and its tests whose calls leave them
ALWAYS_SET_OPTIONS = {
    "runner.run.force": (
        "perfbench/workloads.py and perfbench/make_reference.py replay cached "
        "runs with run(cfg)"
    ),
}


def _defaulted_parameters(node) -> list:
    """(position or None, name) of each parameter of ``node`` with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    named = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return named + [
        (None, a.arg)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _is_dataclass(node) -> bool:
    """Whether class ``node`` is decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _defaulted_fields(node) -> list:
    """(position, name) of each field of dataclass ``node`` with a default."""
    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
    return [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]


def _called_name(call) -> str:
    """The name a call reads last: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _sets(call, position, name) -> bool:
    """Whether ``call`` names the parameter, by position or by keyword."""
    if position is not None and position < len(call.args):
        return True
    return any(k.arg == name for k in call.keywords)


def _spreads(call) -> bool:
    """Whether ``call`` passes a ``**`` mapping, which may set any parameter."""
    return any(k.arg is None for k in call.keywords)


@functools.cache
def _calls() -> list:
    """(called name, the call, owning top-level definition) of every call."""
    return [
        (_called_name(node), node, id(top))
        for top in _callers(_package_trees())
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
    ]


def _options() -> dict:
    """{function.parameter: (position, name, the calls of the function)} of the
    defaulted parameters of the public functions outside ``ENTRY_POINTS``,
    and likewise of the defaulted fields of the public dataclasses, whose
    calls are those of the class.

    A function's calls inside its own definition do not count.
    """
    options = {}
    for module, tree in _package_trees().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defaulted = _defaulted_parameters(node)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                defaulted = _defaulted_fields(node)
            else:
                continue
            qualified = f"{module}.{node.name}"
            if node.name.startswith("_") or qualified in ENTRY_POINTS:
                continue
            calls = [
                call
                for called, call, owner in _calls()
                if called == node.name and owner != id(node)
            ]
            for position, name in defaulted:
                options[f"{qualified}.{name}"] = (position, name, calls)
    return options


def _unset_options() -> set:
    return {
        option
        for option, (position, name, calls) in _options().items()
        if not any(_sets(c, position, name) or _spreads(c) for c in calls)
    }


def _always_set_options() -> set:
    return {
        option
        for option, (position, name, calls) in _options().items()
        if calls and all(_sets(c, position, name) and not _spreads(c) for c in calls)
    }


def test_every_option_is_set_by_a_caller():
    """A defaulted parameter no caller sets has one value in use: a constant."""
    assert _unset_options() == set()


def test_every_option_is_left_by_a_caller():
    """A default every caller overrides is never used: a required parameter."""
    assert _always_set_options() == set(ALWAYS_SET_OPTIONS)


def test_always_set_exceptions_name_callers_that_leave_them():
    """Each exception names files outside ``src/`` and ``tests/`` whose calls
    leave the parameter at its default."""
    options = _options()
    for option, reason in ALWAYS_SET_OPTIONS.items():
        position, name, _ = options[option]
        function = option.split(".")[1]
        paths = re.findall(r"\S+\.py", reason)
        assert paths, option
        for path in paths:
            assert Path(path).parts[0] not in ("src", "tests"), path
            tree = ast.parse((ROOT / path).read_text())
            assert any(
                _called_name(call) == function and not _sets(call, position, name)
                for call in ast.walk(tree)
                if isinstance(call, ast.Call)
            ), path


def test_imports_are_numpy_scipy_or_the_standard_library():
    allowed = {"numpy", "scipy"} | set(sys.stdlib_module_names)
    imported = set()
    for tree in _package_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    roots = {name.split(".")[0] for name in imported}
    assert "numpy" in roots  # the scan sees the package's imports
    assert roots - allowed == set()


def _top_level_imports(tree) -> set:
    """The modules a module imports when it is loaded, with each name of a
    ``from`` import as a submodule it may be."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_only_dynamics_imports_scipy_sparse_at_module_level():
    loading = {
        module
        for module, tree in _package_trees().items()
        if any(
            name == "scipy.sparse" or name.startswith("scipy.sparse.")
            for name in _top_level_imports(tree)
        )
    }
    assert loading == {"dynamics"}


#: normalizes and runs each config of the JSON list argv[2] in turn, into
#: argv[1]/<index>; prints the scipy modules each run added to sys.modules
#: and whether scipy.sparse was loaded at the end
FRESH_RUNS = """
import json, sys
from qshsim import config, runner
added = []
for index, data in enumerate(json.loads(sys.argv[2])):
    cfg = config.normalize(dict(data, output={"directory": f"{sys.argv[1]}/{index}"}))
    before = set(sys.modules)
    runner.run(cfg, force=True)
    added.append(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "scipy"))
print(json.dumps({"added": added, "sparse": "scipy.sparse" in sys.modules}))
"""

#: one light config of each task
TASK_CONFIGS = {
    "bands": {"bands": {"grid": [16, 16]}},
    "ribbon": {"ribbon": {}},
    "phase_diagram": {"phase_diagram": {
        "resolution": [16, 16], "bulk_grid": [16, 16], "ny_ribbon": 12, "kx_points": 101,
    }},
    "edge_states": {"edge_states": {}},
    "tones": {"tones": {}},
    "rwa_check": {"rwa_check": {}},
    "lindblad": {"lindblad": {"gammas": [0.0, 0.01], "t_us": 0.1}},
}


def _fresh_runs(tmp_path, tasks) -> dict:
    """FRESH_RUNS of the configs of ``tasks`` at alpha = 1/3, in a new interpreter."""
    configs = [{"alpha": "1/3", **TASK_CONFIGS[task]} for task in tasks]
    env = dict(
        os.environ, PYTHONPATH=str(PACKAGE.parent), QSH_CACHE_DIR=str(tmp_path / "cache")
    )
    child = subprocess.run(
        [sys.executable, "-c", FRESH_RUNS, str(tmp_path), json.dumps(configs)],
        capture_output=True, text=True, env=env, timeout=600, check=True,
    )
    return json.loads(child.stdout)


def test_tasks_without_sparse_work_never_load_scipy_sparse(tmp_path):
    tasks = ["bands", "ribbon", "phase_diagram", "tones", "rwa_check"]
    assert not _fresh_runs(tmp_path, tasks)["sparse"]


@pytest.mark.parametrize("task", sorted(TASK_CONFIGS))
def test_a_normalized_run_imports_no_scipy_module(tmp_path, task):
    """``normalize`` loads what the run imports, so a timed run pays none."""
    assert _fresh_runs(tmp_path, [task])["added"] == [[]]
