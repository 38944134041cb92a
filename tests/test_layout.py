"""Caller and option audits of the package's public functions.

A public module-level function or class that nothing in ``src/qshsim``
refers to, outside its own definition, is either an entry point called from
outside the package or dead code.  The entry points are listed below with
their reason; anything else found here belongs in the tests or nowhere.

A defaulted parameter of a public function that no call in the package sets
has one value in use, and that value belongs in a constant.  Entry points
are exempt: their callers live outside the package.
"""

import ast
from pathlib import Path

import qshsim

PACKAGE = Path(qshsim.__file__).parent

#: public names without a caller in the package, each with its reason
ENTRY_POINTS = {
    "model.apply_time_reversal": "acceptance criterion 1 applies T to states",
    "model.time_reversal_check": "acceptance criterion 1 derives T symmetry",
    "topology.spin_chern": "acceptance criterion 4 derives Z2 from spin Chern",
    "topology.hofstadter_band_groups": "acceptance criterion 2 groups bands",
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


def _package_trees() -> dict:
    """{module name: parsed source} of every module of the package."""
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _uncalled_public_names() -> set:
    trees = _package_trees()
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[f"{module}.{node.name}"] = node
    # (name, owning top-level definition) of every name read in the package
    references = set()
    for tree in trees.values():
        for top in tree.body:
            if _is_main_guard(top):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    references.add((node.id, id(top)))
                elif isinstance(node, ast.Attribute):
                    references.add((node.attr, id(top)))
    return {
        qualified
        for qualified, node in defined.items()
        if not any(
            name == node.name and owner != id(node) for name, owner in references
        )
    }


def test_every_public_name_has_a_caller_or_is_an_entry_point():
    assert _uncalled_public_names() == set(ENTRY_POINTS)


#: defaulted parameters no call in the package sets, each with its reason
UNSET_OPTIONS = {
    "circuit.plaquette_plans.n0": "the flux-period test shifts the plaquette rows",
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


def _passes(call, position, name) -> bool:
    """Whether ``call`` sets the parameter: by position, keyword or ``**``."""
    if position is not None and position < len(call.args):
        return True
    return any(k.arg in (None, name) for k in call.keywords)


def _unset_options() -> set:
    trees = _package_trees()
    functions = {
        f"{module}.{node.name}": node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    # (called name, the call, owning top-level definition) of every call
    calls = [
        (getattr(node.func, "id", getattr(node.func, "attr", None)), node, id(top))
        for tree in trees.values()
        for top in tree.body
        if not _is_main_guard(top)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
    ]
    return {
        f"{qualified}.{name}"
        for qualified, node in functions.items()
        if qualified not in ENTRY_POINTS
        for position, name in _defaulted_parameters(node)
        if not any(
            called == node.name and owner != id(node) and _passes(call, position, name)
            for called, call, owner in calls
        )
    }


def test_every_option_is_set_by_a_caller():
    """A defaulted parameter no caller sets has one value in use: a constant."""
    assert _unset_options() == set(UNSET_OPTIONS)
