"""Caller audit: every public function and class of the package has a caller.

A public module-level function or class that nothing in ``src/qshsim``
refers to, outside its own definition, is either an entry point called from
outside the package or dead code.  The entry points are listed below with
their reason; anything else found here belongs in the tests or nowhere.
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


def _uncalled_public_names() -> set:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
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
