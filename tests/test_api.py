"""Every public function and class of the package has a caller in it.

A module-level public name that only tests reach either earns a caller in
``src`` or goes.  A reference is any name or attribute read outside the
name's own definition, in any module but ``__init__.py``, which only
re-exports.  The names below are kept for a caller that ROADMAP.md plans;
each must still lack one, so the list shrinks when that caller lands.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ferrers_lab"

UNCALLED = {
    "RatMatrix",  # item 1: the benchmark's tracer binds it by name
    "graph_from_code",  # item 16: a --code input beside --graph
    "pendant_add",  # item 12: the pendant-vertex closure check
    "sigma_formula",  # item 15: ferrers-scan
    "ferrers_edge_invariance",  # item 15: ferrers-scan
    "ferrers_tree_identity",  # item 15: ferrers-scan
}


def _uncalled_public_names():
    """Public module-level functions and classes that no other code reads."""
    defined, readers = {}, {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.stem, stmt.name)
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = owner
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(owner)
    return {name for name, owner in defined.items()
            if not readers.get(name, set()) - {owner}}


def test_every_public_name_has_a_caller():
    dead = sorted(_uncalled_public_names() - UNCALLED)
    assert not dead, "no caller in src: " + ", ".join(dead)


def test_kept_names_still_lack_a_caller():
    called = sorted(UNCALLED - _uncalled_public_names())
    assert not called, "caller landed or name gone, drop from UNCALLED: " + ", ".join(called)
