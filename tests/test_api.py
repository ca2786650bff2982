"""Every public function, class and method of the package has a caller in
it, and importing the command line loads no module it does not need.

A public name that only tests reach either earns a caller in ``src`` or
goes.  Nothing in ``__init__.py`` counts, since it only re-exports.

- A module-level function or class is called when some module reads it as
  a bare name in load context, outside its own definition.  A stored name
  (a named-tuple field of the same name) or an attribute read does not count.
- A public method is called when some code reads an attribute of its name
  in load context, outside the method's own body.  The methods of the
  classes in ``UNCALLED`` are not checked.

The names below are kept for a caller that ROADMAP.md plans; each must
still lack one, so the list shrinks when that caller lands.
"""

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ferrers_lab"

UNCALLED = {
    "RatMatrix",  # item 1: the benchmark's tracer binds it by name
    "pendant_add",  # item 12: the pendant-vertex closure check
    "sigma_formula",  # item 15: ferrers-scan
    "ferrers_edge_invariance",  # item 15: ferrers-scan
    "ferrers_tree_identity",  # item 15: ferrers-scan
}


def _uncalled_public_names():
    """Public module-level names, and public methods as "Class.method",
    that no other code reads."""
    defined, names, attrs = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner, in_method = None, {}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.stem, stmt.name)
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = (names, owner)
            if isinstance(stmt, ast.ClassDef) and stmt.name not in UNCALLED:
                for fn in stmt.body:
                    if isinstance(fn, ast.FunctionDef):
                        method = owner + (fn.name,)
                        if not fn.name.startswith("_"):
                            defined["%s.%s" % (stmt.name, fn.name)] = (attrs, method)
                        in_method.update((id(node), method) for node in ast.walk(fn))
            for node in ast.walk(stmt):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name):
                    names.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    attrs.setdefault(node.attr, set()).add(in_method.get(id(node), owner))
    return {key for key, (readers, owner) in defined.items()
            if not readers.get(key.rpartition(".")[2], set()) - {owner}}


def test_every_public_name_has_a_caller():
    dead = sorted(_uncalled_public_names() - UNCALLED)
    assert not dead, "no caller in src: " + ", ".join(dead)


def test_kept_names_still_lack_a_caller():
    called = sorted(UNCALLED - _uncalled_public_names())
    assert not called, "caller landed or name gone, drop from UNCALLED: " + ", ".join(called)


#: modules that ``import ferrers_lab.cli`` must not load: ``dataclasses``
#: pulls in ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``),
#: while ``csv`` and ``glob`` serve only --format csv and --emit-graphs
NOT_AT_IMPORT = ("dataclasses", "inspect", "csv", "glob")


def test_cli_import_loads_no_unneeded_module():
    # a fresh interpreter, isolated from the environment, with src on the path
    code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import ferrers_lab.cli; "
            "print(sorted((set(sys.modules) - before) & set(%r)))"
            % (str(SRC.parent), NOT_AT_IMPORT))
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n", "import ferrers_lab.cli loaded " + out
