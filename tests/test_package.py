import ast
import os
import sys

import btquot

SRC = os.path.dirname(os.path.abspath(btquot.__file__))

# module-level definitions that no package code names yet, each with the
# reason it stays: critical_group waits for the Jacobian of the quotient
UNREFERENCED_ALLOWED = {"critical_group"}

# methods that no package statement names, each with the reason it stays
UNREFERENCED_METHODS_ALLOWED = {
    # argparse calls it on a usage error
    "_Parser.error",
    # a public accessor with 30+ test call sites
    "Place.finite",
    # the series oracle the tests compare inexact series with
    "LaurentSeries.agrees_with",
}


def _module_trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_package_imports_only_the_standard_library():
    outside = []
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            for mod in mods:
                if mod.split(".")[0] not in sys.stdlib_module_names:
                    outside.append((name, node.lineno, mod))
    assert outside == []


def _names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_module_level_definition_is_named_in_the_package():
    # a definition counts as named when some other top-level statement of
    # the package names it, so recursion alone does not keep it alive
    defined = {}
    named_by = []
    for name, tree in _module_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = (name, node.lineno)
            named_by.append((getattr(node, "name", None), _names(node)))
    orphans = {
        k: where
        for k, where in defined.items()
        if not any(k in names for owner, names in named_by if owner != k)
    }
    assert sorted(orphans) == sorted(UNREFERENCED_ALLOWED), orphans


def test_every_method_is_named_in_the_package():
    # a non-dunder method counts as named when a package statement other
    # than its own body names it: a call, an attribute read or a reference
    methods = {}
    named_by = []
    for name, tree in _module_trees():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                named_by.append((None, _names(node)))
                continue
            for stmt in node.body:
                owner = None
                if isinstance(stmt, ast.FunctionDef):
                    owner = "%s.%s" % (node.name, stmt.name)
                    if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                        methods[owner] = (stmt.name, name, stmt.lineno)
                named_by.append((owner, _names(stmt)))
    orphans = {
        key: where
        for key, (method, *where) in methods.items()
        if not any(method in names for owner, names in named_by if owner != key)
    }
    assert sorted(orphans) == sorted(UNREFERENCED_METHODS_ALLOWED), orphans
