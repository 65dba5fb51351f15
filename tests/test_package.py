import ast
import os
import sys

import btquot

SRC = os.path.dirname(os.path.abspath(btquot.__file__))


def test_package_imports_only_the_standard_library():
    outside = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
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
