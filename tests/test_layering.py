"""Layering lint over the package source.

Each module is parsed with ``ast`` and three rules are checked:

* rationals become integers in one place: ``math.lcm`` is called only in
  ``hyperreal.py`` (``hyperreal.scaled``);
* a mass's coefficients are decoded in one place: ``.coeffs`` is read only
  in ``hyperreal.py`` and ``beliefs.py``;
* no module imports or reads another prudens module's underscore name.
"""

import ast
from pathlib import Path

import prudens

PACKAGE = Path(prudens.__file__).resolve().parent
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def trees():
    for stem, path in MODULES.items():
        yield stem, ast.parse(path.read_text(encoding="utf-8"), str(path))


def private(name):
    return name.startswith("_") and not name.endswith("__")


def where(stem, node):
    return "%s.py:%d" % (stem, node.lineno)


def test_lcm_only_in_hyperreal():
    found = []
    for stem, tree in trees():
        if stem == "hyperreal":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "lcm"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"):
                found.append(where(stem, node))
            if (isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(a.name == "lcm" for a in node.names)):
                found.append(where(stem, node))
    assert not found, "math.lcm outside hyperreal.scaled: %s" % found


def test_coefficients_read_only_by_hyperreal_and_beliefs():
    found = [where(stem, node) for stem, tree in trees()
             if stem not in ("hyperreal", "beliefs")
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "coeffs"]
    assert not found, ".coeffs read outside hyperreal and beliefs: %s" % found


def test_no_module_reaches_into_anothers_private_names():
    found = []
    for stem, tree in trees():
        modules = set()  # names bound to prudens modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").startswith("prudens")):
                continue
            for alias in node.names:
                if private(alias.name):
                    found.append("%s imports %s" % (where(stem, node),
                                                    alias.name))
                if alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
        found += ["%s reads %s.%s" % (where(stem, node), node.value.id,
                                      node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
    assert not found, found


def test_lint_sees_the_package():
    assert {"hyperreal", "beliefs", "best_reply", "lp", "game"} <= set(MODULES)
