"""Layering lint over the package source.

Each module is parsed with ``ast`` and eleven rules are checked:

* rationals become integers in one place: ``math.lcm`` is called only in
  ``hyperreal.py`` (``hyperreal.scaled``);
* each rational is scaled once, where it enters: ``hyperreal.scaled`` is
  called only in ``hyperreal``, ``game`` and ``beliefs``, and at one
  site in ``dominance._justifier``, which spreads the LP's column masses
  over their groups; the simplex takes and returns integers, so ``lp``
  and the ray's mixture are scaled nowhere;
* the simplex stands alone: ``lp.py`` imports no prudens module;
* a mass's coefficients are decoded in one place: ``.coeffs`` is read only
  in ``hyperreal.py`` and ``beliefs.py``;
* Q[e] values are built only to be rendered or handed out, so the verify
  path computes in integer layers: ``Hyperreal(...)`` (or a
  ``Hyperreal.`` constructor) is called only in ``hyperreal.py``,
  ``beliefs.py`` and ``best_reply.py``;
* no module imports or reads another prudens module's underscore name;
* the simplex is asked in one place, since one LP answers both the
  justifier and the dominance question: ``lp.solve`` is called only
  inside ``dominance._justifier``;
* LP answers are read in one place: an LP answer exists only in a
  module that imports ``lp``, and there ``.reduced`` and ``.ray`` are
  read only inside ``dominance._justifier``, which takes its measure
  from the dual's reduced costs and its mixture from the dual's ray;
* a level's ``Columns`` is built in one module and handed on: the four
  id-level dominance questions take ``cols`` with no default, and
  ``Columns(...)`` is called only in ``dominance.py``;
* both strategic forms come from one walk of the tree: ``StrategicForm``
  reads none of ``path``, ``allows``, ``allowed_histories`` or
  ``strategies``, on any object, and no ``Game`` method that
  ``Game.reduced_form`` reaches through ``self`` reads ``strategies``;
* co-profile ids are encoded in one place: the form's mixed-radix
  ``_strides`` are read only in ``StrategicForm._coids``, which both the
  walk and ``co_restriction`` call, and no module reads a ``co_index``.

A twelfth rule keeps the soundness notes reachable: every section of
``docs/exactness.md`` that a citation names by title, from ``src/``,
``tests/`` or the README, or from inside the doc itself, is one of its
``##`` headings.
"""

import ast
import re
from pathlib import Path

import prudens

PACKAGE = Path(prudens.__file__).resolve().parent
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "exactness.md"


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


def hyperreal_calls(tree):
    """Lines of the calls in tree that build a Hyperreal: the class
    called by name or as a module attribute, or one of its
    constructors."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == "Hyperreal" \
                or getattr(func.value if isinstance(func, ast.Attribute)
                           else None, "id", None) == "Hyperreal":
            lines.append(node.lineno)
    return lines


def test_hyperreal_built_only_where_masses_are_rendered():
    found = ["%s.py:%d" % (stem, line) for stem, tree in trees()
             if stem not in ("hyperreal", "beliefs", "best_reply")
             for line in hyperreal_calls(tree)]
    assert not found, "Hyperreal built outside hyperreal, beliefs and " \
        "best_reply: %s" % found


def test_hyperreal_calls_are_found():
    assert hyperreal_calls(ast.parse(
        "Hyperreal(c)\nhyperreal.Hyperreal(c, 2)\nHyperreal.zero(3)\n"
        "isinstance(x, Hyperreal)\nx.coefficient(0)\n")) == [1, 2, 3]


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


class _Scoped(ast.NodeVisitor):
    """A visitor that knows the innermost function enclosing a node."""

    def __init__(self):
        self.functions = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def at(self, node):
        return self.functions[-1] if self.functions else None, node.lineno


class _CallSites(_Scoped):
    """(innermost enclosing function, line) of every call of ``name``
    from the prudens module ``module``, as ``module.name`` or by a name
    imported from it, and the line of every such import."""

    def __init__(self, module, name):
        super().__init__()
        self.module = module
        self.name = name
        self.aliases = set()
        self.calls = []
        self.imports = []

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == self.name
                and isinstance(func.value, ast.Name)
                and func.value.id == self.module) or (
                    isinstance(func, ast.Name) and func.id in self.aliases):
            self.calls.append(self.at(node))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if (node.module or "").split(".")[-1] != self.module:
            return
        for alias in node.names:
            if alias.name == self.name:
                self.imports.append(node.lineno)
                self.aliases.add(alias.asname or alias.name)


def test_lp_solved_only_by_the_two_questions():
    sites = set()
    found = []
    for stem, tree in trees():
        visitor = _CallSites("lp", "solve")
        visitor.visit(tree)
        found += ["%s.py:%d imports lp.solve" % (stem, line)
                  for line in visitor.imports]
        for function, line in visitor.calls:
            sites.add((stem, function))
            if (stem, function) != ("dominance", "_justifier"):
                found.append("%s.py:%d calls lp.solve in %s" % (
                    stem, line, function))
    assert not found, found
    assert sites == {("dominance", "_justifier")}


def test_solve_sites_are_found():
    visitor = _CallSites("lp", "solve")
    visitor.visit(ast.parse(
        "from .lp import solve\nlp.solve(p)\n"
        "def f():\n    def g():\n        return lp.solve(q)\n"))
    assert visitor.calls == [(None, 2), ("g", 5)]
    assert visitor.imports == [1]


class _AttributeReads(_Scoped):
    """(innermost enclosing function, line) of every read of the
    attribute ``name``."""

    def __init__(self, name):
        super().__init__()
        self.name = name
        self.reads = []

    def visit_Attribute(self, node):
        if node.attr == self.name and isinstance(node.ctx, ast.Load):
            self.reads.append(self.at(node))
        self.generic_visit(node)


def imports_lp(tree):
    """Whether tree imports the prudens module ``lp``."""
    return any(isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("prudens"))
               and ((node.module or "").split(".")[-1] == "lp"
                    or any(alias.name == "lp" for alias in node.names))
               for node in ast.walk(tree))


def _read_only_by_the_justifier(attribute):
    sites = set()
    found = []
    for stem, tree in trees():
        if stem != "lp" and not imports_lp(tree):
            continue
        visitor = _AttributeReads(attribute)
        visitor.visit(tree)
        for function, line in visitor.reads:
            sites.add((stem, function))
            if (stem, function) != ("dominance", "_justifier"):
                found.append("%s.py:%d reads .%s in %s" % (
                    stem, line, attribute, function))
    assert not found, found
    assert sites == {("dominance", "_justifier")}


def test_reduced_costs_read_only_by_the_justifier():
    _read_only_by_the_justifier("reduced")


def test_rays_read_only_by_the_justifier():
    _read_only_by_the_justifier("ray")


def test_attribute_reads_are_found():
    visitor = _AttributeReads("reduced")
    visitor.visit(ast.parse(
        "r.reduced\nr.reduced = 1\nLPResult(reduced=[])\n"
        "def f():\n    return g().reduced[1:]\n"))
    assert visitor.reads == [(None, 1), ("f", 5)]
    assert [imports_lp(ast.parse(text)) for text in (
        "from . import lp", "from .lp import solve", "from prudens import lp",
        "from . import dominance", "import lp")] == \
        [True, True, True, False, False]


SCALING_MODULES = ("hyperreal", "game", "beliefs")


def test_scaled_only_where_rationals_enter():
    found = []
    justifier_sites = 0
    for stem, tree in trees():
        if stem in SCALING_MODULES:
            continue
        visitor = _CallSites("hyperreal", "scaled")
        visitor.visit(tree)
        for function, line in visitor.calls:
            if (stem, function) == ("dominance", "_justifier"):
                justifier_sites += 1
            else:
                found.append("%s.py:%d calls scaled in %s" % (
                    stem, line, function))
    assert not found, found
    assert justifier_sites == 1


def test_lp_imports_nothing_from_prudens():
    tree = ast.parse(MODULES["lp"].read_text(encoding="utf-8"))
    found = [where("lp", node) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (
                 node.level or (node.module or "").startswith("prudens"))
             or isinstance(node, ast.Import) and any(
                 alias.name.startswith("prudens") for alias in node.names)]
    assert not found, "lp imports from prudens: %s" % found


def test_scaled_sites_are_found():
    visitor = _CallSites("hyperreal", "scaled")
    visitor.visit(ast.parse(
        "from .hyperreal import scaled as sc\nsc(x)\n"
        "def f():\n    return hyperreal.scaled(y) + scaled(z)\n"))
    assert visitor.calls == [(None, 2), ("f", 4)]
    assert visitor.imports == [1]


QUESTIONS = ("dominating_mixture_ids", "justifier_ids",
             "mixture_dominates_ids", "measure_justifies_ids")


def test_questions_take_their_levels_columns():
    found = []
    signatures = {}
    for stem, tree in trees():
        if stem == "dominance":
            signatures = {node.name: node.args for node in tree.body
                          if isinstance(node, ast.FunctionDef)
                          and node.name in QUESTIONS}
            continue
        found += ["%s builds Columns" % where(stem, node)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id",
                              getattr(node.func, "attr", None)) == "Columns"]
    assert set(signatures) == set(QUESTIONS)
    for name, args in signatures.items():
        names = [arg.arg for arg in args.args]
        # perfbench reads the leading four from every call it traces
        if names[:4] != ["form", "q_sets", "i", "sid"] or names[-1] != "cols":
            found.append("dominance.%s(%s)" % (name, ", ".join(names)))
        if args.defaults or args.kwonlyargs or args.vararg or args.kwarg:
            found.append("dominance.%s has optional arguments" % name)
    assert not found, found


def class_methods(tree, name):
    """Method name -> FunctionDef, for the class ``name`` in tree."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return {f.name: f for f in node.body
                    if isinstance(f, ast.FunctionDef)}
    return {}


def reached(methods, start):
    """``start`` and every method in ``methods`` that it calls as
    ``self.<name>(...)``, transitively."""
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for method in methods:
            visitor = _CallSites("self", method)
            visitor.visit(methods[name])
            if visitor.calls:
                todo.append(method)
    return seen


# Game methods that answer for one profile, plan or history, or list
# every plan
PER_PLAN = ("path", "allows", "allowed_histories", "strategies")


def test_forms_come_from_one_walk_of_the_tree():
    tree = ast.parse(MODULES["game"].read_text(encoding="utf-8"))
    form = class_methods(tree, "StrategicForm")
    game = class_methods(tree, "Game")
    found = []
    for name in PER_PLAN:
        for method in form.values():
            visitor = _AttributeReads(name)
            visitor.visit(method)
            found += ["game.py:%d reads .%s in StrategicForm.%s" % (
                line, name, method.name) for _, line in visitor.reads]
    sites = reached(game, "reduced_form")
    for name in sites:
        visitor = _AttributeReads("strategies")
        visitor.visit(game[name])
        found += ["game.py:%d reads .strategies in Game.%s" % (line, name)
                  for _, line in visitor.reads]
    assert not found, found
    # the walk is checked where it runs
    assert {"__init__", "_walk"} <= set(form)
    assert sites >= {"reduced_form", "_class_trees", "_representatives"}


def test_reached_methods_are_found():
    methods = class_methods(ast.parse(
        "class G:\n"
        "    def a(self):\n        return self.b(1) + other.c()\n"
        "    def b(self, x):\n        return [self.d() for _ in x]\n"
        "    def c(self):\n        return self.game.path(p)\n"
        "    def d(self):\n        return self.x\n"), "G")
    assert reached(methods, "a") == {"a", "b", "d"}
    visitor = _AttributeReads("path")
    visitor.visit(methods["c"])
    assert visitor.reads == [("c", 7)]


def co_id_encoders(tree):
    """(innermost enclosing function, line) of every read of ``_strides``
    in tree, and of every read of ``co_index``."""
    strides, index = _AttributeReads("_strides"), _AttributeReads("co_index")
    strides.visit(tree)
    index.visit(tree)
    return strides.reads, index.reads


def test_co_profile_ids_are_encoded_in_one_place():
    found = []
    for stem, tree in trees():
        strides, index = co_id_encoders(tree)
        found += ["%s.py:%d reads ._strides in %s" % (stem, line, function)
                  for function, line in strides
                  if (stem, function) != ("game", "_coids")]
        found += ["%s.py:%d reads .co_index" % (stem, line)
                  for _, line in index]
    assert not found, found
    tree = ast.parse(MODULES["game"].read_text(encoding="utf-8"))
    form = class_methods(tree, "StrategicForm")
    assert [function for function, _ in co_id_encoders(tree)[0]] == ["_coids"]
    # the walk and co_restriction share the encoder
    for caller in ("_walk", "co_restriction"):
        visitor = _AttributeReads("_coids")
        visitor.visit(form[caller])
        assert visitor.reads, caller


def test_co_id_encoders_are_found():
    strides, index = co_id_encoders(ast.parse(
        "form._strides[i]\nself._strides = s\n"
        "def f():\n    return form.co_index[i][co]\n"
        "def g():\n    for s in self._strides[i]:\n        pass\n"))
    assert strides == [(None, 1), ("g", 6)]
    assert index == [("f", 4)]


# A title in quotes, after the doc's name and a comma, or after "see"
# inside the doc.  A title may wrap, across comment lines too.
_CITED = re.compile(r'docs/exactness\.md,[\s#]*"([^"]+)"')
_SEE = re.compile(r'\bsee[\s#]+"([^"]+)"')


def cited_titles(text, pattern):
    """(line, title) per citation in text, a wrapped title joined by
    single spaces."""
    for match in pattern.finditer(text):
        title = " ".join(re.sub(r"\n\s*#", " ", match[1]).split())
        yield text.count("\n", 0, match.start()) + 1, title


def citations():
    """(file:line, title) for every title cited in the doc."""
    sources = [(path, _CITED) for folder in ("src", "tests")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    sources += [(ROOT / "README.md", _CITED), (DOC, _SEE)]
    for path, pattern in sources:
        for line, title in cited_titles(path.read_text(encoding="utf-8"),
                                        pattern):
            yield "%s:%d" % (path.relative_to(ROOT), line), title


def test_citations_wrap_across_comment_lines():
    text = ('x = 1\n    # as shown (docs/exactness.md,' ' "One belief\n'
            '    #   per justifier\n    # chain")\n')
    assert list(cited_titles(text, _CITED)) == [
        (2, "One belief per justifier chain")]
    assert list(cited_titles('(see\n  "Degree\n  budget")', _SEE)) == [
        (1, "Degree budget")]


def test_doc_citations_name_existing_sections():
    headings = {line[3:].strip() for line in
                DOC.read_text(encoding="utf-8").splitlines()
                if line.startswith("## ")}
    found = list(citations())
    missing = ["%s cites %r" % (where, title) for where, title in found
               if title not in headings]
    assert not missing, missing
    # the lint reads the package, the tests and the doc's own references
    assert {where.split("/")[0] for where, _ in found} >= {"src", "docs"}
    assert len(found) >= 8


def test_lint_sees_the_package():
    assert {"hyperreal", "beliefs", "best_reply", "lp", "game"} <= set(MODULES)
