"""Import layering: each module imports only from the modules below it.

The public surface holds only what something outside the unit tests reaches:
another library module, the bench, the acceptance criteria or the README.
Immutability and value equality are written once, in exactpoly's Frozen and
Value, and every value class inherits them.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import cuspdiff
from cuspdiff.classify import (GammaInterval, LinMaxIdeal, Orbit, WeightModule,
                               classify_bbA, classify_DA_torsion, normalize)
from cuspdiff.cuspops import (CuspShape, bbA_presentation, presentation,
                              structure_constant)
from cuspdiff.exactpoly import BasePoly, Frozen, Value
from cuspdiff.gwa import GwaPresentation, verify_presentation
from cuspdiff.modactions import (ExponentSet, LaurentVector, WeightSupport,
                                 cusp_mask)
from cuspdiff.skewlaurent import LaurentOp

LAYERS = ["exactpoly", "skewlaurent", "gwa", "cuspops", "modactions",
          "classify", "exprparse", "cli"]

ALLOWED_UPWARD = set()

PACKAGE = Path(cuspdiff.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def _relative_imports(module):
    """(target module, enclosing function or None) for each relative import."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.level:
                if child.module:
                    found.append((child.module.split(".")[0], func))
                else:
                    found.extend((alias.name, func) for alias in child.names)
            visit(child, func)

    visit(tree, None)
    return found


def test_every_module_is_layered():
    on_disk = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert on_disk == set(LAYERS)


def test_imports_point_down():
    upward = set()
    for rank, module in enumerate(LAYERS):
        for target, func in _relative_imports(module):
            assert target in LAYERS, (module, target)
            if LAYERS.index(target) >= rank:
                upward.add((module, target, func))
    assert upward == ALLOWED_UPWARD


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references(path):
    """Names a file reads, each outside the def or class that defines it."""
    used = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = enclosing | {child.name}
            if isinstance(child, ast.Name) and child.id not in inner:
                used.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in inner:
                used.add(child.attr)
            visit(child, inner)

    visit(ast.parse(path.read_text()), frozenset())
    return used


def test_every_export_is_reached():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "bench").glob("*.py")
    sources.append(ROOT / "tests" / "test_acceptance.py")
    reached = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in sources:
        reached |= _references(path)
    assert sorted(_exports() - reached) == []


# kept only because the bench calls or wraps them by name (ROADMAP.md, item 1)
_BENCH_ALIASES = {"weyl_membership", "phi_multi", "calA_presentation",
                  "bbA_presentation", "weyl_presentation"}


def test_library_calls_no_bench_alias():
    # no module of the package imports, calls or reads an alias the bench
    # alone keeps, nor GwaElement.coords or LaurentVector.coeffs, so
    # deleting them is a bench edit plus the deletions
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.stem, node.lineno, name) for name in names
                      if name in _BENCH_ALIASES
                      or name in ("coords", "coeffs")
                      and isinstance(node, ast.Attribute)]
    assert found == []


def _identifiers(node):
    """(line, name) of every name, attribute, imported name and string
    constant under node."""
    for child in ast.walk(node):
        if isinstance(child, ast.ImportFrom):
            yield from ((child.lineno, alias.name) for alias in child.names)
        elif isinstance(child, ast.Name):
            yield child.lineno, child.id
        elif isinstance(child, ast.Attribute):
            yield child.lineno, child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.lineno, child.value


def test_roots_are_recorded_only_where_built():
    # a polynomial records its roots where it is built from them or where a
    # search finds them: only exactpoly writes the slot, BasePoly's product
    # and shift neither read nor write it, and only classify, for
    # normalize's shared dense prefixes, reaches the dense helpers
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "exactpoly":
            continue
        for line, name in _identifiers(ast.parse(path.read_text())):
            if name == "_set_roots" or (
                    name in ("_from_dense", "_times_linear")
                    and path.stem != "classify"):
                found.append((path.stem, line, name))
    tree = ast.parse((PACKAGE / "exactpoly.py").read_text())
    base_poly, = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "BasePoly"]
    for method in base_poly.body:
        if isinstance(method, ast.FunctionDef) and method.name in (
                "__mul__", "shift"):
            found += [("BasePoly." + method.name, line, name)
                      for line, name in _identifiers(method)
                      if name in ("_roots", "_set_roots")]
    assert found == []


def _callee(call):
    """The name a call node calls: f(...) or obj.f(...)."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_ideals_are_written_from_their_roots():
    # exactpoly.render_ideal writes every ideal (h - r) from the digits of r:
    # no function renders a linear_factors result with render_poly, and only
    # exactpoly calls rational_roots (the others read _splitting's record)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)) and {
                    "linear_factors", "render_poly"} <= {
                    _callee(c) for c in ast.walk(node)
                    if isinstance(c, ast.Call)}:
                found.append((path.stem, node.lineno, "render_poly"))
            if (isinstance(node, ast.Call) and path.stem != "exactpoly"
                    and _callee(node) == "rational_roots"):
                found.append((path.stem, node.lineno, "rational_roots"))
    assert found == []


# what a loop over a sum's coefficients iterates, and what turns a number
# into digits
_TERMS = {"sorted_terms", "components", "support", "terms", "coeffs"}
_DIGITS = {"render_number", "_int_str"}


def _loops(node, func=None):
    """(enclosing function, iterated nodes, body nodes) of every for loop and
    comprehension under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        if isinstance(child, ast.For):
            yield inner, [child.iter], child.body
        elif isinstance(child, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                ast.DictComp)):
            parts = ([child.key, child.value] if isinstance(child, ast.DictComp)
                     else [child.elt])
            yield (inner, [g.iter for g in child.generators],
                   parts + [c for g in child.generators for c in g.ifs])
        yield from _loops(child, inner)


def test_coefficients_become_digits_in_one_reader():
    # exactpoly.coefficient_texts alone reads a sum's coefficients as digits:
    # render_sum, the --json rows and act's map take its texts, so a value
    # printed in text and --json reads each coefficient's digits once
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func, iters, body in _loops(ast.parse(path.read_text())):
            if _TERMS & {name for it in iters for _, name in _identifiers(it)} \
                    and _DIGITS & {name for part in body
                                   for _, name in _identifiers(part)}:
                found.add((path.stem, func))
    assert found == {("exactpoly", "coefficient_texts")}


# cuspops re-exports skewlaurent.phi: the package root and the bench read
# cuspops.phi (its import says so)
_REEXPORTS = {("cuspops", "phi")}


def test_no_unused_imports():
    # every module but the package root reads each name it imports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [(path.stem, node.lineno, name)
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in (alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
                   if name not in read and (path.stem, name) not in _REEXPORTS]
    assert unused == []


def _methods_by_class():
    """(class name, names of the functions its body defines), per class of
    the package."""
    return [(node.name, {f.name for f in node.body
                         if isinstance(f, ast.FunctionDef)})
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)]


def test_only_frozen_defines_setattr():
    assert [name for name, methods in _methods_by_class()
            if "__setattr__" in methods] == ["Frozen"]


def _shift_calls(tree):
    """The .shift( calls under an AST node."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "shift"]


def _definition(path, name):
    tree = ast.parse(path.read_text())
    found, = [node for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name == name]
    return tree, found


def test_skew_rule_is_written_once():
    # x^alpha d = sigma^alpha(d) x^alpha is monomial_product alone; gwa's
    # shifts on the GWA basis (sigma_power, sigma_of_a, gwa_multiply) are
    # another ring's rule
    tree, rule = _definition(PACKAGE / "skewlaurent.py", "monomial_product")
    inside = {id(node) for node in _shift_calls(rule)}
    assert len(inside) == 1
    assert [node.lineno for node in _shift_calls(tree)
            if id(node) not in inside] == []
    assert _shift_calls(ast.parse((PACKAGE / "exprparse.py").read_text())) == []
    assert _shift_calls(_definition(PACKAGE / "gwa.py", "Embedding")[1]) == []


def _power_walks(tree):
    """Walks of monomial_product under an AST node: a reduce over it, or a
    loop over a range or a while loop whose body calls it."""
    def calls(node, name):
        return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
                and name in (getattr(sub.func, "id", None),
                             getattr(sub.func, "attr", None))]

    found = [node for node in calls(tree, "reduce") if node.args
             and isinstance(node.args[0], ast.Name)
             and node.args[0].id == "monomial_product"]
    for node in ast.walk(tree):
        ranged = (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                  and isinstance(node.iter.func, ast.Name)
                  and node.iter.func.id == "range")
        if ((ranged or isinstance(node, ast.While))
                and calls(node, "monomial_product")):
            found.append(node)
    return found


def test_power_rule_is_written_once():
    # the power of a monomial is skewlaurent.monomial_power alone: its walk
    # is the package's only one, and the parser and Embedding.image call it
    tree, rule = _definition(PACKAGE / "skewlaurent.py", "monomial_power")
    inside = {id(node) for node in _power_walks(rule)}
    assert len(inside) == 1
    found = [(path.stem, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _power_walks(tree if path.stem == "skewlaurent"
                                      else ast.parse(path.read_text()))
             if id(node) not in inside]
    assert found == []
    assert "monomial_power" in _references(PACKAGE / "exprparse.py")
    image = _definition(PACKAGE / "gwa.py", "Embedding")[1]
    assert any(isinstance(node, ast.Name) and node.id == "monomial_power"
               for node in ast.walk(image))


def _unit_spellings(tree):
    """Hand spellings of a unit vector under an AST node: a `... if a == b
    else 0` conditional, or a `v = [0] * n` list stored at one index, once
    and outside a loop."""
    found = [node for node in ast.walk(tree) if isinstance(node, ast.IfExp)
             and isinstance(node.test, ast.Compare)
             and [type(op) for op in node.test.ops] == [ast.Eq]
             and isinstance(node.orelse, ast.Constant)
             and node.orelse.value == 0]
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        looped = {id(node) for loop in ast.walk(func)
                  if isinstance(loop, (ast.For, ast.While))
                  for node in ast.walk(loop)}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Mult)
                    and ast.unparse(node.value.left) == "[0]"):
                continue
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            stores = [sub for sub in ast.walk(func)
                      if isinstance(sub, ast.Subscript)
                      and isinstance(sub.ctx, ast.Store)
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id in names]
            if len(stores) == 1 and id(stores[0]) not in looped:
                found.append(node)
    return found


def test_unit_degree_is_written_once():
    # the degree k e_i is skewlaurent.unit alone: no other function spells
    # it out by hand
    unit_tree, rule = _definition(PACKAGE / "skewlaurent.py", "unit")
    inside = {id(node) for node in ast.walk(rule)}
    trees = {path.stem: unit_tree if path.stem == "skewlaurent"
             else ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    found = [(stem, node.lineno) for stem, tree in trees.items()
             for node in _unit_spellings(tree) if id(node) not in inside]
    assert found == []


def test_parser_reads_generators_from_the_embedding():
    # X and Y and their powers are images under cuspops' one embedding per
    # named algebra, never rebuilt from the generator pairs
    assert "generator_pair" not in _references(PACKAGE / "exprparse.py")


def test_only_cuspops_reads_the_embedding_table():
    # the table of canonical embeddings is keyed in cuspops alone; every
    # other module of the package reaches it through cuspops.embedding
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.stem, node.lineno) for name in names
                      if name == "_canonical" and path.stem != "cuspops"]
    assert found == []


def _callers(tree, name):
    """The functions under tree that call name, once per call."""
    return [func.name for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == name]


def test_only_the_quotient_action_checks_membership():
    # the module sweeps read the shape's own roots, never an operator from
    # outside; only act_on_quotient takes one
    tree = ast.parse((PACKAGE / "modactions.py").read_text())
    assert _callers(tree, "membership") == ["act_on_quotient"]


def _escape_comprehensions(tree):
    """Comprehensions under tree whose element is a sum of two terms and
    the constant 1, as the escape rule's k + i + 1 is."""
    def terms(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return terms(node.left) + terms(node.right)
        return [node]

    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp))
            for parts in [terms(node.elt)] if len(parts) == 3
            and sum(isinstance(p, ast.Constant) and p.value == 1
                    for p in parts) == 1]


def test_escape_rule_is_written_once():
    # which monomials c(h) x^i moves out of a set is ExponentSet.escape_roots
    # alone: vanishing_roots, stability_check and the link walks read it,
    # and modactions acts on vectors only in act and act_on_quotient
    tree, rule = _definition(PACKAGE / "skewlaurent.py", "escape_roots")
    inside = {id(node) for node in _escape_comprehensions(rule)}
    assert len(inside) == 1
    found = [(path.stem, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _escape_comprehensions(
                 tree if path.stem == "skewlaurent"
                 else ast.parse(path.read_text()))
             if id(node) not in inside]
    assert found == []
    tree = ast.parse((PACKAGE / "modactions.py").read_text())
    assert set(_callers(tree, "act")) <= {"act", "act_on_quotient"}
    assert "_saturation" not in {node.name for node in ast.walk(tree)
                                 if isinstance(node, ast.FunctionDef)}


def test_value_equality_is_written_once():
    own = [name for name, methods in _methods_by_class()
           if methods & {"__eq__", "__hash__"}]
    # RingOps compares and hashes every sum through its coercion, GWA
    # elements included: their presentation refines equality, not the hash
    assert sorted(own) == ["RingOps", "Value"]


def test_sum_body_is_written_once():
    # sums, negation, is_zero and the arity check are RingOps's alone; the
    # `__add__ = __radd__ = RingOps.__add__` rebinds are assignments, not
    # defs, and GwaElement's _like attaches the presentation
    owners = {name: sorted(methods & {"__add__", "__neg__", "is_zero",
                                      "_check_arity", "_like"})
              for name, methods in _methods_by_class()}
    assert {name: found for name, found in owners.items() if found} == {
        "RingOps": ["__add__", "__neg__", "_check_arity", "_like", "is_zero"],
        "GwaElement": ["_like"]}


def test_only_cli_main_prints_or_fails():
    # handlers return (exit code, payload, lines) and raise ValueError for
    # usage errors; main alone writes stdout and calls parser.error
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main, = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "main"]
    in_main = {id(node) for node in ast.walk(main)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            found += [("parser parameter", getattr(node, "name", "lambda"))
                      for a in ast.walk(node.args)
                      if isinstance(a, ast.arg) and a.arg == "parser"]
        if isinstance(node, ast.Call) and id(node) not in in_main:
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                found.append(("print", node.lineno))
            if isinstance(node.func, ast.Attribute) and node.func.attr == "error":
                found.append((".error", node.lineno))
    assert found == []


def _h():
    return BasePoly(1, {(1,): 1})


# one instance per concrete Frozen class; a Value factory called twice gives
# two distinct objects with equal fields
_FROZEN = {
    "BasePoly": _h,
    "LaurentOp": lambda: LaurentOp(1, {(2,): _h()}),
    "GwaElement": lambda: GwaPresentation([_h()], [1]).basis((1,)),
    "LaurentVector": lambda: LaurentVector(1, {(1,): 2}),
    "GradedMask": lambda: cusp_mask(2),
    "WeightModule": lambda: WeightModule(
        _h(), 1, GammaInterval(Orbit(0), LinMaxIdeal(-1), LinMaxIdeal(0)),
        (0,)),
    "Embedding": lambda: presentation(2, "calA")[1],
    "CuspShape": lambda: CuspShape((2, 3)),
    "ExponentSet": lambda: ExponentSet(points=(0,), ge=2),
    "WeightSupport": lambda: WeightSupport(ExponentSet(points=(1,), ge=3)),
    "LinMaxIdeal": lambda: LinMaxIdeal(Fraction(1, 2)),
    "Orbit": lambda: Orbit(Fraction(5, 2)),
    "GammaInterval": lambda: GammaInterval(
        Orbit(0), LinMaxIdeal(0), LinMaxIdeal(3)),
    "GwaPresentation": lambda: GwaPresentation([_h()], [2]),
    "StructureRelation": lambda: structure_constant(2, -1, -3),
    "ClassifiedModule": lambda: classify_bbA(2)[1],
    "TorsionClassification": lambda: classify_DA_torsion(3),
    "NormalizationResult": lambda: normalize(
        bbA_presentation(2)[0].element({(0,): _h(), (-1,): _h()})),
    "GwaReport": lambda: verify_presentation(GwaPresentation([_h()], [1]),
                                             depth=1),
}

_PRIVATE_BASES = {"Value", "RingOps", "Graded"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_class_is_checked():
    concrete = {c.__name__ for c in _subclasses(Frozen)
                if c.__module__.startswith("cuspdiff.")} - _PRIVATE_BASES
    assert concrete == set(_FROZEN)


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_frozen_instances(name):
    obj = _FROZEN[name]()
    assert type(obj).__name__ == name
    assert not hasattr(obj, "__dict__")
    for attr in (type(obj).__slots__ or ("nvars",)) + ("extra",):
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            setattr(obj, attr, None)
    if isinstance(obj, Value):
        twin = _FROZEN[name]()
        assert twin is not obj
        assert twin == obj and hash(twin) == hash(obj)
        assert not twin != obj
        assert obj in {twin}


def test_value_constructor_takes_one_value_per_field():
    roots = ExponentSet(ge=1)
    assert WeightSupport(roots).roots is roots
    for values in ((), (roots, roots)):
        with pytest.raises(TypeError, match="^WeightSupport has 1 fields, "
                                            "got %d values$" % len(values)):
            WeightSupport(*values)


def test_values_of_different_classes_differ():
    assert Orbit(0) != LinMaxIdeal(0)
    assert CuspShape(2) != (2,)
    assert CuspShape(2) == CuspShape((2,))
    assert CuspShape(2) != CuspShape(3)
    assert GwaPresentation([_h()], [1]) != GwaPresentation([_h()], [2])
