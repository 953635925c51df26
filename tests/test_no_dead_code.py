"""Every top-level def and class of the package has a caller in the package.

A definition counts as used when some module of ``src/contactbetti``
loads its name, outside the definition's own body, where that name is
bound to it: defined in that module, or imported with ``from .module
import name`` (possibly through another module's import).  An import
alone is no use: a name imported only to be re-exported must be listed
in the package ``__all__``.  ``cli.main`` is the console script.

A method of a package class counts as used when some module loads an
attribute of that name outside the method's own body.  Dunder methods and
overrides of a base class's method are called by the machinery that
defines them, so they are exempt.  A class field, annotated (a
NamedTuple field) or an entry of the class's ``__slots__``, counts as
read by the same rule: some module loads an attribute of its name.
"""
import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "contactbetti"
ENTRY_POINTS = {"cli.main"}


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _scan():
    """Top-level definitions, name bindings and name loads per module."""
    trees = _trees()
    defs, binds, exported = {}, {}, set()
    for module, tree in trees.items():
        bound = binds.setdefault(module, {})
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs["%s.%s" % (module, node.name)] = node
                bound[node.name] = (module, node.name)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                exported.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module,
                                                         alias.name)
    loads = [(module, node) for module, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
    return defs, binds, loads, exported


def _resolve(binds, module, name):
    seen = set()
    while (module, name) not in seen:
        seen.add((module, name))
        target = binds.get(module, {}).get(name)
        if target is None or target == (module, name):
            break
        module, name = target
    return "%s.%s" % (module, name)


def unused_definitions():
    defs, binds, loads, exported = _scan()
    loaded = {}  # definition -> ids of the Name nodes that load it
    for module, node in loads:
        key = _resolve(binds, module, node.id)
        loaded.setdefault(key, set()).add(id(node))
    unused = []
    for key, node in defs.items():
        if node.name in exported or key in ENTRY_POINTS:
            continue
        own = {id(n) for n in ast.walk(node)}
        if not loaded.get(key, set()) - own:
            unused.append(key)
    return unused


def _attribute_loads(trees):
    loads = {}  # attribute name -> ids of the nodes that load it
    for tree in trees.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                loads.setdefault(node.attr, set()).add(id(node))
    return loads


def _field_names(node):
    """The field names a class-body statement declares: an annotated name,
    or the entries of ``__slots__``."""
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    if (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets)):
        return list(ast.literal_eval(node.value))
    return []


def class_fields(trees):
    """module.Class.field for every field of a package class."""
    return ["%s.%s.%s" % (module, cls.name, name)
            for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            for name in _field_names(node)]


def unused_fields():
    trees = _trees()
    loads = _attribute_loads(trees)
    return [key for key in class_fields(trees)
            if key.rsplit(".", 1)[1] not in loads]


def unused_methods():
    trees = _trees()
    loads = _attribute_loads(trees)
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module("contactbetti." + module),
                            cls.name).__mro__[1:]
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                        or node.name.startswith("__")
                        or any(node.name in vars(b) for b in bases)):
                    continue
                own = {id(n) for n in ast.walk(node)}
                if not loads.get(node.name, set()) - own:
                    unused.append("%s.%s.%s" % (module, cls.name, node.name))
    return unused


def test_scanner_sees_the_package():
    defs, binds, loads, exported = _scan()
    assert {"polytope.cone_rays", "polytope.convex_hull", "cli.main"} <= set(
        defs)
    assert _resolve(binds, "resolution", "MismatchAt") == "ehrhart.MismatchAt"
    assert "convex_hull" in exported
    fields = class_fields(_trees())
    assert {"contact.OrbitFamily.ratios", "contact.ToricDiagram._frames",
            "prequant.QuotientData.sectors"} <= set(fields)


def test_every_definition_has_a_caller_outside_the_tests():
    assert unused_definitions() == []


def test_every_method_has_a_caller_outside_the_tests():
    assert unused_methods() == []


def test_every_field_is_read_outside_the_tests():
    assert unused_fields() == []
