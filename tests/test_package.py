"""The package's public surface: ``nld.__all__`` names each export once,
and every public function, class or method in ``src/nld`` is used by the
package."""

import ast
from pathlib import Path

import nld

PACKAGE = Path(nld.__file__).resolve().parent


def test_all_names_resolve_once():
    assert len(nld.__all__) == len(set(nld.__all__))
    assert [name for name in nld.__all__ if not hasattr(nld, name)] == []
    namespace = {}
    exec("from nld import *", namespace)
    assert set(nld.__all__) <= namespace.keys()


def _definitions_and_uses():
    """The public functions and classes of each module, the public methods
    of those classes, and every bare name and attribute the package reads.

    A definition is (name, module, first line, last line), a method named
    ``Class.method``; a use is (name, module, line).
    """
    functions, methods, names, attributes = [], [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            functions.append((node.name, path.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                methods += [
                    (f"{node.name}.{member.name}", path.name, member.lineno, member.end_lineno)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                ]
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue  # an assignment target or ``del`` is not a read
            if isinstance(node, ast.Name):
                names.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes.append((node.attr, path.name, node.lineno))
    return functions, methods, names, attributes


def _unused(definitions, uses):
    # A use on the definition's own lines does not count, so a recursive
    # function needs an outside caller.
    return [
        f"{module}:{name}"
        for name, module, first, last in definitions
        if not any(
            used == name.rpartition(".")[2] and not (where == module and first <= line <= last)
            for used, where, line in uses
        )
    ]


def test_every_public_function_has_a_caller_in_the_package():
    # A name counts as used where code reads it (``f`` or ``module.f``);
    # imports and ``__init__``'s re-exports do not count.
    functions, _, names, attributes = _definitions_and_uses()
    assert _unused(functions, names + attributes) == []


# SplitMix64.next_u64 is the scalar definition of the stream that
# SplitMix64.u64s must equal, and the scalar oracles in tests/conftest.py
# are built on it: it stays in the package without a caller there.
METHODS_WITHOUT_A_CALLER = {"rng.py:SplitMix64.next_u64"}


def test_every_public_method_has_a_caller_in_the_package():
    # Methods, classmethods and properties of public classes are read as
    # attributes (``obj.m``, ``cls.m``), so only attribute reads count. They
    # are matched by bare name, whatever the object: a read of any attribute
    # of the same name (``arr.size`` for a ``size`` property) satisfies it.
    _, methods, _, attributes = _definitions_and_uses()
    assert set(_unused(methods, attributes)) == METHODS_WITHOUT_A_CALLER
