"""Static audit of the package source: rules checked by reading the code.

The first rule: suite ids live in the registry alone.  A row's ``suite``
comes from the registry declaration that ran it, so no other module may
spell one, whether as a string constant or as the constant head of an
f-string.  Docstrings may name suites.

The second rule: every report is made by ``report.report_check``, which
alone decides that a witness is present exactly when the check fails, so
no code outside it calls ``IdentityReport`` or a named tuple's other
constructors, ``_make`` and ``_replace``.

The third rule: no floats.  Every comparison is exact, so the package
holds no float or complex literal and calls no ``float``.  The one
exception is the digit split of ``exact_core._int_to_str``, which only
picks where to cut an integer in two.
"""

import ast
from pathlib import Path

import pytest

from twoside.registry import SUITES

SRC = Path(__file__).resolve().parent.parent / "src" / "twoside"

#: Each registry id up to and including its first dot: "alg.", "sum.", ...
ID_PREFIXES = tuple(sorted({s.split(".", 1)[0] + "." for s in SUITES}))


def _docstring_nodes(tree: ast.AST) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def suite_id_literals(source: str) -> list[tuple[int, str]]:
    """(line, text) of each string constant or f-string head that starts
    with a registry id prefix, docstrings excepted."""
    tree = ast.parse(source)
    skip = _docstring_nodes(tree)
    heads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            skip.update(id(part) for part in node.values)
            if node.values and isinstance(node.values[0], ast.Constant):
                heads.append((node.lineno, node.values[0].value))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            heads.append((node.lineno, node.value))
    return sorted((line, text) for line, text in heads
                  if text.startswith(ID_PREFIXES))


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "registry.py"))
def test_only_the_registry_names_suites(path):
    assert suite_id_literals((SRC / path).read_text()) == []


def test_audit_sees_constants_and_fstring_heads_but_not_docstrings():
    source = '''
"""Module docstring naming sum.cubes."""
def f(kind):
    """Docstring naming binom.pascal."""
    a = "geom.ceva"
    b = f"sum.{kind}"
    c = f"{kind} sum.cubes"
    d = "not a suite: alg.mixture"
    return a, b, c, d
'''
    assert suite_id_literals(source) == [(5, "geom.ceva"), (6, "sum.")]


#: The calls that build a report: the class itself and a named tuple's
#: other constructors.
REPORT_BUILDERS = {"IdentityReport", "_make", "_replace"}


def report_builds(source: str) -> list[int]:
    """Lines outside ``report_check`` that call ``IdentityReport``, by name
    or as an attribute, or any ``_make`` or ``_replace``."""
    tree = ast.parse(source)
    inside = {id(node)
              for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "report_check"
              for node in ast.walk(fn)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        and (isinstance(node.func, ast.Name)
             and node.func.id == "IdentityReport"
             or isinstance(node.func, ast.Attribute)
             and node.func.attr in REPORT_BUILDERS))


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_only_report_check_builds_reports(path):
    assert report_builds((SRC / path).read_text()) == []


def test_audit_sees_direct_and_attribute_calls_but_not_annotations():
    source = '''
from .report import IdentityReport
def f(p) -> IdentityReport:
    """Docstring naming IdentityReport(...)."""
    a = IdentityReport(p, 1, 1, True)
    b = report.IdentityReport(p, 1, 2, False, p)
    kinds = [IdentityReport]
    c = IdentityReport._make((p, 1, 1, True))
    d = a._replace(passed=False)
    return a, b, c, d, isinstance(a, IdentityReport)
def report_check(p):
    return IdentityReport(p, 1, 1, True)
'''
    assert report_builds(source) == [5, 6, 8, 9]


#: The one float literal allowed: (the function it is in, its value).
FLOAT_EXCEPTION = ("_int_to_str", 0.30103)


def float_uses(source: str) -> list[int]:
    """Lines of each float or complex literal and each call of ``float``,
    `FLOAT_EXCEPTION` excepted."""
    tree = ast.parse(source)
    name, value = FLOAT_EXCEPTION
    allowed = {id(node)
               for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == name
               for node in ast.walk(fn)
               if isinstance(node, ast.Constant) and node.value == value}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if id(node) not in allowed
        and (isinstance(node, ast.Constant)
             and type(node.value) in (float, complex)
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "float"))


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_floats(path):
    assert float_uses((SRC / path).read_text()) == []


def test_audit_sees_float_literals_and_calls_but_not_the_digit_split():
    source = '''
def _int_to_str(n):
    """Docstring naming 0.5 and float(n)."""
    return int(n.bit_length() * 0.30103)
def f(x):
    a = 0.30103
    b = -1.5 + 2j
    c = float(x) + 1e3
    d = "2.5", isinstance(x, float), 3
    return a, b, c, d
'''
    assert float_uses(source) == [6, 7, 7, 8, 8]
