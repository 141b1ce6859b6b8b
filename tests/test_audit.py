"""Audit of the package source: four rules checked by reading the code,
one by running it.

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

The fourth rule: every size cap is refused by ``exact_core.Cap.require``,
whose message names the flag or argument that set the size, so no other
string constant, nor any constant part of an f-string, says "capped at".
Docstrings may.

The fifth rule, checked by running the code: every function is on a
program path.  A trace of the command line over every subcommand, in every
format, enters each module-level and class-body function of the package,
but for the few on `REACH_ALLOWLIST`, each with its reason.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

from twoside import cli, registry
from twoside.analysis_brackets import GENERATOR_NAMES
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


def cap_refusals(source: str) -> list[int]:
    """Lines of each string constant or f-string part that says "capped
    at", outside ``Cap.require`` and docstrings."""
    tree = ast.parse(source)
    skip = _docstring_nodes(tree)
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Cap":
            skip.update(id(node) for fn in cls.body
                        if isinstance(fn, ast.FunctionDef)
                        and fn.name == "require"
                        for node in ast.walk(fn))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in skip and "capped at" in node.value)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_only_cap_require_refuses_caps(path):
    assert cap_refusals((SRC / path).read_text()) == []


def test_audit_sees_cap_messages_outside_cap_require():
    source = '''
class Cap:
    def require(self, value, source):
        """Docstring: a refusal reads "n capped at N"."""
        raise DomainError(f"{source} capped at {self.name}")
def f(n):
    """Docstring: capped at 10."""
    a = "sieve capped at n <= 10"
    b = f"{n} capped at {n}"
    c = f"lattice work capped at {n}"
    d = "capped", f"{n} is at most {n}"
    return a, b, c, d
def require(n):
    raise DomainError(f"n capped at {n}")
'''
    assert cap_refusals(source) == [8, 9, 10, 14]


#: The functions no command enters, each with the reason it stays.
REACH_ALLOWLIST = {
    "_lazy.lazy_module": "runs once, when the package is imported",
    "analysis_brackets.pi_bracket": "the benchmark's numeric workload and "
                                    "acceptance criterion 03 call it",
    "analysis_brackets.circle_area_bracket": "criterion 03's circle, not "
                                             "yet a registry suite",
    "analysis_brackets.cylinder_volume_bracket": "criterion 03's cylinder, "
                                                 "not yet a registry suite",
}

#: Every subcommand at small sizes.  Ten `pick` seeds draw a polygon whose
#: simplicity test meets collinear edges.
REACH_COMMANDS = [
    ["check", "all", "--max-n", "6", "--trials", "4"],
    ["list"],
    *(["converge", name, "--doublings", "2"] for name in GENERATOR_NAMES),
    ["converge", "sqrt2", "--tol", "1/100"],
    ["divisors", "--n", "30"],
    ["jordan", "--region", "disk:1", "--tol", "1", "--max-n", "8"],
    ["jordan", "--region", "poly:0,0;2,0;0,2", "--tol", "1", "--max-n", "16"],
    ["pick", "--seeds", "10"],
    ["prob", "dice", "--trials", "100"],
    ["prob", "coin", "--n", "2", "--trials", "100"],
]


def function_lines(source: str) -> dict[int, str]:
    """The first line of the code object of each module-level and
    class-body function, to its dotted name; a decorated function's code
    starts at its first decorator."""
    tree = ast.parse(source)
    found = {}
    for owner, body in [("", tree.body)] + [
            (node.name + ".", node.body) for node in tree.body
            if isinstance(node, ast.ClassDef)]:
        for fn in body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                found[line] = owner + fn.name
    return found


def test_audit_finds_functions_where_their_code_starts():
    source = '''
import functools
def f():
    def inner():
        pass
class C:
    @property
    def p(self):
        pass

    @staticmethod
    @functools.cache
    def s():
        pass
'''
    namespace = {}
    exec(compile(source, "<audit>", "exec"), namespace)
    cls = namespace["C"]
    functions = [namespace["f"], cls.p.fget, cls.s.__wrapped__]
    assert function_lines(source) == {
        fn.__code__.co_firstlineno: name
        for fn, name in zip(functions, ["f", "C.p", "C.s"])}


def entered_code() -> set[tuple[str, int]]:
    """(file, first line) of each function's code entered by
    `REACH_COMMANDS` in every format and by one build of the registry."""
    entered = set()

    def profile(frame, event, _):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))
    exits = []
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for fmt in ("table", "json", "csv"):
                exits += [cli.main([*argv, "--format", fmt])
                          for argv in REACH_COMMANDS]
            registry._build()
    finally:
        sys.setprofile(None)
    assert set(exits) == {0}
    return {(str(Path(name).resolve()), line) for name, line in entered}


def test_every_function_is_on_a_program_path():
    entered = entered_code()
    unreached = {
        f"{path.stem}.{name}"
        for path in SRC.glob("*.py")
        for line, name in function_lines(path.read_text()).items()
        if (str(path), line) not in entered}
    assert unreached == set(REACH_ALLOWLIST)
