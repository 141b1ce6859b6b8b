"""Outcome records shared by every checker module, and the one status rule.

Every status that a row or a subcommand reports is decided here:
:func:`row_status` for a comparison and :func:`sigma_gate` for the soft
gate of a simulation route.  Every report is made by :func:`report_check`,
and every check row by :func:`rows`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .exact_core import Bracket, _int_to_str, rat_to_str

PASS = "PASS"
FAIL = "FAIL"
EXPECTED_FAIL = "EXPECTED-FAIL"
WARN = "WARN"


def row_status(passed: bool, expected_fail: bool = False,
               gate: str = PASS) -> str:
    """The status of one check.

    A check expected to fail (a printed misprint kept on display) is
    EXPECTED-FAIL when it fails and FAIL when it unexpectedly passes.  Any
    other check is FAIL when it fails and otherwise takes the verdict of
    its soft gate, PASS or WARN.
    """
    if expected_fail:
        return FAIL if passed else EXPECTED_FAIL
    return gate if passed else FAIL


def sigma_gate(deviation: Fraction, sigma: Bracket) -> str:
    """Verdict of a simulation: PASS within 3 sigma, WARN within 4, else FAIL.

    ``sigma`` encloses the standard deviation, so PASS needs the deviation
    under the lowest 3 sigma it allows and FAIL needs it over the highest
    4 sigma.
    """
    if deviation <= sigma.scale(3).lo:
        return PASS
    if deviation <= sigma.scale(4).hi:
        return WARN
    return FAIL


def render_value(v: Any) -> str:
    """Stable string form for report fields: rationals as "p/q", never floats."""
    cls = type(v)       # the common exact types first, then their subclasses
    if cls is str:
        return v
    if cls is int:
        return _int_to_str(v)
    if cls is Fraction:
        return rat_to_str(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return _int_to_str(v)
    if isinstance(v, Fraction):
        return rat_to_str(v)
    if isinstance(v, Bracket):
        return str(v)
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(render_value(x) for x in v) + ")"
    return str(v)


class IdentityReport(NamedTuple):
    """One verified (lhs, rhs) comparison, made by :func:`report_check`.

    ``witness`` is present exactly when the comparison failed; for numeric
    identity checks it is the parameter point at which the two sides differ.
    ``gate`` is the verdict of a simulation that rides on a passing
    comparison (PASS or WARN; see :func:`report_check`).
    """

    params: tuple
    lhs: Any
    rhs: Any
    passed: bool
    witness: tuple | None = None
    detail: Mapping[str, Any] | None = None
    gate: str = PASS


def report_check(params: Sequence, lhs, rhs, passed: bool,
                 detail: Mapping[str, Any] | None = None,
                 gate: str = PASS, witness: tuple | None = None
                 ) -> IdentityReport:
    """Report one comparison; when it fails, ``witness`` or else its
    parameters witness it.

    A passing report carries no witness.  A simulation ``gate`` of FAIL
    fails the report, so that every FAIL carries a witness; WARN is kept
    for the status.  Any other gate is a ValueError.
    """
    if gate not in (PASS, WARN, FAIL):
        raise ValueError(f"gate must be PASS, WARN or FAIL, not {gate!r}")
    params = tuple(params)
    passed = passed and gate != FAIL
    witness = None if passed else witness or params
    return IdentityReport(params, lhs, rhs, passed, witness, detail, gate)


def report_equal(params: Sequence, lhs, rhs,
                 detail: Mapping[str, Any] | None = None) -> IdentityReport:
    """Report exact equality of two already-computed sides."""
    return report_check(params, lhs, rhs, lhs == rhs, detail)


#: A row's case label: a format string over the report's rendered
#: parameters, a function of the report, or None for the parameter tuple.
Case = str | Callable[[IdentityReport], str] | None

#: JSON shape of one check row; the check subcommand emits arrays of these.
ROW_SCHEMA = {
    "type": "object",
    "required": ["suite", "case", "params", "lhs", "rhs", "status", "witness"],
    "properties": {
        "suite": {"type": "string"},
        "case": {"type": "string"},
        "params": {"type": "array", "items": {"type": "string"}},
        "lhs": {"type": "string"},
        "rhs": {"type": "string"},
        "status": {"enum": [PASS, FAIL, EXPECTED_FAIL, WARN]},
        "witness": {"type": ["array", "null"], "items": {"type": "string"}},
        "detail": {"type": "object"},
        "lhs_enclosure": {"$ref": "#/$defs/bracket"},
        "rhs_enclosure": {"$ref": "#/$defs/bracket"},
    },
    "$defs": {
        "bracket": {
            "type": "object",
            "required": ["lo", "hi", "width"],
            "properties": {"lo": {"type": "string"},
                           "hi": {"type": "string"},
                           "width": {"type": "string"}},
        },
    },
}


def rows(suite: str, reports: Iterable[IdentityReport], case: Case,
         expected_fail: bool | frozenset[str]) -> list[dict]:
    """The `ROW_SCHEMA` rows of registry suite ``suite``, one per report.

    ``expected_fail`` is True when every row is a misprint kept on display,
    or the set of case labels that are.  The case's kind and the expected
    labels are read once per suite; int parameters, the common kind, are
    rendered without going through `render_value`.
    """
    every_expected = expected_fail is True
    expected_labels = () if every_expected else expected_fail or ()
    fmt = case.format if isinstance(case, str) else None
    out = []
    for r in reports:
        params = [_int_to_str(p) if type(p) is int else render_value(p)
                  for p in r.params]
        if fmt is not None:
            label = fmt(*params)
        elif case is None:
            label = f"({', '.join(params)})"
        else:
            label = case(r)
        lhs, rhs = r.lhs, r.rhs
        row = {
            "suite": suite,
            "case": label,
            "params": params,
            "lhs": render_value(lhs),
            "rhs": render_value(rhs),
            "status": row_status(r.passed,
                                 every_expected or label in expected_labels,
                                 r.gate),
            "witness": (None if r.witness is None
                        else [render_value(w) for w in r.witness]),
        }
        if isinstance(lhs, Bracket):
            row["lhs_enclosure"] = lhs.to_json()
        if isinstance(rhs, Bracket):
            row["rhs_enclosure"] = rhs.to_json()
        if r.detail:
            row["detail"] = {k: render_value(v) for k, v in r.detail.items()}
        out.append(row)
    return out
