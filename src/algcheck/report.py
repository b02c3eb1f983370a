"""Violation records, and `_sweep`, the loop that checks the map, pair and
group laws on index tuples (the trilinear laws are `core`'s sparse joins).

A report is empty exactly when the checked identity holds on every basis
tuple, which by multilinearity certifies it on the whole algebra.
"""

import itertools

from ._record import factory, record
from .errors import InvalidRepresentationError


@record
class Violation:
    indices: tuple
    lhs: tuple
    rhs: tuple


@record
class AxiomReport:
    axiom: str
    violations: list = factory(list)

    @property
    def ok(self):
        return not self.violations

    def render(self, full=False):
        if self.ok:
            return [f"PASS {self.axiom}"]
        texts = [f"{v.indices}: lhs={_fmt(v.lhs)}, rhs={_fmt(v.rhs)}"
                 for v in (self.violations if full else self.violations[:1])]
        lines = [f"FAIL {self.axiom}: {len(self.violations)} violation(s); first at {texts[0]}"]
        if full:
            lines += [f"  {self.axiom} {t}" for t in texts]
        return lines

    def to_json(self):
        return {
            "axiom": self.axiom,
            "ok": self.ok,
            "violations": [
                {
                    "indices": list(v.indices),
                    "lhs": [_text(x) for x in v.lhs],
                    "rhs": [_text(x) for x in v.rhs],
                }
                for v in self.violations
            ],
        }


def _sweep(label, n, arity, sides, exact):
    """The report for `label` over every index tuple of length `arity` in
    range(n), violations in index order, built in one step.  For each row
    (every index but the last) sides(*row) gives sequences over the last
    index that must all equal the first; at each last index z where one
    does not, exact(values, *row, z), with `values` the sides' entries at
    z, gives the violation's (indices, lhs, rhs) tuples."""
    violations = []
    for row in itertools.product(range(n), repeat=arity - 1):
        first, *rest = sides(*row)
        if any(r != first for r in rest):
            violations.extend(Violation(*exact((first[z], *(r[z] for r in rest)), *row, z))
                              for z in range(n) if any(r[z] != first[z] for r in rest))
    return AxiomReport(label, violations)


def _text(x):
    """str(x) for a Fraction x; the ValueError str raises past Python's
    int-to-string digit limit becomes an InvalidRepresentationError."""
    try:
        return str(x)
    except ValueError:
        raise InvalidRepresentationError("a rational has too many digits to write") from None


def _fmt(values):
    return "(" + ", ".join(map(_text, values)) + ")"


def all_ok(reports):
    return all(r.ok for r in reports)


def render_reports(reports, full=False):
    lines = []
    for r in reports:
        lines.extend(r.render(full=full))
    return lines
