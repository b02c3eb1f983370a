"""Violation records produced by the exhaustive axiom sweeps.

A report is empty exactly when the checked identity holds on every basis
tuple, which by multilinearity certifies it on the whole algebra.
"""

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

    def record(self, indices, lhs, rhs):
        self.violations.append(Violation(tuple(indices), tuple(lhs), tuple(rhs)))

    def render(self, full=False):
        if self.ok:
            return [f"PASS {self.axiom}"]
        head = self.violations[0]
        lines = [
            f"FAIL {self.axiom}: {len(self.violations)} violation(s); "
            f"first at {head.indices}: lhs={_fmt(head.lhs)}, rhs={_fmt(head.rhs)}"
        ]
        if full:
            for v in self.violations:
                lines.append(f"  {self.axiom} {v.indices}: lhs={_fmt(v.lhs)}, rhs={_fmt(v.rhs)}")
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
