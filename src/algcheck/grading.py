"""Finite abelian grading groups, sign bicharacters and multipliers.

The grading group is a finite product of cyclic groups Z_{m_1} x ... x
Z_{m_r}; elements are coordinate tuples reduced into [0, m_i).  Sign
bicharacters take values in {+1, -1} and are stored as a mod-2 exponent
matrix E with eps(a, b) = (-1)^(a^T E b).  Multipliers (2-cocycles on the
group) and general commutation factors are stored as full |G| x |G|
tables of nonzero rationals in the canonical lexicographic element order.
"""

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidRepresentationError, ShapeError
from .report import AxiomReport

DEFAULT_GROUP_BOUND = 256

ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


def _integers(values, what):
    """values as a tuple; every value must be an int, and not a bool."""
    values = tuple(values)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise InvalidRepresentationError(f"{what} must be integers, got {values}")
    return values


def _rational(x, what):
    """x as a Fraction; x must be an int, and not a bool, or a Fraction."""
    if type(x) is Fraction:
        return x  # immutable: no copy needed
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InvalidRepresentationError(f"{what} must be integers or Fractions, got {x!r}")
    return Fraction(x)


def group_order_bound():
    raw = os.environ.get("ALGCHECK_GROUP_BOUND", DEFAULT_GROUP_BOUND)
    try:
        return int(raw)
    except ValueError:
        raise InvalidRepresentationError(
            f"ALGCHECK_GROUP_BOUND must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group given as a product of cyclic factors."""

    moduli: tuple

    def __post_init__(self):
        object.__setattr__(self, "moduli", _integers(self.moduli, "cyclic factor sizes"))
        if any(m < 1 for m in self.moduli):
            raise InvalidRepresentationError(f"cyclic factor sizes must be >= 1: {self.moduli}")
        if self.order > group_order_bound():
            raise InvalidRepresentationError(
                f"group order {self.order} exceeds bound {group_order_bound()}"
            )

    @property
    def rank(self):
        return len(self.moduli)

    @property
    def order(self):
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @property
    def zero(self):
        return (0,) * self.rank

    def reduce(self, coords):
        if len(coords) != self.rank:
            raise ShapeError(f"expected {self.rank} coordinates, got {len(coords)}")
        return tuple(c % m for c, m in zip(_integers(coords, "group coordinates"), self.moduli))

    def is_canonical(self, coords):
        return len(coords) == self.rank and all(
            0 <= c < m for c, m in zip(coords, self.moduli)
        )

    def add(self, a, b):
        if len(a) != self.rank or len(b) != self.rank:
            raise ShapeError("coordinate length mismatch in group addition")
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def elements(self):
        """All elements in canonical (lexicographic) order."""
        return [tuple(t) for t in itertools.product(*[range(m) for m in self.moduli])]

    def index(self, a):
        i = 0
        for c, m in zip(a, self.moduli):
            i = i * m + c
        return i


@dataclass(frozen=True)
class SignBicharacter:
    """{-1, +1}-valued bicharacter given by a mod-2 exponent matrix."""

    group: GroupSpec
    matrix: tuple

    def __post_init__(self):
        r = self.group.rank
        rows = tuple(tuple(x % 2 for x in _integers(row, "exponent entries"))
                     for row in self.matrix)
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ShapeError(f"exponent matrix must be {r}x{r}")
        object.__setattr__(self, "matrix", rows)

    def is_well_defined(self):
        """Rows/columns at odd moduli must vanish mod 2, otherwise the
        value depends on the coordinate representative."""
        for i, m in enumerate(self.group.moduli):
            if m % 2 == 1:
                if any(self.matrix[i][j] for j in range(self.group.rank)):
                    return False
                if any(self.matrix[j][i] for j in range(self.group.rank)):
                    return False
        return True

    def exponent(self, a, b):
        return sum(
            a[i] * self.matrix[i][j] * b[j]
            for i in range(self.group.rank)
            for j in range(self.group.rank)
        ) % 2

    def value(self, a, b):
        return MINUS_ONE if self.exponent(a, b) else ONE


@dataclass(frozen=True)
class MultiplierTable:
    """Total map G x G -> Q* stored rowwise in canonical element order.

    Also serves as the representation of general rational commutation
    factors (the bicharacter delta associated with a multiplier, and the
    eps*delta factor of the twisted algebras)."""

    group: GroupSpec
    values: tuple

    def __post_init__(self):
        n = self.group.order
        rows = tuple(tuple(_rational(x, "multiplier entries") for x in row) for row in self.values)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ShapeError(f"multiplier table must be {n}x{n}")
        for row in rows:
            for x in row:
                if x == 0:
                    raise InvalidRepresentationError("multiplier entries must be nonzero")
        object.__setattr__(self, "values", rows)

    @classmethod
    def from_function(cls, group, fn):
        els = group.elements()
        return cls(group, tuple(tuple(fn(a, b) for b in els) for a in els))

    @classmethod
    def constant(cls, group, c):
        c = _rational(c, "multiplier constant")
        return cls.from_function(group, lambda a, b: c)

    def value(self, a, b):
        return self.values[self.group.index(a)][self.group.index(b)]


def validate_bicharacter(e):
    """Exhaustive check of the bicharacter laws for a SignBicharacter.

    Raises InvalidRepresentationError before enumerating if the exponent
    matrix is not well defined on the group."""
    if not e.is_well_defined():
        raise InvalidRepresentationError(
            "exponent matrix rows/columns at odd moduli must vanish mod 2"
        )
    return _bicharacter_reports(e.group, e.value)


def validate_bicharacter_table(t):
    """The same exhaustive bicharacter laws for a rational-valued table
    (used to certify the delta of a multiplier, and products of factors)."""
    return _bicharacter_reports(t.group, t.value)


def _bicharacter_reports(group, val):
    els = group.elements()
    zero = group.zero
    skew = AxiomReport("bicharacter:skew-symmetry")
    left = AxiomReport("bicharacter:additivity-left")
    right = AxiomReport("bicharacter:additivity-right")
    unit = AxiomReport("bicharacter:identity-element")
    diag = AxiomReport("bicharacter:diagonal-sign")
    for a in els:
        if val(a, zero) != 1 or val(zero, a) != 1:
            unit.record((a,), (val(a, zero),), (val(zero, a),))
        if val(a, a) not in (1, -1):
            diag.record((a,), (val(a, a),), (ONE,))
        for b in els:
            if val(a, b) * val(b, a) != 1:
                skew.record((a, b), (val(a, b) * val(b, a),), (ONE,))
            for c in els:
                lhs = val(a, group.add(b, c))
                rhs = val(a, b) * val(a, c)
                if lhs != rhs:
                    left.record((a, b, c), (lhs,), (rhs,))
                lhs = val(group.add(a, b), c)
                rhs = val(a, c) * val(b, c)
                if lhs != rhs:
                    right.record((a, b, c), (lhs,), (rhs,))
    return [r.finish() for r in (skew, left, right, unit, diag)]


def validate_multiplier(s, symmetric=False):
    """Check the 2-cocycle law s(x, y+z)s(y, z) = s(x, y)s(x+y, z) on all
    triples; with `symmetric`, additionally check symmetry and the cyclic
    invariance of s(x, y)s(z, x+y) required by the symmetric-twist theorem."""
    g = s.group
    els = g.elements()
    cocycle = AxiomReport("multiplier:cocycle")
    for x in els:
        for y in els:
            for z in els:
                lhs = s.value(x, g.add(y, z)) * s.value(y, z)
                rhs = s.value(x, y) * s.value(g.add(x, y), z)
                if lhs != rhs:
                    cocycle.record((x, y, z), (lhs,), (rhs,))
    reports = [cocycle.finish()]
    if symmetric:
        sym = AxiomReport("multiplier:symmetry")
        for x in els:
            for y in els:
                if s.value(x, y) != s.value(y, x):
                    sym.record((x, y), (s.value(x, y),), (s.value(y, x),))
        cyc = AxiomReport("multiplier:cyclic-invariance")
        for x in els:
            for y in els:
                for z in els:
                    v0 = s.value(x, y) * s.value(z, g.add(x, y))
                    v1 = s.value(y, z) * s.value(x, g.add(y, z))
                    v2 = s.value(z, x) * s.value(y, g.add(z, x))
                    if not (v0 == v1 == v2):
                        cyc.record((x, y, z), (v0,), (v1, v2))
        reports.extend([sym.finish(), cyc.finish()])
    return reports


def delta_from_multiplier(s):
    """delta(x, y) = s(x, y) / s(y, x), the bicharacter associated with s."""
    return MultiplierTable.from_function(s.group, lambda a, b: s.value(a, b) / s.value(b, a))


def twist_epsilon(e, d):
    """Pointwise product of two commutation factors on the same group."""
    if e.group != d.group:
        raise ShapeError("commutation factors live on different groups")
    return MultiplierTable.from_function(e.group, lambda a, b: e.value(a, b) * d.value(a, b))
