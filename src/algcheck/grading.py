"""Finite abelian grading groups, sign bicharacters and multipliers.

The grading group is a finite product of cyclic groups Z_{m_1} x ... x
Z_{m_r}; elements are coordinate tuples reduced into [0, m_i).  A
commutation factor eps is a sign bicharacter or a rational table.  Sign
bicharacters take values in {+1, -1} and are stored as a mod-2 exponent
matrix E with eps(a, b) = (-1)^(a^T E b).  Multipliers (2-cocycles on the
group) and general commutation factors are stored as full |G| x |G|
tables of nonzero rationals in the canonical lexicographic element order.

The group laws run on element indices, not coordinate tuples.  A group
derives its element tuple (`_els`) and its addition table (`_sums`: the
index of a + b, for the indices of a and b), and both factor classes
expose a value table indexed the same way (`values`, derived from E for
a sign bicharacter), which their `value` reads; each derived table is a
property of the object's fields, built at most once.  Each law is one
`report._sweep` call of arity 1 to 3, with lists over the last index as
its sides; index order is lexicographic element order, and a violation
carries element tuples and Fraction values.  A law that compares a
table's values or their products as cleared ints records the ints it
compared over D or D^2 (`_recorded`), which are those values and
products; the identity-element and diagonal-sign laws record table
entries.  `validate_bicharacter` checks both factor classes, and a sign
matrix equal to its transpose passes in closed form.
"""

import itertools
import math
import os
import re
from fractions import Fraction
from functools import cached_property, partial

from ._record import record
from .errors import InvalidRepresentationError, ShapeError
from .report import AxiomReport, _sweep

DEFAULT_GROUP_BOUND = 256

ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


def _is_int(x):
    """x is an int and not a bool: the one integer test of the package."""
    return isinstance(x, int) and not isinstance(x, bool)


def _integers(values, what):
    """values as a tuple; every value must be an int, and not a bool."""
    values = tuple(values)
    if not all(map(_is_int, values)):
        raise InvalidRepresentationError(f"{what} must be integers, got {values}")
    return values


def _rational(x, what):
    """x as a Fraction; x must be an int, and not a bool, or a Fraction."""
    if type(x) is Fraction:
        return x  # immutable: no copy needed
    if not (_is_int(x) or isinstance(x, Fraction)):
        raise InvalidRepresentationError(f"{what} must be integers or Fractions, got {x!r}")
    return Fraction(x)


def _square(rows, n, entry, noun):
    """The rows with `entry` applied to each entry, as a tuple of tuples;
    a ShapeError that names `noun` unless there are n rows of n entries."""
    rows = tuple(tuple(map(entry, row)) for row in rows)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ShapeError(f"{noun} must be {n}x{n}")
    return rows


_INTEGER = re.compile(r"[+-]?[0-9]+")  # ASCII digits only, as the file format's rationals


def _parse_int(text):
    """text as an int: a ValueError unless it is ASCII digits after an optional sign,
    so other Unicode digits, '1_0' and ' 12', which int() takes, are refused."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def group_order_bound():
    raw = os.environ.get("ALGCHECK_GROUP_BOUND", str(DEFAULT_GROUP_BOUND))
    try:
        bound = _parse_int(raw)
    except ValueError:
        raise InvalidRepresentationError(
            f"ALGCHECK_GROUP_BOUND must be an integer, got {raw!r}"
        ) from None
    if bound < 1:
        raise InvalidRepresentationError(f"ALGCHECK_GROUP_BOUND must be at least 1, got {raw!r}")
    return bound


@record
class GroupSpec:
    """A finite abelian group given as a product of cyclic factors."""

    moduli: tuple

    def __post_init__(self):
        object.__setattr__(self, "moduli", _integers(self.moduli, "cyclic factor sizes"))
        if any(m < 1 for m in self.moduli):
            raise InvalidRepresentationError(f"cyclic factor sizes must be >= 1: {self.moduli}")
        bound = group_order_bound()
        if self.order > bound:
            raise InvalidRepresentationError(f"group order {self.order} exceeds bound {bound}")

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

    def is_canonical(self, coords):
        """coords is a tuple or list of one int (not a bool) per factor, in [0, m_i)."""
        return isinstance(coords, (tuple, list)) and len(coords) == self.rank and all(
            _is_int(c) and 0 <= c < m for c, m in zip(coords, self.moduli))

    def add(self, a, b):
        if len(a) != self.rank or len(b) != self.rank:
            raise ShapeError("coordinate length mismatch in group addition")
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def elements(self):
        """All elements in canonical (lexicographic) order."""
        return list(self._els)

    def index(self, a):
        """a's place in canonical element order; a ShapeError unless a is canonical."""
        if not self.is_canonical(a):
            raise ShapeError(f"{a!r} is not a canonical element of the group")
        i = 0
        for c, m in zip(a, self.moduli):
            i = i * m + c
        return i

    @cached_property
    def _els(self):
        """The element tuple: element i is the one with index(a) == i."""
        return tuple(itertools.product(*map(range, self.moduli)))

    @cached_property
    def _sums(self):
        """The addition table: row i, column j is the index of element
        i + element j.  Built one cyclic factor at a time: with
        G = H x Z_m, (h, c) has index h*m + c and (h, c) + (h', c') is
        (h + h', (c + c') mod m)."""
        sums = ((0,),)
        for m in self.moduli:
            cyclic = [[(c + d) % m for d in range(m)] for c in range(m)]
            sums = tuple(tuple(s * m + t for s in row for t in cyclic[c])
                         for row in sums for c in range(m))
        return sums


def _value(factor, a, b):
    """eps(a, b), read off the factor's value table: `value` on both factor classes."""
    index = factor.group.index
    return factor.values[index(a)][index(b)]


@record
class SignBicharacter:
    """{-1, +1}-valued bicharacter given by a mod-2 exponent matrix whose
    rows and columns at odd moduli vanish (else eps(a, b) would depend on
    the coordinate representatives of a and b)."""

    group: GroupSpec
    matrix: tuple

    def __post_init__(self):
        rows = _square(self.matrix, self.group.rank,
                       lambda x: _integers((x,), "exponent entries")[0] % 2, "exponent matrix")
        odd = [m % 2 for m in self.group.moduli]
        if any(x and (odd[i] or odd[j]) for i, row in enumerate(rows) for j, x in enumerate(row)):
            raise InvalidRepresentationError("exponent matrix rows/columns at odd moduli "
                                             "must vanish mod 2")
        object.__setattr__(self, "matrix", rows)

    value = _value

    @cached_property
    def values(self):
        """The value table: row i, column j is (-1)^(a^T E b) for a, b
        elements i and j, read off the parity of (a^T E) & b, with a mod 2
        and a^T E mod 2 as bitmasks."""
        rows = [sum(1 << j for j, x in enumerate(row) if x) for row in self.matrix]
        forms = []
        for a in self.group._els:
            bits = form = 0
            for i, c in enumerate(a):
                if c & 1:
                    bits |= 1 << i
                    form ^= rows[i]
            forms.append((bits, form))
        return tuple(
            tuple(MINUS_ONE if (form & bits).bit_count() & 1 else ONE for bits, _ in forms)
            for _, form in forms
        )


@record
class MultiplierTable:
    """Total map G x G -> Q* stored rowwise in canonical element order.

    Also serves as the representation of general rational commutation
    factors (the bicharacter delta associated with a multiplier, and the
    eps*delta factor of the twisted algebras)."""

    group: GroupSpec
    values: tuple

    def __post_init__(self):
        rows = _square(self.values, self.group.order, partial(_rational, what="multiplier entries"),
                       "multiplier table")
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

    value = _value


def _cleared(table):
    """D, the lcm of the table's denominators, and the rows and the columns
    of D * table as lists of ints."""
    d = math.lcm(*(x.denominator for row in table for x in row))
    rows = [[x.numerator * (d // x.denominator) for x in row] for row in table]
    return d, rows, [list(col) for col in zip(*rows)]


def _recorded(els, scale):
    """The `exact` of a law swept on cleared ints: the element tuples, the
    first compared value over `scale` as lhs and the others over `scale`
    as rhs, each a Fraction."""
    def exact(values, *indices):
        first, *rest = (Fraction(v, scale) for v in values)
        return tuple(els[i] for i in indices), (first,), tuple(rest)
    return exact


def validate_bicharacter(e):
    """The exhaustive bicharacter laws for a commutation factor of either
    class: skew-symmetry, additivity on each side, eps = 1 at the identity
    and eps(a, a) = +-1.

    With D the lcm of the denominators of the value table t and T = D*t,
    the laws are swept on the ints of T: T(a, b) T(b, a) = D^2, T(a, 0) =
    D = T(0, a), T(a, a)^2 = D^2, and D*T(a, b+c) = T(a, b) T(a, c),
    likewise on the right.  A skew-symmetry or additivity violation
    carries the compared ints over D^2, which are the table's own values
    and their products; an identity-element violation carries the two
    table entries, and a diagonal-sign violation the entry itself.

    A SignBicharacter can fail only skew-symmetry, so it is swept for that
    law alone (with D = 1: a violation records lhs -1 and rhs 1), and one
    whose exponent matrix E equals its transpose mod 2 is not swept at
    all.  Proof: the type's invariant makes every row and column of E at
    an odd modulus vanish mod 2, so a^T E b mod 2 only reads a_i and b_j
    at even moduli m_i, m_j, and there (a + b)_i = (a_i + b_i) mod m_i has
    the parity of a_i + b_i.  So the exponent is additive in each argument
    mod 2 and eps is additive on both sides; the exponent of (0, b) and
    (a, 0) is 0, so eps is 1 at the identity; and every value is +-1, so
    the diagonal sign law holds.  Finally eps(a, b) eps(b, a) =
    (-1)^(a^T (E + E^T) b), which is 1 on every pair when E + E^T
    vanishes mod 2."""
    sign = isinstance(e, SignBicharacter)
    rest = [AxiomReport(f"bicharacter:{law}") for law in (
        "additivity-left", "additivity-right", "identity-element", "diagonal-sign")]
    if sign and e.matrix == tuple(zip(*e.matrix)):
        return [AxiomReport("bicharacter:skew-symmetry")] + rest
    g = e.group
    els, val = g._els, e.values
    n = g.order
    d, ints, cols = _cleared(val)
    square = [d * d] * n
    skew = _sweep("bicharacter:skew-symmetry", n, 2,
                  lambda a: ([x * y for x, y in zip(ints[a], cols[a])], square),
                  _recorded(els, d * d))
    if sign:
        return [skew] + rest
    sums = g._sums
    # eps(a, b + c) = eps(a, b) eps(a, c)
    left = _sweep(
        "bicharacter:additivity-left", n, 3,
        lambda a, b: ([d * ints[a][k] for k in sums[b]], [ints[a][b] * x for x in ints[a]]),
        _recorded(els, d * d))
    # eps(a + b, c) = eps(a, c) eps(b, c)
    right = _sweep(
        "bicharacter:additivity-right", n, 3,
        lambda a, b: ([d * x for x in ints[sums[a][b]]], [x * y for x, y in zip(ints[a], ints[b])]),
        _recorded(els, d * d))
    unit = _sweep("bicharacter:identity-element", n, 1, lambda: ([d] * n, cols[0], ints[0]),
                  lambda _, a: ((els[a],), (val[a][0],), (val[0][a],)))
    diag = _sweep("bicharacter:diagonal-sign", n, 1,
                  lambda: (square, [ints[a][a] ** 2 for a in range(n)]),
                  lambda _, a: ((els[a],), (val[a][a],), (ONE,)))
    return [skew, left, right, unit, diag]


def validate_multiplier(s, symmetric=False):
    """Check the 2-cocycle law s(x, y+z)s(y, z) = s(x, y)s(x+y, z) on all
    triples; with `symmetric`, additionally check symmetry and the cyclic
    invariance of s(x, y)s(z, x+y) required by the symmetric-twist theorem.

    The three laws are homogeneous in s, of degrees 2, 1 and 2, so they
    hold for s exactly when they hold for D*s, where D is the lcm of the
    denominators of s: the sweeps compare the Python ints of D*s over the
    index tables.  A violation carries the element tuples and the
    compared ints over D^2, D and D^2, which are the products of the
    original Fraction values."""
    g = s.group
    els, sums = g._els, g._sums
    n = g.order
    d, ints, cols = _cleared(s.values)

    def after(x, y):
        # s(x, y + z) s(y, z) over z
        row = ints[x]
        return [row[k] * c for k, c in zip(sums[y], ints[y])]

    cocycle = _sweep(
        "multiplier:cocycle", n, 3,
        lambda x, y: (after(x, y), [ints[x][y] * c for c in ints[sums[x][y]]]),
        _recorded(els, d * d))
    reports = [cocycle]
    if symmetric:
        sym = _sweep("multiplier:symmetry", n, 2, lambda x: (ints[x], cols[x]), _recorded(els, d))

        def cyclic(x, y):
            # s(x, y)s(z, x+y), s(y, z)s(x, y+z), s(z, x)s(y, z+x) over z
            row = ints[y]
            return ([ints[x][y] * c for c in cols[sums[x][y]]], after(x, y),
                    [c * row[k] for c, k in zip(cols[x], sums[x])])

        cyc = _sweep("multiplier:cyclic-invariance", n, 3, cyclic, _recorded(els, d * d))
        reports.extend([sym, cyc])
    return reports


def delta_from_multiplier(s):
    """delta(x, y) = s(x, y) / s(y, x), the bicharacter associated with s."""
    val = s.values
    return MultiplierTable(s.group, tuple(tuple(a / b for a, b in zip(row, col))
                                          for row, col in zip(val, zip(*val))))


def twist_epsilon(e, d):
    """Pointwise product of two commutation factors on the same group."""
    if e.group != d.group:
        raise ShapeError("commutation factors live on different groups")
    return MultiplierTable(e.group, tuple(tuple(a * b for a, b in zip(ra, rb))
                                          for ra, rb in zip(e.values, d.values)))
