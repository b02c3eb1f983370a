"""Finite abelian grading groups, sign bicharacters and multipliers.

The grading group is a finite product of cyclic groups Z_{m_1} x ... x
Z_{m_r}; elements are coordinate tuples reduced into [0, m_i).  Sign
bicharacters take values in {+1, -1} and are stored as a mod-2 exponent
matrix E with eps(a, b) = (-1)^(a^T E b).  Multipliers (2-cocycles on the
group) and general commutation factors are stored as full |G| x |G|
tables of nonzero rationals in the canonical lexicographic element order.

The group laws run on element indices, not coordinate tuples.  A group
derives its element tuple (`_els`) and its addition table (`_sums`: the
index of a + b, for the indices of a and b), and every commutation
factor one value table indexed the same way (`_table`), which its
`value` reads; each is a property of the object's fields, built at most
once.  Each law is one `_row_sweep` call of arity 1 to 3, except the
sign laws that hold in closed form.  A sweep compares the values over
the last index as lists, a row at a time; index order is lexicographic
element order, so violations come out in tuple-loop order, with element
tuples and the table's own Fraction values.  A sign matrix is well
defined on the group by construction, so a sign bicharacter sweeps only
its skew-symmetry pairs (see `validate_bicharacter`); multiplier and
table laws compare integers (see `validate_multiplier` and
`validate_bicharacter_table`).
"""

import itertools
import math
import os
from fractions import Fraction
from functools import cached_property

from ._record import record
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


@record
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
        return list(self._els)

    def index(self, a):
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


def _forms(group, matrix):
    """For each element a, in index order: the bitmask of the parities of
    its coordinates and the bitmask of a^T M mod 2 (M a 0/1 matrix)."""
    rows = [sum(1 << j for j, x in enumerate(row) if x) for row in matrix]
    out = []
    for a in group._els:
        bits = form = 0
        for i, c in enumerate(a):
            if c & 1:
                bits |= 1 << i
                form ^= rows[i]
        out.append((bits, form))
    return out


def _value(factor, a, b):
    """eps(a, b), read off the factor's value table: `value` on both factor classes."""
    index = factor.group.index
    return factor._table[index(a)][index(b)]


@record
class SignBicharacter:
    """{-1, +1}-valued bicharacter given by a mod-2 exponent matrix whose
    rows and columns at odd moduli vanish (else eps(a, b) would depend on
    the coordinate representatives of a and b)."""

    group: GroupSpec
    matrix: tuple

    def __post_init__(self):
        r = self.group.rank
        rows = tuple(tuple(x % 2 for x in _integers(row, "exponent entries"))
                     for row in self.matrix)
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ShapeError(f"exponent matrix must be {r}x{r}")
        odd = [m % 2 for m in self.group.moduli]
        if any(x and (odd[i] or odd[j]) for i, row in enumerate(rows) for j, x in enumerate(row)):
            raise InvalidRepresentationError("exponent matrix rows/columns at odd moduli "
                                             "must vanish mod 2")
        object.__setattr__(self, "matrix", rows)

    value = _value

    @cached_property
    def _table(self):
        """The value table: row i, column j is (-1)^(a^T E b) for a, b
        elements i and j, read off the parity of (a^T E) & b."""
        forms = _forms(self.group, self.matrix)
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

    value = _value

    @property
    def _table(self):
        """The value table on element indices: the stored rows."""
        return self.values


def _row_sweep(label, n, arity, sides, exact):
    """The report for `label` over every index tuple of length `arity`.  For
    each row (every index but the last) sides(*row) gives lists over the
    last index that must all equal the first; at each last index z where
    one does not, exact(*row, z) gives the recorded (indices, lhs, rhs)."""
    rep = AxiomReport(label)
    for row in itertools.product(range(n), repeat=arity - 1):
        first, *rest = sides(*row)
        if any(r != first for r in rest):
            for z in range(n):
                if any(r[z] != first[z] for r in rest):
                    rep.record(*exact(*row, z))
    return rep


def validate_bicharacter(e):
    """The bicharacter laws for a SignBicharacter, in closed form.

    Only skew-symmetry can fail, and it is checked on the |G|^2 pairs; the
    other four laws are returned as empty reports without a sweep.  Proof:
    the type's invariant makes every row and column of E at an odd modulus
    vanish mod 2, so a^T E b mod 2 only reads a_i and b_j at even moduli
    m_i, m_j, and there (a + b)_i = (a_i + b_i) mod m_i has the parity of
    a_i + b_i.  So the exponent is additive in each argument mod 2 and eps
    is additive on both sides; the exponent of (0, b) and (a, 0) is 0, so
    eps is 1 at the identity; and every value is +-1, so the diagonal sign
    law holds.  Finally eps(a, b) eps(b, a) = (-1)^(a^T (E + E^T) b), so
    the pair (a, b) fails skew-symmetry exactly when a^T (E + E^T) b is
    odd, with lhs -1 and rhs 1.  Each element's row of E + E^T is
    precomputed as a bitmask, so a pair costs one AND and one parity
    count."""
    skew_form = tuple(tuple(x ^ y for x, y in zip(row, col))
                      for row, col in zip(e.matrix, zip(*e.matrix)))
    els, forms = e.group._els, _forms(e.group, skew_form)
    zeros = [0] * len(els)

    def parities(a):  # a row whose skew form is 0 has nothing to compare
        form = forms[a][1]
        return (zeros, [(form & bits).bit_count() & 1 for bits, _ in forms]) if form else (zeros,)

    skew = _row_sweep("bicharacter:skew-symmetry", len(els), 2, parities,
                      lambda a, b: ((els[a], els[b]), (MINUS_ONE,), (ONE,)))
    return [skew] + [AxiomReport(f"bicharacter:{law}") for law in (
        "additivity-left", "additivity-right", "identity-element", "diagonal-sign")]


def _cleared(table):
    """D, the lcm of the table's denominators, and the rows of D * table as ints."""
    d = math.lcm(*(x.denominator for row in table for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in table]


def validate_bicharacter_table(t):
    """The same exhaustive bicharacter laws for a rational-valued table
    (used to certify the delta of a multiplier, and products of factors).

    With D the lcm of its denominators and T = D*t, the laws are swept on
    the ints of T: T(a, b) T(b, a) = D^2, T(a, 0) = D = T(0, a), T(a, a)^2
    = D^2, and D*T(a, b+c) = T(a, b) T(a, c), likewise on the right.  A
    violation is recorded with the table's own Fraction values."""
    g = t.group
    els, sums, val = g._els, g._sums, t._table
    n = g.order
    d, ints = _cleared(val)
    cols = [list(col) for col in zip(*ints)]
    square = [d * d] * n
    skew = _row_sweep("bicharacter:skew-symmetry", n, 2,
                      lambda a: (square, [x * y for x, y in zip(ints[a], cols[a])]),
                      lambda a, b: ((els[a], els[b]), (val[a][b] * val[b][a],), (ONE,)))
    # eps(a, b + c) = eps(a, b) eps(a, c)
    left = _row_sweep(
        "bicharacter:additivity-left", n, 3,
        lambda a, b: ([d * ints[a][k] for k in sums[b]], [ints[a][b] * x for x in ints[a]]),
        lambda a, b, c: ((els[a], els[b], els[c]), (val[a][sums[b][c]],),
                         (val[a][b] * val[a][c],)))
    # eps(a + b, c) = eps(a, c) eps(b, c)
    right = _row_sweep(
        "bicharacter:additivity-right", n, 3,
        lambda a, b: ([d * x for x in ints[sums[a][b]]], [x * y for x, y in zip(ints[a], ints[b])]),
        lambda a, b, c: ((els[a], els[b], els[c]), (val[sums[a][b]][c],),
                         (val[a][c] * val[b][c],)))
    unit = _row_sweep("bicharacter:identity-element", n, 1, lambda: ([d] * n, cols[0], ints[0]),
                      lambda a: ((els[a],), (val[a][0],), (val[0][a],)))
    diag = _row_sweep("bicharacter:diagonal-sign", n, 1,
                      lambda: (square, [ints[a][a] ** 2 for a in range(n)]),
                      lambda a: ((els[a],), (val[a][a],), (ONE,)))
    return [skew, left, right, unit, diag]


def _factor_laws(e):
    """The bicharacter laws of a commutation factor of either class."""
    if isinstance(e, SignBicharacter):
        return validate_bicharacter(e)
    return validate_bicharacter_table(e)


def validate_multiplier(s, symmetric=False):
    """Check the 2-cocycle law s(x, y+z)s(y, z) = s(x, y)s(x+y, z) on all
    triples; with `symmetric`, additionally check symmetry and the cyclic
    invariance of s(x, y)s(z, x+y) required by the symmetric-twist theorem.

    The three laws are homogeneous in s, of degrees 2, 1 and 2, so they
    hold for s exactly when they hold for D*s, where D is the lcm of the
    denominators of s: the sweeps compare the Python ints of D*s over the
    index tables.  A violation is recorded with the element tuples and
    the products of the original Fraction values."""
    g = s.group
    els, sums, val = g._els, g._sums, s._table
    n = g.order
    _, ints = _cleared(val)

    def after(x, y):
        # s(x, y + z) s(y, z) over z
        row = ints[x]
        return [row[k] * c for k, c in zip(sums[y], ints[y])]

    cocycle = _row_sweep(
        "multiplier:cocycle", n, 3,
        lambda x, y: (after(x, y), [ints[x][y] * c for c in ints[sums[x][y]]]),
        lambda x, y, z: ((els[x], els[y], els[z]), (val[x][sums[y][z]] * val[y][z],),
                         (val[x][y] * val[sums[x][y]][z],)))
    reports = [cocycle]
    if symmetric:
        cols = [list(col) for col in zip(*ints)]
        sym = _row_sweep(
            "multiplier:symmetry", n, 2, lambda x: (ints[x], cols[x]),
            lambda x, y: ((els[x], els[y]), (val[x][y],), (val[y][x],)))

        def cyclic(x, y):
            # s(x, y)s(z, x+y), s(y, z)s(x, y+z), s(z, x)s(y, z+x) over z
            row = ints[y]
            return ([ints[x][y] * c for c in cols[sums[x][y]]], after(x, y),
                    [c * row[k] for c, k in zip(cols[x], sums[x])])

        cyc = _row_sweep(
            "multiplier:cyclic-invariance", n, 3, cyclic,
            lambda x, y, z: ((els[x], els[y], els[z]), (val[x][y] * val[z][sums[x][y]],),
                             (val[y][z] * val[x][sums[y][z]], val[z][x] * val[y][sums[z][x]])))
        reports.extend([sym, cyc])
    return reports


def delta_from_multiplier(s):
    """delta(x, y) = s(x, y) / s(y, x), the bicharacter associated with s."""
    val = s._table
    return MultiplierTable(s.group, tuple(tuple(a / b for a, b in zip(row, col))
                                          for row, col in zip(val, zip(*val))))


def twist_epsilon(e, d):
    """Pointwise product of two commutation factors on the same group."""
    if e.group != d.group:
        raise ShapeError("commutation factors live on different groups")
    return MultiplierTable(e.group, tuple(tuple(a * b for a, b in zip(ra, rb))
                                          for ra, rb in zip(e._table, d._table)))
