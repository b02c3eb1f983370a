"""Graded linear algebra over exact rationals.

Bases carry one group degree per index, linear maps are required to be
even (degree preserving), and bilinear products are sparse structure
constant tables whose nonzero constants respect the grading.  The
checkers sweep every basis pair/triple; an empty report certifies the
identity on the whole algebra by multilinearity.

The sweeps run on sparse vectors, {index: Fraction} dicts with zeros
dropped: a product visits only the nonzero x_i and, in the product's row
index for i, only the nonzero y_j; a map reads its sparse columns.  Each
checker is one `report._sweep` call, through `_sweep`, over every basis
tuple; only a recorded violation is expanded into dense tuples of
Fraction.  The public `apply`, `of_pair` and `column` work on dense
tuples; the test suite's dense reference is written with them alone.
"""

import itertools
from fractions import Fraction
from functools import cached_property, partial
from types import MappingProxyType

from ._record import record, replace
from .errors import (
    EvennessError,
    HypothesisError,
    MissingComponentError,
    ShapeError,
    SingularMapError,
)
from .grading import _integers, _rational
from . import report

ZERO = Fraction(0)
ONE = Fraction(1)
_EMPTY = MappingProxyType({})


# ---------------------------------------------------------------------------
# bases, maps, products

@record
class GradedBasis:
    group: object
    degrees: tuple

    def __post_init__(self):
        degs = tuple(tuple(d) for d in self.degrees)
        if not degs:
            raise ShapeError("basis must have dimension >= 1")
        for d in degs:
            if not self.group.is_canonical(d):
                raise ShapeError(f"degree {d} is not canonical for the group")
        object.__setattr__(self, "degrees", degs)

    @property
    def dim(self):
        return len(self.degrees)


@record
class EvenLinearMap:
    """Square rational matrix; column j is the image of basis vector j.
    Nonzero entries may only link equal degrees."""

    basis: GradedBasis
    matrix: tuple

    def __post_init__(self):
        n = self.basis.dim
        rows = tuple(tuple(_rational(x, "map entries") for x in row) for row in self.matrix)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ShapeError(f"matrix must be {n}x{n}")
        degs = self.basis.degrees
        for i in range(n):
            for j in range(n):
                if rows[i][j] != 0 and degs[i] != degs[j]:
                    raise EvennessError(
                        f"entry ({i},{j}) links degree {degs[j]} to {degs[i]}"
                    )
        object.__setattr__(self, "matrix", rows)

    @cached_property
    def _columns(self):
        """Column j as {i: c}, nonzero entries only."""
        rows = self.matrix
        return tuple({i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows)))

    @classmethod
    def identity(cls, basis):
        return cls.scalar(basis, ONE)

    @classmethod
    def scalar(cls, basis, c):
        return cls.diagonal(basis, [c] * basis.dim)

    @classmethod
    def diagonal(cls, basis, entries):
        n = basis.dim
        entries = [_rational(e, "diagonal entries") for e in entries]
        if len(entries) != n:
            raise ShapeError("diagonal length mismatch")
        return cls(basis, tuple(tuple(entries[i] if i == j else ZERO for j in range(n)) for i in range(n)))

    def apply(self, vec):
        n = self.basis.dim
        if len(vec) != n:
            raise ShapeError("vector length mismatch")
        support = [j for j in range(n) if vec[j]]
        return tuple(sum((row[j] * vec[j] for j in support), ZERO) for row in self.matrix)

    def column(self, j):
        return tuple(row[j] for row in self.matrix)

    def compose(self, other):
        """self after other, both on the same basis."""
        if self.basis != other.basis:
            raise ShapeError("composed maps need a common basis")
        n = self.basis.dim
        return EvenLinearMap(
            self.basis,
            tuple(
                tuple(sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            ),
        )

    def power(self, k):
        _integers((k,), "map powers")
        if k < 0:
            raise ShapeError("negative map power")
        out = EvenLinearMap.identity(self.basis)
        for _ in range(k):
            out = out.compose(self)
        return out

    def inverse(self):
        """Exact Gauss-Jordan inverse; raises SingularMapError if singular."""
        n = self.basis.dim
        a = [list(row) for row in self.matrix]
        inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                raise SingularMapError("map is not invertible")
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return EvenLinearMap(self.basis, tuple(tuple(row) for row in inv))


@record
class BilinearProduct:
    """Sparse structure constants: entries are (i, j, k, c) with
    e_i e_j = sum_k c e_k, sorted lexicographically, zero c dropped.
    Indexed once, on first use, as the row index i -> {j: {k: c}} in
    entry order; every reader goes through it."""

    basis: GradedBasis
    entries: tuple

    def __post_init__(self):
        n = self.basis.dim
        merged = {}
        for (i, j, k, c) in self.entries:
            c = _rational(c, "structure constants")
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j, k)):
                raise ShapeError(f"structure constant indices must be integers: {(i, j, k)}")
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ShapeError(f"structure constant index out of range: {(i, j, k)}")
            merged[(i, j, k)] = merged.get((i, j, k), ZERO) + c
        degs = self.basis.degrees
        g = self.basis.group
        clean = []
        for (i, j, k), c in sorted(merged.items()):
            if c == 0:
                continue
            if degs[k] != g.add(degs[i], degs[j]):
                raise EvennessError(
                    f"constant ({i},{j})->{k} violates the grading: "
                    f"{degs[i]} + {degs[j]} != {degs[k]}"
                )
            clean.append((i, j, k, c))
        object.__setattr__(self, "entries", tuple(clean))

    @cached_property
    def _rows(self):
        rows = {}
        for (i, j, k, c) in self.entries:
            rows.setdefault(i, {}).setdefault(j, {})[k] = c
        return rows

    @classmethod
    def zero(cls, basis):
        return cls(basis, ())

    def of_pair(self, i, j):
        n = self.basis.dim
        out = [ZERO] * n
        for k, c in _pair(self, i, j).items():
            out[k] += c
        return tuple(out)

    def apply(self, x, y):
        """Bilinear extension: (sum x_i e_i)(sum y_j e_j)."""
        n = self.basis.dim
        if len(x) != n or len(y) != n:
            raise ShapeError("vector length mismatch in product")
        out = [ZERO] * n
        for i, row in self._rows.items():
            for j, terms in row.items():
                if not (x[i] and y[j]):
                    continue
                f = x[i] * y[j]
                for k, c in terms.items():
                    out[k] += f * c
        return tuple(out)


@record
class GradedAlgebra:
    """A graded basis with up to two structure-constant products, an even
    twisting map alpha and a commutation factor epsilon (sign bicharacter
    or rational table), all over the basis's grading group."""

    epsilon: object
    basis: GradedBasis
    mu: object
    bracket: object
    alpha: EvenLinearMap

    def __post_init__(self):
        if self.mu is None and self.bracket is None:
            raise MissingComponentError("algebra must carry at least one product")
        if self.alpha is None:
            raise MissingComponentError("algebra has no alpha")
        if self.epsilon.group != self.basis.group:
            raise ShapeError("commutation factor group differs from algebra group")
        for p in (self.mu, self.bracket):
            if p is not None and p.basis != self.basis:
                raise ShapeError("product basis differs from algebra basis")
        if self.alpha.basis != self.basis:
            raise ShapeError("alpha basis differs from algebra basis")

    @property
    def group(self):
        return self.basis.group

    @property
    def dim(self):
        return self.basis.dim

    @cached_property
    def eps(self):
        """Row i, column j is the commutation factor between the degrees
        of basis indices i and j."""
        degs, value = self.basis.degrees, self.epsilon.value
        return tuple(tuple(value(a, b) for b in degs) for a in degs)

    def replace(self, **kw):
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# sparse kernel: vectors are {index: Fraction} dicts with zeros dropped

def _nonzero(acc):
    return {k: v for k, v in acc.items() if v}


def _product(p, x, y):
    """p(x, y): the nonzero x_i, then the nonzero y_j of row i's index."""
    acc = {}
    rows = p._rows
    for i, xi in x.items():
        for j, terms in rows.get(i, _EMPTY).items():
            yj = y.get(j)
            if yj is None:
                continue
            f = xi * yj
            for k, c in terms.items():
                acc[k] = acc[k] + f * c if k in acc else f * c
    return _nonzero(acc)


def _mapped(m, x):
    """m(x): the sum of x_j times m's sparse column j."""
    columns = m._columns
    return _combined(*[(xj, columns[j]) for j, xj in x.items()])


def _combined(*terms):
    """The sum of c * v over the (c, v) terms."""
    acc = {}
    for c, v in terms:
        for k, x in v.items():
            acc[k] = acc[k] + c * x if k in acc else c * x
    return _nonzero(acc)


def _pair(p, i, j):
    """p(e_i, e_j), read-only."""
    return p._rows.get(i, _EMPTY).get(j, _EMPTY)


def _dense(v, n):
    return tuple(v.get(k, ZERO) for k in range(n))


def _tabulated(basis, product):
    """The BilinearProduct whose e_i e_j is the sparse vector product(i, j)."""
    pairs = itertools.product(range(basis.dim), repeat=2)
    return BilinearProduct(basis, tuple((i, j, k, c) for i, j in pairs for k, c in product(i, j).items()))


# ---------------------------------------------------------------------------
# per-basis-tuple residuals (structure-constant composition path)

def _require(A, *names):
    for name in names:
        if getattr(A, name) is None:
            raise MissingComponentError(f"algebra has no {name}")


def _gate(reports, message):
    """Raise HypothesisError(message) with the reports that failed, if any."""
    bad = [r for r in reports if not r.ok]
    if bad:
        raise HypothesisError(message, bad)


def _assoc_residual(A, i, j, k):
    a, mu = A.alpha._columns, A.mu
    return _product(mu, a[i], _pair(mu, j, k)), _product(mu, _pair(mu, i, j), a[k])


def _jacobi_residual(A, i, j, k):
    a, eps, br = A.alpha._columns, A.eps, A.bracket
    lhs = _combined(
        (eps[k][i], _product(br, a[i], _pair(br, j, k))),
        (eps[i][j], _product(br, a[j], _pair(br, k, i))),
        (eps[j][k], _product(br, a[k], _pair(br, i, j))),
    )
    return lhs, {}


def _leibniz_residual(A, i, j, k):
    a, eps, mu, br = A.alpha._columns, A.eps, A.mu, A.bracket
    lhs = _product(br, a[i], _pair(mu, j, k))
    rhs = _combined(
        (ONE, _product(mu, _pair(br, i, j), a[k])),
        (eps[i][j], _product(mu, a[j], _pair(br, i, k))),
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# checkers

def _sweep(label, n, arity, residual):
    """One report for `label` over every basis tuple of the given arity;
    `residual(*indices)` returns the sparse (lhs, rhs) pair that must
    agree.  report._sweep hands a violating pair back, expanded here."""
    return report._sweep(label, n, arity,
                         lambda *row: zip(*[residual(*row, z) for z in range(n)]),
                         lambda values, *idx: (idx, *(_dense(v, n) for v in values)))


def _intertwines(label, f, src_alpha, dst_alpha):
    """f . src_alpha == dst_alpha . f, column by column."""
    return _sweep(label, f.basis.dim, 1,
                  lambda j: (_mapped(f, src_alpha._columns[j]), _mapped(dst_alpha, f._columns[j])))


def check_hom_associative(A):
    _require(A, "mu")
    return _sweep("hom-associativity", A.dim, 3, partial(_assoc_residual, A))


def check_epsilon_commutative(A):
    _require(A, "mu")
    mu = A.mu
    return _sweep("epsilon-commutativity", A.dim, 2,
                  lambda i, j: (_pair(mu, i, j), _combined((A.eps[i][j], _pair(mu, j, i)))))


def check_hom_lie(A):
    _require(A, "bracket")
    br = A.bracket
    skew = _sweep("epsilon-skew-symmetry", A.dim, 2,
                  lambda i, j: (_pair(br, i, j), _combined((-A.eps[i][j], _pair(br, j, i)))))
    return [skew, _sweep("hom-jacobi", A.dim, 3, partial(_jacobi_residual, A))]


def check_hom_leibniz(A):
    _require(A, "mu", "bracket")
    return _sweep("hom-leibniz", A.dim, 3, partial(_leibniz_residual, A))


def _axioms(A, commutative=False):
    """The product axioms that apply to A, in report order:
    Hom-associativity and, if asked for, eps-commutativity when A carries
    mu; eps-skew-symmetry and the Hom-Jacobi identity when it carries a
    bracket; the Hom-Leibniz rule when it carries both."""
    reports = []
    if A.mu is not None:
        reports.append(check_hom_associative(A))
        if commutative:
            reports.append(check_epsilon_commutative(A))
    if A.bracket is not None:
        reports.extend(check_hom_lie(A))
        if A.mu is not None:
            reports.append(check_hom_leibniz(A))
    return reports


def check_hom_poisson(A):
    _require(A, "mu", "bracket")
    return _axioms(A)


def commutator_bracket(A):
    """Extend A with the commutator bracket mu - eps * mu^op.  Rejects
    non-Hom-associative inputs with the offending report."""
    _gate([check_hom_associative(A)], "commutator bracket requires a Hom-associative product")
    mu = A.mu
    return A.replace(bracket=_tabulated(A.basis, lambda i, j: _combined(
        (ONE, _pair(mu, i, j)), (-A.eps[i][j], _pair(mu, j, i)))))


def check_morphism(f, src, dst):
    """f : src -> dst must intertwine alpha and preserve every product
    src carries (which dst must then carry as well).  f, src and dst share
    one basis: f's matrix is read on it."""
    if f.basis.dim != src.basis.dim or src.basis.dim != dst.basis.dim:
        raise ShapeError("morphism check needs equal dimensions")
    if not f.basis == src.basis == dst.basis:
        raise ShapeError("morphism check needs a common basis")
    reports = [_intertwines("morphism:alpha", f, src.alpha, dst.alpha)]
    columns = f._columns
    for name in ("mu", "bracket"):
        p_src = getattr(src, name)
        if p_src is None:
            continue
        p_dst = getattr(dst, name)
        if p_dst is None:
            raise MissingComponentError(f"target algebra has no {name}")
        reports.append(_sweep(
            f"morphism:{name}", src.dim, 2,
            lambda i, j: (_mapped(f, _pair(p_src, i, j)), _product(p_dst, columns[i], columns[j])),
        ))
    return reports
