"""Graded linear algebra over exact rationals.

Bases carry one group degree per index, linear maps are required to be
even (degree preserving), and bilinear products are sparse structure
constant tables whose nonzero constants respect the grading.  The
checkers certify their laws on every basis index, pair or triple, hence
on the whole algebra by multilinearity.

The map and pair laws are each one `report._sweep` call, through `_sweep`,
on sparse vectors ({index: Fraction} dicts with zeros dropped; a product
visits only the nonzero x_i and, in its row index for i, the nonzero y_j).
The trilinear laws are sparse joins on the ints of D * constants (D the
lcm of their denominators, indexed once per object by `_ints`): each is a
weighted sum of outer(p, q)(x, y, w) = p(alpha e_x, q(e_y, e_w)) and
inner(p, q)(x, y, w) = p(q(e_x, e_y), alpha e_w), read with the first index
fixed by walking only nonzero alpha entries and constants.  A triple that
no walk reaches is zero on both sides, so a PASS still certifies every
basis triple.  Only a violation is expanded into dense tuples of Fraction.
The public `apply`, `of_pair` and `column` work on dense tuples; the test
suite's dense reference is written with them.
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
from .grading import _cleared, _integers, _is_int, _rational, _square
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
        degs = tuple(self.degrees)
        if not degs:
            raise ShapeError("basis must have dimension >= 1")
        for d in degs:
            if not self.group.is_canonical(d):
                raise ShapeError(f"degree {d!r} is not canonical for the group")
        object.__setattr__(self, "degrees", tuple(map(tuple, degs)))

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
        rows = _square(self.matrix, n, partial(_rational, what="map entries"), "matrix")
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

    @cached_property
    def _ints(self):
        """(D, columns j -> {i: c}, rows i -> {j: c}), nonzero entries of D * self as ints."""
        d, rows, cols = _cleared(self.matrix)
        return d, *([{k: c for k, c in enumerate(line) if c} for line in lines] for lines in (cols, rows))

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
        """self after other, both on the same basis: column j is self
        applied to other's sparse column j."""
        if self.basis != other.basis:
            raise ShapeError("composed maps need a common basis")
        n = self.basis.dim
        columns = [_dense(_mapped(self, c), n) for c in other._columns]
        return EvenLinearMap(self.basis, tuple(zip(*columns)))

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
    e_i e_j = sum_k c e_k, sorted lexicographically, zero c dropped, and
    a repeated (i, j, k) summed.  Indexed on first use, in entry order,
    twice: `_rows`, i -> {j: {k: c}} over Fraction, which the pair and
    map laws and the constructions read, and `_ints`, the cleared-int
    indexes that the trilinear joins read."""

    basis: GradedBasis
    entries: tuple

    def __post_init__(self):
        n = self.basis.dim
        merged = {}
        for (i, j, k, c) in self.entries:
            c = _rational(c, "structure constants")
            if not all(map(_is_int, (i, j, k))):
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

    @cached_property
    def _ints(self):
        """(D, rows i -> {j: {k: c}}, columns j -> {i: {k: c}}, outputs k ->
        [(i, j, c)]), the constants c of D * self as ints, in entry order."""
        d, (ints,), _ = _cleared([[c for *_, c in self.entries]])
        rows, cols, outputs = {}, {}, {}
        for (i, j, k, _), c in zip(self.entries, ints):
            rows.setdefault(i, {}).setdefault(j, {})[k] = c
            cols.setdefault(j, {}).setdefault(i, {})[k] = c
            outputs.setdefault(k, []).append((i, j, c))
        return d, rows, cols, outputs

    def of_pair(self, i, j):
        return _dense(_pair(self, i, j), self.basis.dim)

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
        at = list(map(self.group.index, self.basis.degrees))
        values = self.epsilon.values
        return tuple(tuple(values[i][j] for j in at) for i in at)

    @cached_property
    def _ints(self):
        """_cleared(eps): D, and the rows and the columns of D * eps as ints."""
        return _cleared(self.eps)

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
# trilinear laws as sparse joins on cleared ints (see the module docstring)

def _walk(block, P, Q, al, slot, i, weights, swap=False):
    """Add outer(p, q) with index `slot` (0 or 1) fixed at i to block, keyed
    by the other two indices (swapped with `swap`), each term times
    weights[w] at slot 0 and weights[o][x] at slot 1.  P, Q and al are the
    `_ints` of p, q and alpha; a reversed P or Q indexes the opposite product."""
    if slot == 0:  # alpha's column i, p's row a, q's pairs (y, w) with an e_m term
        steps = (((y, w), f * c * weights[w], pz) for a, f in al[1][i].items()
                 for m, pz in P[1].get(a, _EMPTY).items() for y, w, c in Q[3].get(m, ()))
    else:  # q's row i at o, p's column m, alpha's row a at x
        steps = (((o, x) if swap else (x, o), f * c * weights[o][x], pz)
                 for o, qm in Q[1].get(i, _EMPTY).items() for m, c in qm.items()
                 for a, pz in P[2].get(m, _EMPTY).items() for x, f in al[2][a].items())
    for key, f, terms in steps:
        acc = block.setdefault(key, {})
        for z, c in terms.items():
            acc[z] = acc.get(z, 0) + f * c


def _sides(A, label, i):
    """(scale, lhs, rhs): a trilinear law's scale and its blocks at first
    index i.  With T = outer([,], [,]) and eps cleared over D, the laws are
      Hom-associativity  outer(mu, mu)(i, j, k) = inner(mu, mu)(i, j, k),
      Hom-Leibniz  D outer([,], mu)(i, j, k)
                       = D inner(mu, [,])(i, j, k) + eps(i, j) outer(mu, [,])(j, i, k),
      Hom-Jacobi  eps(k, i) T(i, j, k) + eps(j, k) T(k, i, j) + eps(i, j) T(j, k, i) = 0."""
    n, al, mu, br = A.dim, A.alpha._ints, A.mu and A.mu._ints, A.bracket and A.bracket._ints
    d, eps, cols = (1, None, None) if label == "hom-associativity" else A._ints
    p, q = (mu, mu) if label == "hom-associativity" else (br, br if label == "hom-jacobi" else mu)
    lhs, rhs = {}, {}
    if label == "hom-jacobi":
        _walk(lhs, br, br, al, 0, i, cols[i])
        _walk(lhs, br, br, al, 1, i, eps, True)
        _walk(lhs, br, br[::-1], al, 1, i, [eps[i]] * n)
    else:  # outer(p, mu) = inner(mu, p), plus the twisted term for p = [,]
        _walk(lhs, p, mu, al, 0, i, [d] * n)
        _walk(rhs, mu[::-1], p, al, 1, i, [[d] * n] * n, True)
        if label == "hom-leibniz":
            _walk(rhs, mu, br, al, 1, i, [eps[i]] * n)
    return d * p[0] * q[0] * al[0], lhs, rhs


def _trilinear(label, A):
    """The report for a trilinear law.  A tuple that no walk reaches is zero
    on both sides, and a violation records each side over the law's scale."""
    n, violations = A.dim, []
    for i in range(n):
        scale, lhs, rhs = _sides(A, label, i)
        for key in sorted(lhs.keys() | rhs.keys()):
            u, v = lhs.get(key, _EMPTY), rhs.get(key, _EMPTY)
            if u != v and any(u.get(z, 0) != v.get(z, 0) for z in u.keys() | v.keys()):
                violations.append(report.Violation((i, *key), *(
                    tuple(Fraction(s[z], scale) if s.get(z) else ZERO for z in range(n)) for s in (u, v))))
    return report.AxiomReport(label, violations)


# ---------------------------------------------------------------------------
# checkers

def _require(A, *names):
    for name in names:
        if getattr(A, name) is None:
            raise MissingComponentError(f"algebra has no {name}")


def _gate(reports, message):
    """Raise HypothesisError(message) with the reports that failed, if any."""
    bad = [r for r in reports if not r.ok]
    if bad:
        raise HypothesisError(message, bad)


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
    return _trilinear("hom-associativity", A)


def _commutes(label, A, p, sign):
    """p(e_i, e_j) = sign * eps(i, j) * p(e_j, e_i) on every basis pair."""
    eps = A.eps
    return _sweep(label, A.dim, 2,
                  lambda i, j: (_pair(p, i, j), _combined((sign * eps[i][j], _pair(p, j, i)))))


def check_epsilon_commutative(A):
    _require(A, "mu")
    return _commutes("epsilon-commutativity", A, A.mu, 1)


def check_hom_lie(A):
    _require(A, "bracket")
    return [_commutes("epsilon-skew-symmetry", A, A.bracket, -1),
            _trilinear("hom-jacobi", A)]


def check_hom_leibniz(A):
    _require(A, "mu", "bracket")
    return _trilinear("hom-leibniz", A)


def _axioms(A, commutative=False):
    """The product axioms that apply to A, in report order:
    Hom-associativity when A carries mu; eps-commutativity if asked for,
    which needs mu; eps-skew-symmetry and the Hom-Jacobi identity when it
    carries a bracket; the Hom-Leibniz rule when it carries both."""
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
