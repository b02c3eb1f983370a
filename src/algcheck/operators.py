"""Operator classification on graded algebras.

Decides whether an even linear map is a centroid element, averaging
operator, Rota-Baxter operator or Nijenhuis operator, for each product
the algebra carries.  Every predicate is one `report._sweep`, through
`core._sweep`, over the basis pairs per product and law.
"""

import itertools

from . import KINDS
from ._record import record
from .core import (
    ONE,
    EvenLinearMap,
    _combined,
    _gate,
    _intertwines,
    _mapped,
    _pair,
    _product,
    _require,
    _sweep,
    commutator_bracket,
)
from .errors import InvalidRepresentationError, SearchSpaceError, ShapeError
from .grading import _integers, _rational
from .report import all_ok

MAX_POWER = 4
MAX_SEARCH_DIM = 6
MAX_SEARCH_SIZE = 200_000


@record
class OperatorClaim:
    map: EvenLinearMap
    kind: str
    power: int = 0
    weight: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidRepresentationError(f"unknown operator kind {self.kind!r}")
        _integers((self.power,), "operator powers")
        if self.weight is not None:
            object.__setattr__(self, "weight", _rational(self.weight, "weight"))
        elif self.kind == "rota-baxter":
            raise InvalidRepresentationError("rota-baxter claims need a weight")
        if self.kind in ("centroid", "averaging"):
            if not (0 <= self.power <= MAX_POWER):
                raise InvalidRepresentationError(
                    f"power must lie in [0, {MAX_POWER}], got {self.power}"
                )


def _deformed(p, claim, i, j):
    """The twisted product of e_i and e_j for a Rota-Baxter or Nijenhuis
    claim with map b: p(b e_i, e_j) + p(e_i, b e_j) plus the last term,
    weight * p(e_i, e_j) for a Rota-Baxter claim and -b(p(e_i, e_j)) for a
    Nijenhuis claim.  The operator law compares p(b e_i, b e_j) with its
    image under b, and the two twists tabulate it, so the gate, the twist
    and the morphism check all read this one statement."""
    b, pij = claim.map, _pair(p, i, j)
    last = (claim.weight, pij) if claim.kind == "rota-baxter" else (-ONE, _mapped(b, pij))
    return _combined((ONE, _product(p, b._columns[i], {j: ONE})),
                     (ONE, _product(p, {i: ONE}, b._columns[j])), last)


def _laws(claim, p, ak, name):
    """The (label, law) sweeps of check_operator for `claim` on the
    product p named `name`, in report order."""
    b, kind = claim.map, claim.kind
    bc, label = b._columns, f"{kind}:{name}"
    if kind == "centroid":
        left, right = (
            lambda i, j: (_mapped(b, _pair(p, i, j)), _product(p, bc[i], ak[j])),
            lambda i, j: (_mapped(b, _pair(p, i, j)), _product(p, ak[i], bc[j])),
        )
    elif kind == "averaging":
        left, right = (
            lambda i, j: (_mapped(b, _product(p, bc[i], ak[j])), _product(p, bc[i], bc[j])),
            lambda i, j: (_product(p, bc[i], bc[j]), _mapped(b, _product(p, ak[i], bc[j]))),
        )
    else:
        return [(label, lambda i, j: (_product(p, bc[i], bc[j]),
                                      _mapped(b, _deformed(p, claim, i, j))))]
    # the right-hand law is checked for mu only
    return [(f"{label}:left", left)] + ([(f"{label}:right", right)] if name == "mu" else [])


def check_operator(A, claim, products="all"):
    """Check the claimed operator identities on all basis pairs, for each
    product of A selected by `products` ("all", "mu" or "bracket")."""
    b = claim.map
    if b.basis != A.basis:
        raise ShapeError("operator basis differs from algebra basis")
    if products == "all":
        names = [n for n in ("mu", "bracket") if getattr(A, n) is not None]
    elif products in ("mu", "bracket"):
        _require(A, products)
        names = [products]
    else:
        raise ShapeError(f"unknown product selector {products!r}")

    ak = A.alpha.power(claim.power)._columns if claim.kind in ("centroid", "averaging") else None
    return [_intertwines("operator:alpha-commutation", b, A.alpha, A.alpha)] + [
        _sweep(label, A.dim, 2, law)
        for name in names for label, law in _laws(claim, getattr(A, name), ak, name)]


def check_nijenhuis_transfer(A, N):
    """Gate: N is Nijenhuis for mu.  Then build the commutator bracket and
    check that N is Nijenhuis for the bracket as well."""
    _gate(check_operator(A, OperatorClaim(N, "nijenhuis"), products="mu"),
          "map is not a Nijenhuis operator for the product")
    P = commutator_bracket(A)
    return check_operator(P, OperatorClaim(N, "nijenhuis"), products="bracket")


def search_diagonal_operators(A, kind, candidate_values, power=0, weight=None):
    """Enumerate diagonal even maps with entries from the candidate set and
    return those passing check_operator, in deterministic order."""
    if A.dim > MAX_SEARCH_DIM:
        raise SearchSpaceError(f"search limited to dimension {MAX_SEARCH_DIM}, got {A.dim}")
    candidates = sorted({_rational(c, "candidate values") for c in candidate_values})
    size = len(candidates) ** A.dim
    if size > MAX_SEARCH_SIZE:
        raise SearchSpaceError(
            f"candidate space has {size} diagonal maps, bound is {MAX_SEARCH_SIZE}"
        )
    found = []
    for diag in itertools.product(candidates, repeat=A.dim):
        m = EvenLinearMap.diagonal(A.basis, diag)
        claim = OperatorClaim(m, kind, power=power, weight=weight)
        if all_ok(check_operator(A, claim)):
            found.append(m)
    return found
