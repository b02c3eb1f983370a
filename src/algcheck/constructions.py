"""Algebra-to-algebra construction theorems.

Every construction gates its hypotheses first (raising HypothesisError
with the offending reports), builds the new algebra, then re-certifies
the output exhaustively.  Every construction but `xi_twist`, whose laws
do not read eps, gates the commutation factor on the bicharacter laws.
Outputs always carry their certification reports; a construction never
silently emits an unchecked algebra.

Every product is built by one builder, `core._tabulated`: a construction
states its new product pair by pair as a sparse vector, read off the old
product and the maps through the sparse kernel (`_product`, `_mapped`,
`_combined`, `_pair`), and `_rebuilt` tabulates it for each product the
input carries.
"""

from functools import partial

from ._record import factory, record
from .core import (
    ONE,
    EvenLinearMap,
    GradedAlgebra,
    GradedBasis,
    _combined,
    _gate,
    _mapped,
    _pair,
    _product,
    _tabulated,
    check_epsilon_commutative,
    check_hom_associative,
    check_hom_poisson,
    check_morphism,
)
from .errors import HypothesisError, IncompatibilityError, ShapeError
from .grading import (
    _rational,
    delta_from_multiplier,
    twist_epsilon,
    validate_bicharacter,
    validate_multiplier,
)
from .operators import OperatorClaim, _deformed, check_operator
from .report import all_ok


@record
class ConstructionResult:
    """A constructed algebra together with its evidence.

    `certification` re-runs the axioms the theorem asserts for the output;
    `morphism` holds the checks of the morphisms the theorem asserts;
    `findings` holds recorded verdicts that are evidence rather than
    theorem content (currently only the centroid twist's morphism claim,
    whose proof is absent from the source material)."""

    algebra: GradedAlgebra
    certification: list = factory(list)
    morphism: list = factory(list)
    findings: list = factory(list)

    @property
    def ok(self):
        return all_ok(self.certification) and all_ok(self.morphism)


def _rebuilt(P, product, names=("mu", "bracket"), **replace):
    """P with each named product p it carries replaced by the tabulation
    of (i, j) -> product(p, i, j), on replace's basis if it names one."""
    basis = replace.get("basis", P.basis)
    for name in names:
        p = getattr(P, name)
        if p is not None:
            replace[name] = _tabulated(basis, partial(product, p))
    return P.replace(**replace)


def _gate_factor(P):
    """Gate P's commutation factor on the bicharacter laws."""
    _gate(validate_bicharacter(P.epsilon), "commutation factor is not a bicharacter")


def _gate_input(P):
    """Gate P's commutation factor, then P's Hom-Poisson axioms."""
    _gate_factor(P)
    _gate(check_hom_poisson(P), "input is not a Hom-Poisson color algebra")


def _rescaled(s, p, i, j):
    """s(deg e_i, deg e_j) p(e_i, e_j)."""
    degs = p.basis.degrees
    return _combined((s.value(degs[i], degs[j]), _pair(p, i, j)))


# ---------------------------------------------------------------------------

def xi_twist(A, xi):
    """New product x *_xi y = x xi y on an algebra that is both plainly
    associative and Hom-associative.  xi must be homogeneous of degree 0
    so the new product stays even."""
    if len(xi) != A.dim:
        raise ShapeError("xi has the wrong length")
    degs, zero = A.basis.degrees, A.group.zero
    xi = {k: c for k, c in enumerate(_rational(c, "xi coordinates") for c in xi) if c}
    if any(degs[k] != zero for k in xi):
        raise HypothesisError("xi must be homogeneous of degree 0", [])
    plain = A.replace(alpha=EvenLinearMap.identity(A.basis))
    _gate([check_hom_associative(plain)], "product is not plainly associative")
    _gate([check_hom_associative(A)], "product is not Hom-associative")
    out = _rebuilt(A, lambda mu, i, j: _product(mu, _product(mu, {i: ONE}, xi), {j: ONE}),
                   names=("mu",))
    return ConstructionResult(out, certification=[check_hom_associative(out)])


def multiplier_twist_symmetric(P, s):
    """Rescale both products by a symmetric, cyclically invariant
    multiplier; same commutation factor, same alpha."""
    if s.group != P.group:
        raise ShapeError("multiplier group differs from algebra group")
    _gate(validate_multiplier(s, symmetric=True), "multiplier fails the symmetric-twist gate")
    _gate_input(P)
    out = _rebuilt(P, partial(_rescaled, s))
    return ConstructionResult(out, certification=check_hom_poisson(out))


def multiplier_twist_delta(P, s, endomorphisms=()):
    """Rescale both products by a (not necessarily symmetric) multiplier
    and replace the commutation factor by eps * delta, where
    delta(x, y) = s(x, y)/s(y, x).  Every endomorphism of the input is
    re-verified as an endomorphism of the twist."""
    if s.group != P.group:
        raise ShapeError("multiplier group differs from algebra group")
    _gate(validate_multiplier(s), "multiplier fails the cocycle gate")
    _gate_input(P)
    delta = delta_from_multiplier(s)
    if all(v == 1 for row in delta.values for v in row):
        factor = P.epsilon  # sigma symmetric: keep the original representation
    else:
        factor = twist_epsilon(P.epsilon, delta)
    out = _rebuilt(P, partial(_rescaled, s), epsilon=factor)
    morphism = []
    for f in endomorphisms:
        _gate(check_morphism(f, P, P), "map is not an endomorphism of the input")
        morphism.extend(check_morphism(f, out, out))
    return ConstructionResult(out, certification=check_hom_poisson(out), morphism=morphism)


def transport_along_bijection(Pp, f):
    """Pull the structure of Pp back along an invertible even map:
    x . y = f^-1(f(x) .' f(y)), likewise for the bracket, and
    alpha = f^-1 alpha' f.  f becomes a morphism onto Pp."""
    if f.basis != Pp.basis:
        raise ShapeError("map basis differs from algebra basis")
    finv, fc = f.inverse(), f._columns
    _gate_factor(Pp)
    out = _rebuilt(Pp, lambda p, i, j: _mapped(finv, _product(p, fc[i], fc[j])),
                   alpha=finv.compose(Pp.alpha).compose(f))
    return ConstructionResult(out, certification=check_hom_poisson(out),
                              morphism=check_morphism(f, out, Pp))


def centroid_twist(P, b):
    """Keep the product, replace the bracket by {x, y} = [beta(x), y] for a
    centroid element beta (k = 0).  The output is re-certified like every
    other twist: that verdict goes into `certification` and sets the exit
    code.  The source theorem's proof is absent, so the morphism claim
    (beta from the twist onto the input) is recorded in `findings` rather
    than asserted."""
    _gate_input(P)
    _gate(check_operator(P, OperatorClaim(b, "centroid")), "map is not a centroid element")
    bc = b._columns
    out = _rebuilt(P, lambda p, i, j: _product(p, bc[i], {j: ONE}), names=("bracket",))
    return ConstructionResult(out, certification=check_hom_poisson(out),
                              findings=check_morphism(b, out, P))


def averaging_twist_pairwise(P, b):
    """x * y = beta(x) . beta(y), {x, y} = [beta(x), beta(y)] for an
    averaging operator beta (k = 0); same alpha."""
    _gate_input(P)
    _gate(check_operator(P, OperatorClaim(b, "averaging")), "map is not an averaging operator")
    bc = b._columns
    out = _rebuilt(P, lambda p, i, j: _product(p, bc[i], bc[j]))
    return ConstructionResult(out, certification=check_hom_poisson(out))


def averaging_twist_untwisted(P, b):
    """Starting from an untwisted Poisson color algebra (alpha = id) with
    an averaging operator beta: x * y = beta(x) . y, {x, y} = [beta(x), y],
    and beta itself becomes the new twisting map.  The output is not
    Hom-associative in general: that needs
    beta^2(x).(beta(y).z) = (beta(x).beta(y)).beta(z), which averaging does
    not grant (the projection on K[Z2] fails it), so the re-certification
    verdict is the evidence rather than an assumed property."""
    if P.alpha != EvenLinearMap.identity(P.basis):
        raise HypothesisError("this construction starts from an untwisted algebra (alpha = id)", [])
    _gate_factor(P)
    _gate(check_hom_poisson(P), "input is not a Poisson color algebra")
    _gate(check_operator(P, OperatorClaim(b, "averaging")), "map is not an averaging operator")
    bc = b._columns
    out = _rebuilt(P, lambda p, i, j: _product(p, bc[i], {j: ONE}), alpha=b)
    return ConstructionResult(out, certification=check_hom_poisson(out))


def averaging_twist_power(P, b, k):
    """x * y = beta(x) . alpha^k(y), likewise for the bracket, for a
    bijective alpha^k-averaging operator beta; same alpha.  beta is a
    morphism from the twist onto the input."""
    b.inverse()  # raises SingularMapError when not bijective
    claim = OperatorClaim(b, "averaging", power=k)  # checks k before any sweep
    _gate_input(P)
    _gate(check_operator(P, claim), f"map is not an alpha^{k}-averaging operator")
    bc, ak = b._columns, P.alpha.power(k)._columns
    out = _rebuilt(P, lambda p, i, j: _product(p, bc[i], ak[j]))
    return ConstructionResult(out, certification=check_hom_poisson(out),
                              morphism=check_morphism(b, out, P))


def nijenhuis_twist(P, N):
    """Deformed products x .N y = N(x).y + x.N(y) - N(x.y), and the same
    shape for the bracket; same alpha and commutation factor.  N is a
    morphism from the twist onto the input."""
    claim = OperatorClaim(N, "nijenhuis")
    _gate_input(P)
    _gate(check_operator(P, claim), "map is not a Nijenhuis operator")
    out = _rebuilt(P, lambda p, i, j: _deformed(p, claim, i, j))
    return ConstructionResult(out, certification=check_hom_poisson(out),
                              morphism=check_morphism(N, out, P))


def rota_baxter_twist(P, R, weight):
    """x * y = R(x).y + x.R(y) + weight * x.y, likewise for the bracket,
    for a Rota-Baxter operator R of that weight; same alpha.  R is a
    morphism from the twist onto the input."""
    claim = OperatorClaim(R, "rota-baxter", weight=weight)  # checks the weight before any sweep
    _gate_input(P)
    _gate(check_operator(P, claim), "map is not a Rota-Baxter operator of this weight")
    out = _rebuilt(P, lambda p, i, j: _deformed(p, claim, i, j))
    return ConstructionResult(out, certification=check_hom_poisson(out),
                              morphism=check_morphism(R, out, P))


def tensor_with_commutative(A, P):
    """Tensor product of a commutative Hom-associative color algebra A and
    a Hom-Poisson color algebra P over the same group and commutation
    factor.  Basis vectors are ordered pairs (a_i, x_p); the products pick
    up the sign eps(deg x, deg b)."""
    if A.group != P.group:
        raise IncompatibilityError("tensor factors have different grading groups")
    if A.epsilon.values != P.epsilon.values:
        raise IncompatibilityError("tensor factors have different commutation factors")
    _gate_factor(P)
    _gate([check_hom_associative(A), check_epsilon_commutative(A)],
          "left factor is not a commutative Hom-associative color algebra")
    _gate(check_hom_poisson(P), "right factor is not a Hom-Poisson color algebra")

    g, dP = A.group, P.dim
    basis = GradedBasis(g, tuple(g.add(a, x) for a in A.basis.degrees for x in P.basis.degrees))
    # alpha is the Kronecker product: row (k, r), column (i, p) is A[k][i] P[r][p]
    alpha = EvenLinearMap(basis, tuple(tuple(a * x for a in ra for x in rx)
                                       for ra in A.alpha.matrix for rx in P.alpha.matrix))

    def tensor(q, u, v):
        # (a_i x_p)(a_j x_r) = eps(deg x_p, deg a_j) (a_i a_j) (x) (x_p x_r)
        (i, p), (j, r) = divmod(u, dP), divmod(v, dP)
        sign = P.epsilon.value(P.basis.degrees[p], A.basis.degrees[j])
        return {k * dP + l: sign * cA * cP
                for k, cA in _pair(A.mu, i, j).items()
                for l, cP in _pair(q, p, r).items()}

    out = _rebuilt(P, tensor, basis=basis, alpha=alpha)
    return ConstructionResult(out, certification=check_hom_poisson(out))
