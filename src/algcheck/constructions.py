"""Algebra-to-algebra construction theorems.

Every construction gates its hypotheses first (raising HypothesisError
with the offending reports), builds the new algebra, then re-certifies
the output exhaustively.  Outputs always carry their certification
reports; a construction never silently emits an unchecked algebra.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .core import (
    BilinearProduct,
    EvenLinearMap,
    GradedBasis,
    GradedAlgebra,
    check_epsilon_commutative,
    check_hom_associative,
    check_hom_poisson,
    check_morphism,
    components,
)
from .errors import HypothesisError, IncompatibilityError, ShapeError
from .grading import delta_from_multiplier, twist_epsilon, validate_multiplier
from .operators import OperatorClaim, check_operator
from .report import all_ok


@dataclass
class ConstructionResult:
    """A constructed algebra together with its evidence.

    `certification` re-runs the axioms the theorem asserts for the output;
    `morphism` holds the checks for morphism clauses the theorem asserts;
    `findings` holds recorded verdicts that are evidence rather than
    theorem content (currently only the centroid twist's morphism claim,
    whose proof is absent from the source material)."""

    algebra: GradedAlgebra
    certification: list = field(default_factory=list)
    morphism: list = field(default_factory=list)
    findings: list = field(default_factory=list)

    @property
    def ok(self):
        return all_ok(self.certification) and all_ok(self.morphism)

    @property
    def reports(self):
        return list(self.certification) + list(self.morphism) + list(self.findings)


def _gate(reports, message):
    bad = [r for r in reports if not r.ok]
    if bad:
        raise HypothesisError(message, bad)


def _pulled(p, left=None, right=None, post=None, scale=1):
    """Structure constants of (x, y) -> scale * post(p(left x, right y)),
    read off the nonzero constants of p; None stands for the identity map.
    The entries may repeat an (i, j, k) key: BilinearProduct sums them, so
    concatenating two entry lists adds the two products."""
    def support(rows):
        # row a of a map as [(i, m[a][i])], nonzero entries only
        return [[(i, c) for i, c in enumerate(row) if c] for row in rows]

    ident = EvenLinearMap.identity(p.basis)
    lft = support((ident if left is None else left).matrix)
    rgt = support((ident if right is None else right).matrix)
    pst = support(zip(*(ident if post is None else post).matrix))  # columns
    return [
        (i, j, l, scale * x * y * c * z)
        for (a, b, k, c) in p.entries
        for i, x in lft[a]
        for j, y in rgt[b]
        for l, z in pst[k]
    ]


def _rebuilt(P, entries, names=("mu", "bracket"), **replace):
    """P with each named product p it carries rebuilt from entries(p)."""
    for name in names:
        p = getattr(P, name)
        if p is not None:
            replace[name] = BilinearProduct(P.basis, tuple(entries(p)))
    return P.replace(**replace)


def _rescaled(p, s):
    degs = p.basis.degrees
    return [(i, j, k, s.value(degs[i], degs[j]) * c) for (i, j, k, c) in p.entries]


def _operator_twist(P, b, kind, message, build, clause="morphism",
                    poisson="input is not a Hom-Poisson color algebra", **claim):
    """The operator twists' shared sequence: gate the input, gate b as a
    `kind` operator (`claim` holds the OperatorClaim keywords), build the
    output, certify it, and check b as a map from the output onto P,
    recorded under `clause` ("morphism", "findings", or None: no check)."""
    _gate(check_hom_poisson(P), poisson)
    _gate(check_operator(P, OperatorClaim(b, kind, **claim)), message)
    out = build()
    result = ConstructionResult(out, certification=check_hom_poisson(out))
    if clause:
        setattr(result, clause, check_morphism(b, out, P))
    return result


# ---------------------------------------------------------------------------

def xi_twist(A, xi):
    """New product x *_xi y = x xi y on an algebra that is both plainly
    associative and Hom-associative.  xi must be homogeneous of degree 0
    so the new product stays even."""
    if len(xi) != A.dim:
        raise ShapeError("xi has the wrong length")
    xi = tuple(Fraction(c) for c in xi)
    parts = components(A.basis, xi)
    if any(d != A.group.zero for d in parts):
        raise HypothesisError("xi must be homogeneous of degree 0", [])
    ident = EvenLinearMap.identity(A.basis)
    plain = A.replace(alpha=ident, bracket=None)
    _gate([check_hom_associative(plain)], "product is not plainly associative")
    _gate([check_hom_associative(A.replace(bracket=None))], "product is not Hom-associative")
    # x *_xi y = (x xi) y: pull mu back along the right multiplication
    # x -> x xi, whose column i is e_i xi
    columns = [A.mu.apply(e, xi) for e in ident.matrix]
    by_xi = EvenLinearMap(A.basis, tuple(zip(*columns)))
    out = A.replace(mu=BilinearProduct(A.basis, tuple(_pulled(A.mu, left=by_xi))))
    return ConstructionResult(out, certification=[check_hom_associative(out.replace(bracket=None))])


def multiplier_twist_symmetric(P, s):
    """Rescale both products by a symmetric, cyclically invariant
    multiplier; same commutation factor, same alpha."""
    _gate(validate_multiplier(s, symmetric=True), "multiplier fails the symmetric-twist gate")
    _gate(check_hom_poisson(P), "input is not a Hom-Poisson color algebra")
    out = _rebuilt(P, partial(_rescaled, s=s))
    return ConstructionResult(out, certification=check_hom_poisson(out))


def multiplier_twist_delta(P, s, endomorphisms=()):
    """Rescale both products by a (not necessarily symmetric) multiplier
    and replace the commutation factor by eps * delta, where
    delta(x, y) = s(x, y)/s(y, x).  Every endomorphism of the input is
    re-verified as an endomorphism of the twist."""
    _gate(validate_multiplier(s), "multiplier fails the cocycle gate")
    _gate(check_hom_poisson(P), "input is not a Hom-Poisson color algebra")
    delta = delta_from_multiplier(s)
    els = P.group.elements()
    if all(delta.value(a, b) == 1 for a in els for b in els):
        factor = P.epsilon  # sigma symmetric: keep the original representation
    else:
        factor = twist_epsilon(P.epsilon, delta)
    out = _rebuilt(P, partial(_rescaled, s=s), epsilon=factor)
    morphism = []
    for f in endomorphisms:
        _gate(check_morphism(f, P, P), "map is not an endomorphism of the input")
        morphism.extend(check_morphism(f, out, out))
    return ConstructionResult(out, certification=check_hom_poisson(out), morphism=morphism)


def transport_along_bijection(Pp, f):
    """Pull the structure of Pp back along an invertible even map:
    x . y = f^-1(f(x) .' f(y)), likewise for the bracket, and
    alpha = f^-1 alpha' f.  f becomes a morphism onto Pp."""
    finv = f.inverse()
    out = _rebuilt(Pp, partial(_pulled, left=f, right=f, post=finv),
                   alpha=finv.compose(Pp.alpha).compose(f))
    return ConstructionResult(
        out,
        certification=check_hom_poisson(out),
        morphism=check_morphism(f, out, Pp),
    )


def centroid_twist(P, b):
    """Keep the product, replace the bracket by {x, y} = [beta(x), y] for a
    centroid element beta (k = 0).  The source theorem's proof is absent,
    so the re-certification verdict and the morphism claim are recorded
    as findings rather than assumed."""
    return _operator_twist(
        P, b, "centroid", "map is not a centroid element",
        lambda: _rebuilt(P, partial(_pulled, left=b), names=("bracket",)),
        clause="findings", power=0,
    )


def averaging_twist_pairwise(P, b):
    """x * y = beta(x) . beta(y), {x, y} = [beta(x), beta(y)] for an
    averaging operator beta (k = 0); same alpha."""
    return _operator_twist(
        P, b, "averaging", "map is not an averaging operator",
        lambda: _rebuilt(P, partial(_pulled, left=b, right=b)),
        clause=None, power=0,
    )


def averaging_twist_untwisted(P, b):
    """Starting from an untwisted Poisson color algebra (alpha = id) with
    an averaging operator beta: x * y = beta(x) . y, {x, y} = [beta(x), y],
    and beta itself becomes the new twisting map.  The output is not
    Hom-associative in general: that needs
    beta^2(x).(beta(y).z) = (beta(x).beta(y)).beta(z), which averaging does
    not grant (the projection on K[Z2] fails it), so the re-certification
    verdict is the evidence rather than an assumed property."""
    if not P.alpha.is_identity:
        raise HypothesisError("this construction starts from an untwisted algebra (alpha = id)", [])
    return _operator_twist(
        P, b, "averaging", "map is not an averaging operator",
        lambda: _rebuilt(P, partial(_pulled, left=b), alpha=b),
        clause=None, poisson="input is not a Poisson color algebra", power=0,
    )


def averaging_twist_power(P, b, k):
    """x * y = beta(x) . alpha^k(y), likewise for the bracket, for a
    bijective alpha^k-averaging operator beta; same alpha.  beta is a
    morphism from the twist onto the input."""
    b.inverse()  # raises SingularMapError when not bijective
    return _operator_twist(
        P, b, "averaging", f"map is not an alpha^{k}-averaging operator",
        lambda: _rebuilt(P, partial(_pulled, left=b, right=P.alpha.power(k))),
        power=k,
    )


def nijenhuis_twist(P, N):
    """Deformed products x .N y = N(x).y + x.N(y) - N(x.y), and the same
    shape for the bracket; same alpha and commutation factor.  N is a
    morphism from the twist onto the input."""
    def deform(p):
        return _pulled(p, left=N) + _pulled(p, right=N) + _pulled(p, post=N, scale=-1)

    return _operator_twist(P, N, "nijenhuis", "map is not a Nijenhuis operator",
                           lambda: _rebuilt(P, deform))


def rota_baxter_twist(P, R, weight):
    """x * y = R(x).y + x.R(y) + weight * x.y, likewise for the bracket,
    for a Rota-Baxter operator R of that weight; same alpha.  R is a
    morphism from the twist onto the input."""
    weight = Fraction(weight)

    def deform(p):
        return _pulled(p, left=R) + _pulled(p, right=R) + _pulled(p, scale=weight)

    return _operator_twist(P, R, "rota-baxter", "map is not a Rota-Baxter operator of this weight",
                           lambda: _rebuilt(P, deform), weight=weight)


def tensor_with_commutative(A, P):
    """Tensor product of a commutative Hom-associative color algebra A and
    a Hom-Poisson color algebra P over the same group and commutation
    factor.  Basis vectors are ordered pairs (a_i, x_p); the products pick
    up the sign eps(deg x, deg b)."""
    if A.group != P.group:
        raise IncompatibilityError("tensor factors have different grading groups")
    if not _factors_equal(A.epsilon, P.epsilon):
        raise IncompatibilityError("tensor factors have different commutation factors")
    _gate([check_hom_associative(A.replace(bracket=None)),
           check_epsilon_commutative(A)],
          "left factor is not a commutative Hom-associative color algebra")
    _gate(check_hom_poisson(P), "right factor is not a Hom-Poisson color algebra")

    g = A.group
    dA, dP = A.dim, P.dim
    degrees = tuple(
        g.add(A.basis.degrees[i], P.basis.degrees[p])
        for i in range(dA)
        for p in range(dP)
    )
    basis = GradedBasis(g, degrees)

    def idx(i, p):
        return i * dP + p

    alpha_rows = tuple(
        tuple(A.alpha.matrix[k][i] * P.alpha.matrix[r][p] for i in range(dA) for p in range(dP))
        for k in range(dA)
        for r in range(dP)
    )
    alpha = EvenLinearMap(basis, alpha_rows)

    def build(p_prod):
        entries = []
        for (i, j, k, cA) in A.mu.entries:
            sign_deg_b = A.basis.degrees[j]
            for (pp, q, r, cP) in p_prod.entries:
                sign = P.epsilon.value(P.basis.degrees[pp], sign_deg_b)
                c = sign * cA * cP
                if c != 0:
                    entries.append((idx(i, pp), idx(j, q), idx(k, r), c))
        return BilinearProduct(basis, tuple(entries))

    out = GradedAlgebra(
        group=g,
        epsilon=P.epsilon,
        basis=basis,
        mu=build(P.mu),
        bracket=build(P.bracket),
        alpha=alpha,
    )
    return ConstructionResult(out, certification=check_hom_poisson(out))


def _factors_equal(e1, e2):
    if type(e1) is type(e2) and e1 == e2:
        return True
    if e1.group != e2.group:
        return False
    els = e1.group.elements()
    return all(e1.value(a, b) == e2.value(a, b) for a in els for b in els)
