import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from algcheck import (
    BilinearProduct,
    EvenLinearMap,
    GradedAlgebra,
    GradedBasis,
    GroupSpec,
    HypothesisError,
    MultiplierTable,
    OperatorClaim,
    SignBicharacter,
    SingularMapError,
    all_ok,
    averaging_twist_pairwise,
    averaging_twist_power,
    averaging_twist_untwisted,
    centroid_twist,
    check_epsilon_commutative,
    check_hom_associative,
    check_hom_leibniz,
    check_hom_lie,
    check_morphism,
    check_operator,
    commutator_bracket,
    delta_from_multiplier,
    nijenhuis_twist,
    rota_baxter_twist,
    tensor_with_commutative,
    transport_along_bijection,
    twist_epsilon,
    validate_bicharacter,
    validate_bicharacter_table,
    validate_multiplier,
    xi_twist,
)
from algcheck.core import _axioms

from conftest import (
    load_fixture,
    ref_epsilon_commutative,
    ref_hom_associative,
    ref_hom_leibniz,
    ref_hom_lie,
    ref_morphism,
    ref_bicharacter,
    ref_multiplier,
    ref_operator,
    residual_direct,
    residual_from_basis,
    three_dim,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)

HOM_ASSOCIATIVE_FIXTURES = [
    "comm2", "diff4", "example3_corrected", "group_algebra_z2", "group_algebra_z2sq", "rb2dim",
]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
vec3 = st.tuples(rationals, rationals, rationals)

moduli_st = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


@given(moduli_st, st.lists(st.integers(-40, 40), min_size=1, max_size=3))
def test_reduce_is_idempotent_and_canonical(moduli, raw):
    g = GroupSpec(tuple(moduli))
    raw = tuple((raw * 3)[: len(moduli)])
    a = g.reduce(raw)
    assert g.is_canonical(a)
    assert g.reduce(a) == a


@given(st.integers(1, 3), st.data())
def test_random_symmetric_exponent_matrix_is_bicharacter(n, data):
    g = GroupSpec((2,) * n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = data.draw(st.integers(0, 1))
    e = SignBicharacter(g, tuple(tuple(r) for r in rows))
    assert all_ok(validate_bicharacter(e))


@given(st.data())
@settings(max_examples=40)
def test_coboundaries_are_multipliers_and_products_close(data):
    # sigma_b(x, y) = b(x) b(y) / b(x + y) satisfies the cocycle law for
    # any nowhere-zero b, and cocycles are closed under pointwise product
    g = GroupSpec((2, 2))
    els = g.elements()
    nonzero = rationals.filter(lambda q: q != 0)

    def coboundary():
        b = {a: data.draw(nonzero) for a in els}
        return MultiplierTable.from_function(g, lambda x, y: b[x] * b[y] / b[g.add(x, y)])

    s1, s2 = coboundary(), coboundary()
    assert all_ok(validate_multiplier(s1))
    prod = MultiplierTable.from_function(g, lambda x, y: s1.value(x, y) * s2.value(x, y))
    assert all_ok(validate_multiplier(prod))


@given(vec3, vec3, vec3, rationals)
def test_product_is_bilinear(x, y, z, c):
    mu = three_dim().mu
    lhs = mu.apply(vec_add(x, vec_scale(c, y)), z)
    rhs = vec_add(mu.apply(x, z), vec_scale(c, mu.apply(y, z)))
    assert lhs == rhs
    lhs = mu.apply(z, vec_add(x, vec_scale(c, y)))
    rhs = vec_add(mu.apply(z, x), vec_scale(c, mu.apply(z, y)))
    assert lhs == rhs


@given(vec3, vec3, vec3)
@settings(max_examples=60)
def test_oracles_agree_on_random_vectors(x, y, z):
    # the trilinear combination of basis residuals must match the direct
    # expansion through homogeneous components, for every axiom
    A = three_dim()
    for axiom in ("associativity", "jacobi", "leibniz"):
        assert residual_from_basis(A, axiom, (x, y, z)) == residual_direct(A, axiom, (x, y, z))


@given(vec3, vec3, vec3)
@settings(max_examples=60)
def test_certified_fixture_has_zero_residuals_everywhere(x, y, z):
    A = three_dim()
    for axiom in ("associativity", "jacobi", "leibniz"):
        assert vec_is_zero(residual_direct(A, axiom, (x, y, z)))


def _permuted(A, perm):
    """Conjugate the whole structure by the basis permutation i -> perm[i]."""
    basis = GradedBasis(A.group, tuple(A.basis.degrees[perm.index(i)] for i in range(A.dim)))

    def remap(p):
        if p is None:
            return None
        return BilinearProduct(
            basis, tuple((perm[i], perm[j], perm[k], c) for (i, j, k, c) in p.entries)
        )

    rows = tuple(
        tuple(A.alpha.matrix[perm.index(r)][perm.index(s)] for s in range(A.dim))
        for r in range(A.dim)
    )
    return A.replace(
        basis=basis, mu=remap(A.mu), bracket=remap(A.bracket),
        alpha=EvenLinearMap(basis, rows),
    )


@given(st.permutations([0, 1, 2]), st.lists(st.sampled_from([F(0), F(1), F(-1), F(2)]),
                                            min_size=3, max_size=3))
@settings(max_examples=60)
def test_operator_verdicts_are_permutation_invariant(perm, diag):
    A = three_dim()
    B = _permuted(A, list(perm))
    for kind, kw in (("centroid", {}), ("averaging", {}),
                     ("rota-baxter", {"weight": F(1)}), ("nijenhuis", {})):
        m_a = EvenLinearMap.diagonal(A.basis, diag)
        m_b = EvenLinearMap.diagonal(B.basis, [diag[perm.index(i)] for i in range(3)])
        va = all_ok(check_operator(A, OperatorClaim(m_a, kind, **kw)))
        vb = all_ok(check_operator(B, OperatorClaim(m_b, kind, **kw)))
        assert va == vb


@pytest.mark.parametrize("name", HOM_ASSOCIATIVE_FIXTURES)
def test_commutator_bracket_matches_dense_formula(name):
    A = load_fixture(name).algebra
    bracket = commutator_bracket(A).bracket
    for i, j in itertools.product(range(A.dim), repeat=2):
        expected = vec_sub(A.mu.of_pair(i, j), vec_scale(A.eps[i][j], A.mu.of_pair(j, i)))
        assert bracket.of_pair(i, j) == expected


# ---------------------------------------------------------------------------
# the sparse sweeps against the dense reference of conftest

constants = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3)])
nonzero = st.sampled_from([F(1), F(-1), F(3), F(1, 2), F(-5, 3)])


def _even_rows(draw, degs, entry):
    n = len(degs)
    return [[draw(entry) if degs[r] == degs[c] else F(0) for c in range(n)] for r in range(n)]


@st.composite
def transported_fixtures(draw):
    """A Hom-Poisson fixture in a random even basis f_j = T e_j, so that T
    maps it onto the fixture; the fixture's operators come along."""
    doc = load_fixture(draw(st.sampled_from(
        ["example3_corrected", "rb2dim_poisson", "diff4", "group_algebra_z2sq"])))
    A = doc.algebra
    n, degs = A.dim, A.basis.degrees
    rows = [[draw(nonzero) if r == c else F(0) for c in range(n)] for r in range(n)]
    same = [(a, b) for a in range(n) for b in range(n) if a != b and degs[a] == degs[b]]
    if same:  # one off-diagonal entry keeps T invertible
        a, b = draw(st.sampled_from(same))
        rows[a][b] = draw(nonzero)
    T = EvenLinearMap(A.basis, rows)
    T_inv = T.inverse()

    def moved(p):
        return BilinearProduct(A.basis, tuple(
            (i, j, k, c)
            for i, j in itertools.product(range(n), repeat=2)
            for k, c in enumerate(T_inv.apply(p.apply(T.column(i), T.column(j))))
        ))

    B = A.replace(mu=moved(A.mu), bracket=moved(A.bracket),
                  alpha=T_inv.compose(A.alpha).compose(T))
    return B, T, A, [T_inv.compose(m).compose(T) for m in doc.operators.values()]


@st.composite
def random_algebras(draw):
    """Random constants over Z2 or Z2^2, with alpha[0][1] != 0."""
    g = GroupSpec(draw(st.sampled_from([(2,), (2, 2)])))
    n = draw(st.integers(2, 4))
    degs = [draw(st.sampled_from(g.elements())) for _ in range(n)]
    degs[1] = degs[0]
    basis = GradedBasis(g, tuple(degs))

    def product():
        return BilinearProduct(basis, tuple(
            (i, j, k, draw(constants))
            for i, j, k in itertools.product(range(n), repeat=3)
            if degs[k] == g.add(degs[i], degs[j])
        ))

    alpha = _even_rows(draw, degs, constants)
    alpha[0][1] = draw(nonzero)
    exponents = [[draw(st.integers(0, 1)) for _ in range(g.rank)] for _ in range(g.rank)]
    A = GradedAlgebra(SignBicharacter(g, exponents), basis, product(), product(),
                      EvenLinearMap(basis, alpha))
    maps = [EvenLinearMap(basis, _even_rows(draw, degs, constants)) for _ in range(2)]
    return A, maps[0], A, maps


def _perturbed(draw, A):
    """A with one constant of one product moved by a nonzero rational."""
    name = draw(st.sampled_from(["mu", "bracket"]))
    degs, g = A.basis.degrees, A.group
    slots = [(i, j, k) for i, j, k in itertools.product(range(A.dim), repeat=3)
             if degs[k] == g.add(degs[i], degs[j])]
    if not slots:
        return A
    i, j, k = draw(st.sampled_from(slots))
    p = getattr(A, name)
    return A.replace(**{name: BilinearProduct(A.basis, p.entries + ((i, j, k, draw(nonzero)),))})


def _plain(reports):
    return [(r.axiom, [(v.indices, v.lhs, v.rhs) for v in r.violations]) for r in reports]


@given(st.one_of(transported_fixtures(), random_algebras()), st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_sweeps_match_dense_reference(case, data):
    base, f, target, maps = case
    A = _perturbed(data.draw, base)
    pairs = [
        ([check_hom_associative(A)], ref_hom_associative(A)),
        ([check_epsilon_commutative(A)], ref_epsilon_commutative(A)),
        (check_hom_lie(A), ref_hom_lie(A)),
        ([check_hom_leibniz(A)], ref_hom_leibniz(A)),
        (_axioms(A, commutative=True),
         ref_hom_associative(A) + ref_epsilon_commutative(A) + ref_hom_lie(A)
         + ref_hom_leibniz(A)),
        (check_morphism(f, A, target), ref_morphism(f, A, target)),
    ]
    power, weight = data.draw(st.integers(0, 2)), data.draw(constants)
    for m in maps:
        for kind, kw in (("centroid", {"power": power}), ("averaging", {"power": power}),
                         ("rota-baxter", {"weight": weight}), ("nijenhuis", {})):
            claim = OperatorClaim(m, kind, **kw)
            pairs.append((check_operator(A, claim), ref_operator(A, claim)))
    for got, want in pairs:
        assert _plain(got) == want
        for r in got:
            for v in r.violations:
                assert all(type(x) is F for x in v.lhs + v.rhs)


# ---------------------------------------------------------------------------
# the group laws on index tables against the dense tuple loops

group_moduli = st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=3).filter(
    lambda moduli: math.prod(moduli) <= 24)
fractions_nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


def _scaled(t, i, j, c):
    """t with entry (i, j) multiplied by c."""
    rows = [list(row) for row in t.values]
    rows[i][j] *= c
    return MultiplierTable(t.group, rows)


def _perturbed_table(draw, t):
    """t with one entry multiplied by a rational other than 1."""
    n = t.group.order
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return _scaled(t, i, j, draw(fractions_nonzero.filter(lambda q: q != 1)))


@st.composite
def group_law_cases(draw):
    """A group, a well-defined (not always skew) sign bicharacter on it, and
    a multiplier: a coboundary or (-1)^(x_0 y_1) c, perturbed or not."""
    g = GroupSpec(tuple(draw(group_moduli)))
    odd = [m % 2 for m in g.moduli]
    e = SignBicharacter(g, tuple(
        tuple(0 if odd[i] or odd[j] else draw(st.integers(-3, 3)) for j in range(g.rank))
        for i in range(g.rank)))
    if draw(st.booleans()):
        b = {a: draw(fractions_nonzero) for a in g.elements()}
        s = MultiplierTable.from_function(g, lambda x, y: b[x] * b[y] / b[g.add(x, y)])
    else:
        c, j = draw(fractions_nonzero), min(1, g.rank - 1)
        s = MultiplierTable.from_function(g, lambda x, y: F(-1) ** (x[0] * y[j]) * c)
    if draw(st.booleans()):
        s = _perturbed_table(draw, s)
    return e, s


@given(group_law_cases(), st.data())
@settings(max_examples=40, deadline=None)
def test_group_laws_match_dense_reference(case, data):
    e, s = case
    g, els = e.group, e.group.elements()
    delta = delta_from_multiplier(s)
    # the last two break the identity-element and diagonal-sign laws
    i, j = (data.draw(st.integers(0, g.order - 1)) for _ in range(2))
    tables = [delta, _perturbed_table(data.draw, delta), twist_epsilon(e, delta),
              _scaled(delta, 0, j, 2), _scaled(delta, i, i, 3)]
    for a, b in itertools.product(els, repeat=2):
        assert delta.value(a, b) == s.value(a, b) / s.value(b, a)
        assert tables[2].value(a, b) == e.value(a, b) * delta.value(a, b)
    pairs = [(validate_bicharacter(e), ref_bicharacter(e)),
             (validate_multiplier(s, symmetric=True), ref_multiplier(s, symmetric=True))]
    pairs += [(validate_bicharacter_table(t), ref_bicharacter(t)) for t in tables]
    for got, want in pairs:
        assert _plain(got) == want
        for r in got:
            for v in r.violations:
                assert all(type(x) is F for x in v.lhs + v.rhs)


# ---------------------------------------------------------------------------
# the constructions against their dense definitions, written with the
# public apply and column only

def _assert_rebuilt(out, src, names, formula):
    """Each product of src named in `names` is rebuilt in out as
    e_i e_j = formula(p, i, j); the others are kept."""
    for name in ("mu", "bracket"):
        p, q = getattr(src, name), getattr(out, name)
        if name not in names:
            assert q == p
            continue
        for i, j in itertools.product(range(src.dim), repeat=2):
            assert q.of_pair(i, j) == formula(p, i, j), (name, i, j)


@given(transported_fixtures(), st.integers(0, 2),
       st.sampled_from([F(1), F(-1), F(1, 2), F(-2), F(1, 3)]), st.data())
@settings(max_examples=40, deadline=None)
def test_constructions_match_dense_definitions(case, k, weight, data):
    # B is a fixture in a random even basis and T maps it onto the fixture
    # A; each operator twist runs for each carried operator whose gates it
    # passes, and the transport along T must give back B's products
    B, T, A, maps = case
    e = EvenLinearMap.identity(B.basis).column
    ak = B.alpha.power(k)
    both = ("mu", "bracket")
    for b in maps:
        def deformed(p, i, j, last):
            return vec_add(p.apply(b.column(i), e(j)), p.apply(e(i), b.column(j)), last)

        twists = [
            (lambda: centroid_twist(B, b), ("bracket",),
             lambda p, i, j: p.apply(b.column(i), e(j))),
            (lambda: averaging_twist_pairwise(B, b), both,
             lambda p, i, j: p.apply(b.column(i), b.column(j))),
            (lambda: averaging_twist_untwisted(B, b), both,
             lambda p, i, j: p.apply(b.column(i), e(j))),
            (lambda: averaging_twist_power(B, b, k), both,
             lambda p, i, j: p.apply(b.column(i), ak.column(j))),
            (lambda: nijenhuis_twist(B, b), both, lambda p, i, j: deformed(
                p, i, j, vec_scale(F(-1), b.apply(p.apply(e(i), e(j)))))),
            (lambda: rota_baxter_twist(B, b, weight), both, lambda p, i, j: deformed(
                p, i, j, vec_scale(weight, p.apply(e(i), e(j))))),
        ]
        for run, names, formula in twists:
            try:
                out = run().algebra
            except (HypothesisError, SingularMapError):
                continue
            _assert_rebuilt(out, B, names, formula)

    zero, degs = B.group.zero, B.basis.degrees
    xi = tuple(data.draw(constants) if d == zero else F(0) for d in degs)
    try:
        out = xi_twist(B, xi).algebra
    except HypothesisError:
        pass
    else:
        _assert_rebuilt(out, B, ("mu",), lambda p, i, j: p.apply(p.apply(e(i), xi), e(j)))

    T_inv = T.inverse()
    out = transport_along_bijection(A, T).algebra
    _assert_rebuilt(out, A, both,
                    lambda p, i, j: T_inv.apply(p.apply(T.column(i), T.column(j))))


def _exterior_line():
    """K[xi]/(xi^2) with xi odd: supercommutative, so the tensor signs
    eps(deg x_p, deg a_j) = -1 show up."""
    g = GroupSpec((2,))
    basis = GradedBasis(g, ((0,), (1,)))
    mu = BilinearProduct(basis, ((0, 0, 0, F(1)), (0, 1, 1, F(1)), (1, 0, 1, F(1))))
    return GradedAlgebra(SignBicharacter(g, ((1,),)), basis, mu, None,
                         EvenLinearMap.identity(basis))


@pytest.mark.parametrize("left", ["comm2", "exterior"])
@pytest.mark.parametrize("right", ["example3_corrected", "rb2dim_poisson"])
def test_tensor_product_matches_dense_formula(left, right):
    A = _exterior_line() if left == "exterior" else load_fixture(left).algebra
    P = load_fixture(right).algebra
    T = tensor_with_commutative(A, P).algebra
    eA = EvenLinearMap.identity(A.basis).column
    eP = EvenLinearMap.identity(P.basis).column
    pairs = list(itertools.product(range(A.dim), range(P.dim)))
    for name in ("mu", "bracket"):
        q, t = getattr(P, name), getattr(T, name)
        for (u, (i, p)), (v, (j, r)) in itertools.product(enumerate(pairs), repeat=2):
            # (a_i x_p)(a_j x_r) = eps(deg x_p, deg a_j) (a_i a_j) (x) (x_p x_r)
            sign = P.epsilon.value(P.basis.degrees[p], A.basis.degrees[j])
            a, x = A.mu.apply(eA(i), eA(j)), q.apply(eP(p), eP(r))
            assert t.of_pair(u, v) == tuple(sign * c * d for c in a for d in x), (name, u, v)
