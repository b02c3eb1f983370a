from fractions import Fraction as F

import pytest

from algcheck import (
    BilinearProduct,
    EvennessError,
    EvenLinearMap,
    GradedAlgebra,
    GradedBasis,
    GroupSpec,
    HypothesisError,
    InvalidRepresentationError,
    MissingComponentError,
    MultiplierTable,
    OperatorClaim,
    ShapeError,
    SignBicharacter,
    SingularMapError,
    all_ok,
    check_epsilon_commutative,
    check_hom_associative,
    check_hom_leibniz,
    check_hom_lie,
    check_hom_poisson,
    check_morphism,
    commutator_bracket,
    rota_baxter_twist,
    search_diagonal_operators,
    xi_twist,
)

from conftest import OTHER_BASIS, SWAP_ON_OTHER_BASIS, load_fixture, three_dim


def test_apply_product_examples(example3):
    e = lambda i: tuple(F(1) if j == i else F(0) for j in range(3))
    assert example3.mu.apply(e(1), e(2)) == (0, 0, 1)
    assert example3.mu.apply(e(2), e(0)) == (0, 0, 2)  # e3.e1 = a e3, a = 2
    assert example3.mu.apply(e(1), (0, 0, 0)) == (0, 0, 0)


def test_apply_product_shape_error(example3):
    with pytest.raises(ShapeError):
        example3.mu.apply((F(1),), (F(0), F(0), F(0)))


def test_rb2dim_is_hom_associative(rb2dim):
    assert check_hom_associative(rb2dim).ok


def test_zero_product_is_hom_associative(rb2dim):
    zero = BilinearProduct.zero(rb2dim.basis)
    assert check_hom_associative(rb2dim.replace(mu=zero)).ok


@pytest.mark.parametrize("a", [F(1), F(2), F(-3)])
@pytest.mark.parametrize("exponent", [0, 1])
def test_corrected_table_is_hom_poisson(a, exponent):
    assert all_ok(check_hom_poisson(three_dim(a, exponent)))


def test_missing_component_errors(example3):
    no_mu = example3.replace(mu=None)
    with pytest.raises(MissingComponentError):
        check_hom_associative(no_mu)
    no_bracket = example3.replace(bracket=None)
    with pytest.raises(MissingComponentError):
        check_hom_lie(no_bracket)
    with pytest.raises(MissingComponentError):
        check_hom_leibniz(no_bracket)
    with pytest.raises(MissingComponentError):
        example3.replace(alpha=None)


class TestEpsilonCommutative:
    def test_one_dim_idempotent(self):
        g = GroupSpec((2,))
        b = GradedBasis(g, ((0,),))
        A = GradedAlgebra(SignBicharacter(g, ((0,),)), b,
                          BilinearProduct(b, ((0, 0, 0, F(1)),)), None,
                          EvenLinearMap.identity(b))
        assert check_epsilon_commutative(A).ok

    def test_three_dim_not_commutative(self, example3):
        rep = check_epsilon_commutative(example3)
        # e2.e3 = e3 but e3.e2 = 0
        assert [v.indices for v in rep.violations] == [(1, 2), (2, 1)]

    def test_group_algebra_commutative(self, group_algebra_z2):
        assert check_epsilon_commutative(group_algebra_z2.algebra).ok


class TestHomLie:
    def test_three_dim_bracket(self, example3):
        assert all_ok(check_hom_lie(example3))

    def test_abelian_bracket(self, example3):
        A = example3.replace(bracket=BilinearProduct.zero(example3.basis))
        assert all_ok(check_hom_lie(A))

    def test_commutator_of_rb2dim(self, rb2dim_poisson):
        assert all_ok(check_hom_lie(rb2dim_poisson))


class TestHomLeibniz:
    def test_three_dim(self, example3):
        assert check_hom_leibniz(example3).ok

    def test_zero_bracket(self, example3):
        A = example3.replace(bracket=BilinearProduct.zero(example3.basis))
        assert check_hom_leibniz(A).ok

    def test_perturbed_fixture_located(self, example3):
        # drop e3.e1 while keeping e1.e3 = a e3: {alpha(e3), e2.e1} = -a e3
        # no longer matches the (now vanishing) right-hand side
        entries = tuple(e for e in example3.mu.entries if (e[0], e[1]) != (2, 0))
        broken = example3.replace(mu=BilinearProduct(example3.basis, entries))
        rep = check_hom_leibniz(broken)
        assert [v.indices for v in rep.violations] == [(2, 1, 0)]


class TestAsPrintedVariant:
    def test_fails_and_is_located(self):
        reports = {r.axiom: r for r in check_hom_poisson(three_dim(corrected=False))}
        assoc = reports["hom-associativity"]
        assert [v.indices for v in assoc.violations] == [(1, 0, 0), (1, 0, 2), (1, 1, 2)]
        assert not reports["hom-leibniz"].ok
        assert reports["hom-jacobi"].ok


class TestCommutatorBracket:
    def test_rb2dim(self, rb2dim):
        P = commutator_bracket(rb2dim)
        assert P.bracket.of_pair(1, 1) == (2, 0)
        for i, j in [(0, 0), (0, 1), (1, 0)]:
            assert P.bracket.of_pair(i, j) == (0, 0)
        assert all_ok(check_hom_poisson(P))

    def test_commutative_input_gives_zero_bracket(self, group_algebra_z2):
        P = commutator_bracket(group_algebra_z2.algebra)
        assert P.bracket.entries == ()

    def test_one_dim(self):
        g = GroupSpec((2,))
        b = GradedBasis(g, ((0,),))
        A = GradedAlgebra(SignBicharacter(g, ((0,),)), b,
                          BilinearProduct(b, ((0, 0, 0, F(1)),)), None,
                          EvenLinearMap.identity(b))
        assert commutator_bracket(A).bracket.entries == ()

    def test_rejects_non_associative(self, example3):
        broken = three_dim(corrected=False)
        with pytest.raises(HypothesisError):
            commutator_bracket(broken)


class TestEvenLinearMap:
    def test_non_even_rejected(self, rb2dim):
        with pytest.raises(EvennessError):
            EvenLinearMap(rb2dim.basis, ((0, 1), (1, 0)))

    def test_inverse_roundtrip(self, example3):
        f = EvenLinearMap(example3.basis, ((1, 2, 0), (0, 1, 0), (0, 0, F(3, 5))))
        assert f.compose(f.inverse()) == EvenLinearMap.identity(example3.basis)

    def test_singular(self, rb2dim):
        with pytest.raises(SingularMapError):
            EvenLinearMap.diagonal(rb2dim.basis, (1, 0)).inverse()


class TestStructureConstants:
    def test_evenness_enforced(self, rb2dim):
        with pytest.raises(EvennessError):
            BilinearProduct(rb2dim.basis, ((0, 0, 1, F(1)),))

    def test_degree_bookkeeping(self, example3):
        degs = example3.basis.degrees
        g = example3.group
        for (i, j, k, c) in example3.mu.entries:
            assert degs[k] == g.add(degs[i], degs[j])

    def test_duplicate_entries_merge(self, rb2dim):
        p = BilinearProduct(rb2dim.basis, ((0, 0, 0, F(1)), (0, 0, 0, F(-1))))
        assert p.entries == ()


class TestMorphism:
    def test_identity(self, example3):
        f = EvenLinearMap.identity(example3.basis)
        assert all_ok(check_morphism(f, example3, example3))

    def test_scaled_map_fails_on_products(self, example3):
        f = EvenLinearMap.scalar(example3.basis, 2)
        reports = {r.axiom: r for r in check_morphism(f, example3, example3)}
        assert reports["morphism:alpha"].ok
        assert not reports["morphism:mu"].ok

    def test_alpha_is_endomorphism_of_example3(self, example3):
        assert all_ok(check_morphism(example3.alpha, example3, example3))

    def test_source_without_bracket_is_skipped(self, example3):
        f = EvenLinearMap.identity(example3.basis)
        reports = check_morphism(f, example3.replace(bracket=None), example3)
        assert [r.axiom for r in reports] == ["morphism:alpha", "morphism:mu"]


Z2SQ = GroupSpec((2, 2))


def _morphism(src, dst, basis=None):
    """check_morphism of the identity on `basis`, by default src's."""
    return check_morphism(EvenLinearMap.identity(basis or src.basis), src, dst)


# every shape error of the value types and check_morphism, on example3:
# (call, error type, message fragment)
SHAPE_ERRORS = {
    "basis-degree": (lambda A: GradedBasis(A.group, ((2,),)), ShapeError, "not canonical"),
    # a degree coordinate must be an int, and not a bool
    "basis-degree-half": (lambda A: GradedBasis(A.group, ((0.5,), (0,))), ShapeError,
                          "not canonical"),
    "basis-degree-float": (lambda A: GradedBasis(A.group, ((1.0,), (0,))), ShapeError,
                           "not canonical"),
    "basis-degree-bool": (lambda A: GradedBasis(A.group, ((True,), (0,))), ShapeError,
                          "not canonical"),
    "map-diagonal": (lambda A: EvenLinearMap.diagonal(A.basis, (1, 1)), ShapeError,
                     "diagonal length mismatch"),
    "map-apply": (lambda A: A.alpha.apply((1, 1)), ShapeError, "vector length mismatch"),
    "map-power": (lambda A: A.alpha.power(-1), ShapeError, "negative map power"),
    "map-compose-basis": (lambda A: A.alpha.compose(SWAP_ON_OTHER_BASIS), ShapeError,
                          "composed maps need a common basis"),
    "algebra-basis-group": (lambda A: A.replace(basis=GradedBasis(Z2SQ, ((0, 0),) * 3)),
                            ShapeError, "commutation factor group differs"),
    "algebra-epsilon-group": (lambda A: A.replace(epsilon=SignBicharacter(Z2SQ, ((0, 0), (0, 0)))),
                              ShapeError, "commutation factor group differs"),
    "algebra-product-basis": (lambda A: A.replace(mu=BilinearProduct.zero(OTHER_BASIS)),
                              ShapeError, "product basis differs"),
    "algebra-alpha-basis": (lambda A: A.replace(alpha=EvenLinearMap.identity(OTHER_BASIS)),
                            ShapeError, "alpha basis differs"),
    "morphism-dimensions": (lambda A: _morphism(A, A, GradedBasis(A.group, ((0,),))),
                            ShapeError, "equal dimensions"),
    "morphism-basis": (lambda A: check_morphism(SWAP_ON_OTHER_BASIS, A, A),
                       ShapeError, "common basis"),
    "morphism-groups": (lambda A: _morphism(load_fixture("diff4").algebra,
                                            load_fixture("group_algebra_z2sq").algebra),
                        ShapeError, "common basis"),
    "morphism-target-product": (lambda A: _morphism(A, A.replace(bracket=None)),
                                MissingComponentError, "target algebra has no bracket"),
    "group-reduce": (lambda A: A.group.reduce((0, 0)), ShapeError, "expected 1 coordinates"),
}


@pytest.mark.parametrize("case", SHAPE_ERRORS)
def test_shape_error(example3, case):
    call, error, message = SHAPE_ERRORS[case]
    with pytest.raises(error, match=message):
        call(example3)


# every library entry point that takes a rational, fed x
EXACT_SITES = {
    "map-matrix": lambda A, x: EvenLinearMap(A.basis, ((x, 0, 0), (0, 1, 0), (0, 0, 1))),
    "map-diagonal": lambda A, x: EvenLinearMap.diagonal(A.basis, (1, x, 1)),
    "structure-constant": lambda A, x: BilinearProduct(A.basis, ((0, 0, 0, x),)),
    "multiplier-entry": lambda A, x: MultiplierTable(A.group, ((x, 1), (1, 1))),
    "multiplier-constant": lambda A, x: MultiplierTable.constant(A.group, x),
    "claim-weight": lambda A, x: OperatorClaim(EvenLinearMap.identity(A.basis), "rota-baxter",
                                               weight=x),
    "search-candidate": lambda A, x: search_diagonal_operators(A, "averaging", [1, x]),
    "xi": lambda A, x: xi_twist(load_fixture("group_algebra_z2").algebra, (x, 0)),
    # the zero map is a Rota-Baxter operator of every weight
    "rota-baxter-weight": lambda A, x: rota_baxter_twist(A, EvenLinearMap.scalar(A.basis, 0), x),
}


class TestExactInputs:
    @pytest.mark.parametrize("site", EXACT_SITES)
    @pytest.mark.parametrize("value", [0.1, 1.0, True, "1/3", None])
    def test_inexact_value_refused(self, example3, site, value):
        with pytest.raises(InvalidRepresentationError):
            EXACT_SITES[site](example3, value)

    @pytest.mark.parametrize("site", EXACT_SITES)
    @pytest.mark.parametrize("value", [2, F(1, 2)], ids=["int", "Fraction"])
    def test_int_and_fraction_accepted(self, example3, site, value):
        EXACT_SITES[site](example3, value)

    def test_diagonal_keeps_exact_values(self, example3):
        m = EvenLinearMap.diagonal(example3.basis, (2, F(1, 3), 1))
        assert m.matrix[0][0] == 2 and m.matrix[1][1] == F(1, 3)
        assert all(type(c) is F for row in m.matrix for c in row)


class TestProductIndices:
    @pytest.mark.parametrize("entry", [
        (True, True, 0, 1), (0, False, 0, 1), (0.0, 0, 0, 1), (0, 0, 1.0, 1),
        (F(0), 0, 0, 1), ("0", 0, 0, 1), (None, 0, 0, 1),
    ])
    def test_non_integer_index_refused(self, rb2dim, entry):
        with pytest.raises(ShapeError):
            BilinearProduct(rb2dim.basis, (entry,))

    def test_integer_indices_accepted(self, rb2dim):
        p = BilinearProduct(rb2dim.basis, ((0, 0, 0, 1),))
        assert p.entries == ((0, 0, 0, F(1)),)

    def test_pair_table_is_not_an_argument(self, rb2dim):
        with pytest.raises(TypeError):
            BilinearProduct(rb2dim.basis, ((0, 0, 0, 1),), {"junk": 1})
