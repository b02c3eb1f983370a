from fractions import Fraction as F

import pytest

from algcheck import (
    BilinearProduct,
    EvenLinearMap,
    GradedAlgebra,
    GradedBasis,
    GroupSpec,
    HypothesisError,
    InvalidRepresentationError,
    MissingComponentError,
    OperatorClaim,
    SearchSpaceError,
    ShapeError,
    SignBicharacter,
    all_ok,
    check_nijenhuis_transfer,
    check_operator,
    search_diagonal_operators,
)


class TestClaimValidation:
    def test_unknown_kind(self, rb2dim):
        with pytest.raises(InvalidRepresentationError):
            OperatorClaim(EvenLinearMap.identity(rb2dim.basis), "derivation")

    def test_rota_baxter_needs_weight(self, rb2dim):
        with pytest.raises(InvalidRepresentationError):
            OperatorClaim(EvenLinearMap.identity(rb2dim.basis), "rota-baxter")

    @pytest.mark.parametrize("kind", ["nijenhuis", "centroid", "averaging"])
    @pytest.mark.parametrize("weight", [0.1, 1.0, True, "1/3"])
    def test_inexact_weight_refused(self, rb2dim, kind, weight):
        with pytest.raises(InvalidRepresentationError):
            OperatorClaim(EvenLinearMap.identity(rb2dim.basis), kind, weight=weight)

    @pytest.mark.parametrize("kind", ["nijenhuis", "centroid", "averaging"])
    @pytest.mark.parametrize("weight", [2, F(1, 2)], ids=["int", "Fraction"])
    def test_unread_weight_refused(self, rb2dim, kind, weight):
        # only a Rota-Baxter claim reads a weight
        m = EvenLinearMap.identity(rb2dim.basis)
        assert OperatorClaim(m, kind).weight is None
        with pytest.raises(InvalidRepresentationError, match=f"^{kind} claims take no weight$"):
            OperatorClaim(m, kind, weight=weight)

    @pytest.mark.parametrize("kind, weight", [("rota-baxter", 1), ("nijenhuis", None)])
    def test_unread_power_refused(self, rb2dim, kind, weight):
        # only centroid and averaging claims read alpha^k
        m = EvenLinearMap.identity(rb2dim.basis)
        assert OperatorClaim(m, kind, power=0, weight=weight).power == 0
        for power in (1, 4):
            with pytest.raises(InvalidRepresentationError, match=f"^{kind} claims take no power$"):
                OperatorClaim(m, kind, power=power, weight=weight)

    def test_power_bounds(self, rb2dim):
        m = EvenLinearMap.identity(rb2dim.basis)
        with pytest.raises(InvalidRepresentationError):
            OperatorClaim(m, "averaging", power=5)
        with pytest.raises(InvalidRepresentationError):
            OperatorClaim(m, "centroid", power=-1)
        # the bound holds for every kind, though only centroid and averaging read alpha^k
        with pytest.raises(InvalidRepresentationError, match=r"power must lie in \[0, 4\], got 5"):
            OperatorClaim(m, "rota-baxter", power=5, weight=1)
        with pytest.raises(InvalidRepresentationError, match=r"power must lie in \[0, 4\], got -5"):
            OperatorClaim(m, "nijenhuis", power=-5)

    @pytest.mark.parametrize("kind, weight", [("centroid", None), ("averaging", None),
                                              ("rota-baxter", 1), ("nijenhuis", None)])
    @pytest.mark.parametrize("power", [1.0, 1.5, True])
    def test_non_integer_power(self, diff4, kind, weight, power):
        d = diff4.operators["d"]
        with pytest.raises(InvalidRepresentationError, match="operator powers must be integers"):
            check_operator(diff4.algebra, OperatorClaim(d, kind, power=power, weight=weight))
        with pytest.raises(InvalidRepresentationError, match="map powers must be integers"):
            d.power(power)


class TestSelectors:
    def test_basis_mismatch(self, rb2dim, example3):
        claim = OperatorClaim(EvenLinearMap.identity(example3.basis), "centroid")
        with pytest.raises(ShapeError):
            check_operator(rb2dim, claim)

    def test_missing_bracket(self, rb2dim):
        claim = OperatorClaim(EvenLinearMap.identity(rb2dim.basis), "centroid")
        with pytest.raises(MissingComponentError):
            check_operator(rb2dim, claim, products="bracket")

    def test_bad_selector(self, rb2dim):
        claim = OperatorClaim(EvenLinearMap.identity(rb2dim.basis), "centroid")
        with pytest.raises(ShapeError):
            check_operator(rb2dim, claim, products="both")


class TestRotaBaxter:
    @pytest.mark.parametrize("lam", [F(1), F(1, 2), F(-3)])
    def test_minus_lambda_id(self, rb2dim, lam):
        # R = -lambda id satisfies R(x)R(y) = lambda^2 xy = R(... + lambda xy)
        R = EvenLinearMap.scalar(rb2dim.basis, -lam)
        assert all_ok(check_operator(rb2dim, OperatorClaim(R, "rota-baxter", weight=lam)))

    def test_wrong_weight_fails(self, rb2dim):
        R = EvenLinearMap.scalar(rb2dim.basis, F(-1, 2))
        reports = {r.axiom: r for r in
                   check_operator(rb2dim, OperatorClaim(R, "rota-baxter", weight=1))}
        assert not reports["rota-baxter:mu"].ok

    def test_both_products(self, rb2dim_poisson):
        R = EvenLinearMap.scalar(rb2dim_poisson.basis, F(-1, 2))
        reports = check_operator(rb2dim_poisson,
                                 OperatorClaim(R, "rota-baxter", weight=F(1, 2)))
        labels = [r.axiom for r in reports]
        assert "rota-baxter:mu" in labels and "rota-baxter:bracket" in labels
        assert all_ok(reports)

    def test_zero_map_weight_zero(self, rb2dim):
        Z = EvenLinearMap.scalar(rb2dim.basis, 0)
        assert all_ok(check_operator(rb2dim, OperatorClaim(Z, "rota-baxter", weight=0)))


class TestAveraging:
    def test_identity_is_averaging(self, rb2dim):
        claim = OperatorClaim(EvenLinearMap.identity(rb2dim.basis), "averaging")
        assert all_ok(check_operator(rb2dim, claim))

    def test_projection_on_group_algebra(self, group_algebra_z2):
        A = group_algebra_z2.algebra
        proj = group_algebra_z2.operators["proj"]
        assert all_ok(check_operator(A, OperatorClaim(proj, "averaging"), products="mu"))

    @pytest.mark.parametrize("power", [0, 1])
    def test_square_zero_derivation(self, diff4, power):
        # d(uv) = d(u)v + u d(v) with d^2 = 0 forces d(d(u)v) = d(u)d(v),
        # which is exactly the averaging law
        A = diff4.algebra
        d = diff4.operators["d"]
        assert all_ok(check_operator(A, OperatorClaim(d, "averaging", power=power)))

    def test_scalar_map_fails_unless_idempotent(self, rb2dim):
        b = EvenLinearMap.scalar(rb2dim.basis, 2)
        reports = {r.axiom: r for r in
                   check_operator(rb2dim, OperatorClaim(b, "averaging"))}
        # beta(beta(x) y) = 4 xy but beta(x) beta(y) = 4 xy as well -- scalars
        # do pass; contrast with an honest non-example below
        assert reports["averaging:mu:left"].ok

    def test_located_failure(self, group_algebra_z2):
        A = group_algebra_z2.algebra
        bad = EvenLinearMap.diagonal(A.basis, (1, 2))
        reports = {r.axiom: r for r in
                   check_operator(A, OperatorClaim(bad, "averaging"), products="mu")}
        rep = reports["averaging:mu:left"]
        # beta(beta(e2) e1) = 4 e2 vs beta(e2) beta(e1) = 2 e2
        assert [v.indices for v in rep.violations] == [(1, 0), (1, 1)]


class TestCentroid:
    def test_scalars_are_centroid(self, example3):
        for c in (F(2), F(-1, 3)):
            b = EvenLinearMap.scalar(example3.basis, c)
            assert all_ok(check_operator(example3, OperatorClaim(b, "centroid")))

    def test_bracket_one_sided(self, example3):
        # the bracket clause only constrains beta([x,y]) = [beta(x), a^k(y)]
        reports = check_operator(
            example3,
            OperatorClaim(EvenLinearMap.scalar(example3.basis, 2), "centroid"),
        )
        labels = [r.axiom for r in reports]
        assert "centroid:bracket:left" in labels
        assert "centroid:bracket:right" not in labels
        assert "centroid:mu:right" in labels

    def test_non_centroid_located(self, rb2dim):
        b = EvenLinearMap.diagonal(rb2dim.basis, (1, 2))
        reports = {r.axiom: r for r in
                   check_operator(rb2dim, OperatorClaim(b, "centroid"))}
        # b(e2 e2) = b(e1) = e1 but b(e2) a^0(e2) = 2 e1
        assert (1, 1) in [v.indices for v in reports["centroid:mu:left"].violations]


class TestAlphaCommutation:
    def test_swap_against_nonscalar_alpha(self):
        g = GroupSpec((2,))
        basis = GradedBasis(g, ((0,), (0,)))
        A = GradedAlgebra(SignBicharacter(g, ((0,),)), basis,
                          BilinearProduct(basis, ()), None,
                          EvenLinearMap.diagonal(basis, (1, 2)))
        swap = EvenLinearMap(basis, ((0, 1), (1, 0)))
        reports = {r.axiom: r for r in check_operator(A, OperatorClaim(swap, "centroid"))}
        rep = reports["operator:alpha-commutation"]
        assert [v.indices for v in rep.violations] == [(0,), (1,)]

    def test_diagonal_always_commutes(self, example3):
        b = EvenLinearMap.diagonal(example3.basis, (5, 7, 11))
        reports = {r.axiom: r for r in check_operator(example3, OperatorClaim(b, "centroid"))}
        assert reports["operator:alpha-commutation"].ok


class TestNijenhuis:
    def test_identity_is_nijenhuis(self, rb2dim):
        claim = OperatorClaim(EvenLinearMap.identity(rb2dim.basis), "nijenhuis")
        assert all_ok(check_operator(rb2dim, claim))

    def test_diag10_fails_at_odd_pair(self, rb2dim):
        N = EvenLinearMap.diagonal(rb2dim.basis, (1, 0))
        reports = {r.axiom: r for r in
                   check_operator(rb2dim, OperatorClaim(N, "nijenhuis"), products="mu")}
        assert [v.indices for v in reports["nijenhuis:mu"].violations] == [(1, 1)]

    def test_transfer_gate_rejects(self, rb2dim):
        N = EvenLinearMap.diagonal(rb2dim.basis, (1, 0))
        with pytest.raises(HypothesisError):
            check_nijenhuis_transfer(rb2dim, N)

    def test_transfer_succeeds_for_identity(self, rb2dim):
        reports = check_nijenhuis_transfer(rb2dim, EvenLinearMap.identity(rb2dim.basis))
        assert all_ok(reports)
        assert [r.axiom for r in reports][-1] == "nijenhuis:bracket"


class TestSearch:
    def test_diagonal_rota_baxter_search(self, rb2dim):
        found = search_diagonal_operators(rb2dim, "rota-baxter", (0, 1, -1), weight=1)
        diags = [tuple(m.matrix[i][i] for i in range(2)) for m in found]
        assert diags == [(-1, -1), (0, 0)]

    @pytest.mark.parametrize("kind", ["bogus", "rota-baxter"])  # rota-baxter with no weight
    def test_claim_checked_without_candidates(self, rb2dim, kind):
        with pytest.raises(InvalidRepresentationError):
            search_diagonal_operators(rb2dim, kind, [])

    @pytest.mark.parametrize("unread", [{"weight": 1}, {"power": 1}], ids=["weight", "power"])
    def test_unread_parameter_refused(self, rb2dim, unread):
        with pytest.raises(InvalidRepresentationError, match="^nijenhuis claims take no "):
            search_diagonal_operators(rb2dim, "nijenhuis", [0, 1], **unread)

    def test_dimension_guard(self, rb2dim):
        g = rb2dim.group
        basis = GradedBasis(g, ((0,),) * 7)
        big = GradedAlgebra(rb2dim.epsilon, basis, BilinearProduct(basis, ()),
                            None, EvenLinearMap.identity(basis))
        with pytest.raises(SearchSpaceError):
            search_diagonal_operators(big, "nijenhuis", (0, 1))

    def test_size_guard(self, rb2dim):
        g = rb2dim.group
        basis = GradedBasis(g, ((0,),) * 6)
        A = GradedAlgebra(rb2dim.epsilon, basis, BilinearProduct(basis, ()),
                          None, EvenLinearMap.identity(basis))
        with pytest.raises(SearchSpaceError):
            search_diagonal_operators(A, "nijenhuis", range(9))
