import json
from fractions import Fraction as F

import pytest

from algcheck import (
    EvenLinearMap,
    GroupSpec,
    HypothesisError,
    IncompatibilityError,
    InvalidRepresentationError,
    MultiplierTable,
    ShapeError,
    SingularMapError,
    averaging_twist_pairwise,
    averaging_twist_power,
    averaging_twist_untwisted,
    centroid_twist,
    multiplier_twist_delta,
    multiplier_twist_symmetric,
    nijenhuis_twist,
    parse_document,
    rota_baxter_twist,
    tensor_with_commutative,
    transport_along_bijection,
    validate_bicharacter_table,
    xi_twist,
)

from conftest import NON_BICHARACTER, load_fixture, three_dim


class TestXiTwist:
    def test_identity_element_is_neutral(self, group_algebra_z2):
        A = group_algebra_z2.algebra
        res = xi_twist(A, (1, 0))
        assert res.ok
        assert res.algebra.mu == A.mu

    def test_scaled_identity(self, group_algebra_z2):
        A = group_algebra_z2.algebra
        res = xi_twist(A, (2, 0))
        assert res.ok
        assert res.algebra.mu.of_pair(0, 0) == (2, 0)

    def test_rejects_inhomogeneous_xi(self, group_algebra_z2):
        with pytest.raises(HypothesisError):
            xi_twist(group_algebra_z2.algebra, (1, 1))

    def test_rejects_nonzero_degree_xi(self, example3):
        with pytest.raises(HypothesisError):
            xi_twist(example3, (0, 0, 1))

    def test_length_mismatch(self, example3):
        with pytest.raises(ShapeError):
            xi_twist(example3, (1, 0))

    def test_gate_on_nonassociative_input(self):
        with pytest.raises(HypothesisError):
            xi_twist(three_dim(corrected=False), (1, 0, 0))


class TestMultiplierSymmetric:
    def test_symmetric_sigma(self, group_algebra_z2sq):
        P = group_algebra_z2sq.algebra
        s = group_algebra_z2sq.multipliers["sigma_sym"]
        res = multiplier_twist_symmetric(P, s)
        assert res.ok
        # sigma((1,0),(1,0)) = -1 flips the sign of that structure constant
        i = P.basis.degrees.index((1, 0))
        assert res.algebra.mu.of_pair(i, i) == tuple(
            -c for c in P.mu.of_pair(i, i)
        )

    def test_trivial_sigma_is_neutral(self, group_algebra_z2sq):
        P = group_algebra_z2sq.algebra
        res = multiplier_twist_symmetric(P, group_algebra_z2sq.multipliers["sigma_one"])
        assert res.ok and res.algebra == P

    def test_gate_rejects_asymmetric_sigma(self, group_algebra_z2sq):
        with pytest.raises(HypothesisError):
            multiplier_twist_symmetric(
                group_algebra_z2sq.algebra, group_algebra_z2sq.multipliers["sigma_asym"]
            )


class TestMultiplierDelta:
    def test_asymmetric_sigma_twists_epsilon(self, group_algebra_z2sq):
        P = group_algebra_z2sq.algebra
        s = group_algebra_z2sq.multipliers["sigma_asym"]
        res = multiplier_twist_delta(P, s)
        assert res.ok
        assert res.algebra.epsilon.value((1, 0), (0, 1)) == -1
        assert res.algebra.epsilon.value((0, 1), (1, 0)) == -1

    def test_symmetric_sigma_keeps_epsilon_object(self, group_algebra_z2sq):
        P = group_algebra_z2sq.algebra
        res = multiplier_twist_delta(P, group_algebra_z2sq.multipliers["sigma_sym"])
        assert res.ok and res.algebra.epsilon is P.epsilon

    def test_endomorphism_carries_over(self, group_algebra_z2sq):
        P = group_algebra_z2sq.algebra
        s = group_algebra_z2sq.multipliers["sigma_asym"]
        res = multiplier_twist_delta(P, s, endomorphisms=[P.alpha])
        assert res.ok and len(res.morphism) == 3

    def test_non_endomorphism_gated(self, group_algebra_z2sq):
        P = group_algebra_z2sq.algebra
        s = group_algebra_z2sq.multipliers["sigma_asym"]
        with pytest.raises(HypothesisError):
            multiplier_twist_delta(P, s, endomorphisms=[group_algebra_z2sq.operators["beta2"]])


@pytest.mark.parametrize("twist", [multiplier_twist_symmetric, multiplier_twist_delta])
@pytest.mark.parametrize("moduli", [(3,), (1,)], ids=["Z3", "Z1"])
def test_multiplier_over_another_group_refused(example3, twist, moduli):
    # example3 is graded by Z_2: a table over another group would be read
    # at Z_2 element indices
    with pytest.raises(ShapeError, match="multiplier group differs from algebra group"):
        twist(example3, MultiplierTable.constant(GroupSpec(moduli), 2))


class TestTransport:
    def test_generic_bijection(self, example3):
        f = EvenLinearMap(example3.basis, ((1, 2, 0), (0, 1, 0), (0, 0, F(3, 5))))
        res = transport_along_bijection(example3, f)
        assert res.ok

    def test_identity_is_neutral(self, example3):
        res = transport_along_bijection(example3, EvenLinearMap.identity(example3.basis))
        assert res.ok and res.algebra == example3

    def test_singular_map_rejected(self, example3):
        with pytest.raises(SingularMapError):
            transport_along_bijection(
                example3, EvenLinearMap.diagonal(example3.basis, (1, 0, 1))
            )

    def test_map_on_another_basis_refused(self, example3, diff4):
        f = EvenLinearMap.identity(diff4.algebra.basis)
        with pytest.raises(ShapeError, match="map basis differs from algebra basis"):
            transport_along_bijection(example3, f)


class TestCentroidTwist:
    def test_identity_is_neutral(self, example3):
        res = centroid_twist(example3, EvenLinearMap.identity(example3.basis))
        assert res.ok
        assert res.algebra.bracket == example3.bracket
        assert all(r.ok for r in res.findings)

    @pytest.mark.parametrize("c", [F(2), F(-1, 3)])
    def test_scalar_centroid(self, example3, c):
        b = EvenLinearMap.scalar(example3.basis, c)
        res = centroid_twist(example3, b)
        assert res.ok
        assert res.algebra.bracket.of_pair(1, 2) == (0, 0, c)
        # the claimed morphism property does not hold for c != 1: recorded
        # as a finding, never suppressed
        findings = {r.axiom: r for r in res.findings}
        assert findings["morphism:alpha"].ok
        assert findings["morphism:bracket"].ok
        assert not findings["morphism:mu"].ok

    def test_gate_rejects_non_centroid(self, rb2dim_poisson):
        b = EvenLinearMap.diagonal(rb2dim_poisson.basis, (1, 2))
        with pytest.raises(HypothesisError):
            centroid_twist(rb2dim_poisson, b)


class TestAveragingPairwise:
    def test_projection(self, group_algebra_z2):
        A = group_algebra_z2.algebra
        res = averaging_twist_pairwise(A, group_algebra_z2.operators["proj"])
        assert res.ok
        # proj kills the odd component, so only e1.e1 survives
        assert res.algebra.mu.entries == ((0, 0, 0, F(1)),)

    def test_square_zero_derivation(self, diff4):
        res = averaging_twist_pairwise(diff4.algebra, diff4.operators["d"])
        assert res.ok
        # d(x) d(x) = y^2 = 0: the twisted product is identically zero here
        assert res.algebra.mu.of_pair(1, 1) == (0, 0, 0, 0)


class TestAveragingUntwisted:
    def test_derivation_becomes_twisting_map(self, diff4):
        d = diff4.operators["d"]
        res = averaging_twist_untwisted(diff4.algebra, d)
        assert res.ok
        assert res.algebra.alpha == d
        # x * v = d(x) v = y v
        assert res.algebra.mu.of_pair(1, 0) == (0, 0, 1, 0)

    def test_projection_counterexample(self, group_algebra_z2):
        # the projection passes the averaging gate, yet the output fails
        # Hom-associativity: beta^2(x).(beta(y).z) = (beta(x).beta(y)).beta(z)
        # is false when beta annihilates z.  Kept as a frozen negative
        # regression -- the construction reports it instead of hiding it.
        A = group_algebra_z2.algebra
        res = averaging_twist_untwisted(A, group_algebra_z2.operators["proj"])
        assert not res.ok
        reports = {r.axiom: r for r in res.certification}
        assert (0, 0, 1) in [v.indices for v in reports["hom-associativity"].violations]

    def test_requires_untwisted_input(self, example3):
        with pytest.raises(HypothesisError):
            averaging_twist_untwisted(example3, EvenLinearMap.identity(example3.basis))


class TestAveragingPower:
    @pytest.mark.parametrize("k", [0, 1])
    def test_scalar_on_untwisted(self, diff4, k):
        b = EvenLinearMap.scalar(diff4.algebra.basis, 2)
        res = averaging_twist_power(diff4.algebra, b, k)
        assert res.ok
        assert res.algebra.mu.of_pair(1, 2) == (0, 0, 0, F(2))

    def test_scalar_on_twisted(self, example3):
        res = averaging_twist_power(example3, EvenLinearMap.scalar(example3.basis, 2), 0)
        assert res.ok

    def test_rejects_non_bijective(self, group_algebra_z2):
        with pytest.raises(SingularMapError):
            averaging_twist_power(
                group_algebra_z2.algebra, group_algebra_z2.operators["proj"], 0
            )

    @pytest.mark.parametrize("k", [1.0, 1.5, True])
    def test_rejects_non_integer_power(self, group_algebra_z2, k):
        A = group_algebra_z2.algebra
        with pytest.raises(InvalidRepresentationError, match="operator powers must be integers"):
            averaging_twist_power(A, EvenLinearMap.identity(A.basis), k)


class TestNijenhuisTwist:
    def test_identity_is_neutral(self, rb2dim_poisson):
        res = nijenhuis_twist(rb2dim_poisson, EvenLinearMap.identity(rb2dim_poisson.basis))
        assert res.ok
        assert res.algebra.mu == rb2dim_poisson.mu

    def test_scalar(self, rb2dim_poisson):
        # N = c id deforms both products by (2c - c) = c
        N = EvenLinearMap.scalar(rb2dim_poisson.basis, 3)
        res = nijenhuis_twist(rb2dim_poisson, N)
        assert res.ok
        assert res.algebra.mu.of_pair(1, 1) == (3, 0)

    def test_gate(self, rb2dim_poisson):
        with pytest.raises(HypothesisError):
            nijenhuis_twist(
                rb2dim_poisson, EvenLinearMap.diagonal(rb2dim_poisson.basis, (1, 0))
            )

    def test_gate_on_the_commutation_factor(self):
        P = parse_document(json.dumps(NON_BICHARACTER[0].values[0])).algebra
        with pytest.raises(HypothesisError) as info:
            nijenhuis_twist(P, EvenLinearMap.identity(P.basis))
        assert str(info.value) == "commutation factor is not a bicharacter"
        assert info.value.reports == [r for r in validate_bicharacter_table(P.epsilon) if not r.ok]
        assert [r.axiom for r in info.value.reports] == [
            "bicharacter:additivity-left", "bicharacter:additivity-right",
            "bicharacter:identity-element"]


class TestRotaBaxterTwist:
    def test_minus_half_id(self, rb2dim_poisson):
        R = EvenLinearMap.scalar(rb2dim_poisson.basis, F(-1, 2))
        res = rota_baxter_twist(rb2dim_poisson, R, F(1, 2))
        assert res.ok
        # deformation factor is -1/2 - 1/2 + 1/2 = -1/2
        assert res.algebra.mu.of_pair(1, 1) == (F(-1, 2), 0)
        assert res.algebra.bracket.of_pair(1, 1) == (-1, 0)

    def test_wrong_weight_gated(self, rb2dim_poisson):
        R = EvenLinearMap.scalar(rb2dim_poisson.basis, F(-1, 2))
        with pytest.raises(HypothesisError):
            rota_baxter_twist(rb2dim_poisson, R, 3)


class TestTensor:
    def test_comm2_with_example3(self, example3):
        A = load_fixture("comm2").algebra
        res = tensor_with_commutative(A, example3)
        assert res.ok
        T = res.algebra
        assert T.dim == 6
        # (v ox e2)(v ox e3): v.v = 0 in comm2, so the entry vanishes
        assert T.mu.of_pair(4, 5) == (0,) * 6
        # (u ox e2)(v ox e3) = (u.v) ox (e2.e3) = v ox e3
        assert T.mu.of_pair(1, 5) == (0, 0, 0, 0, 0, 1)

    def test_quadratic_extension(self, example3):
        A = load_fixture("ksqrt2").algebra
        res = tensor_with_commutative(A, example3)
        assert res.ok
        # (t ox e1)(t ox e1) = t^2 ox e1 = 2 (1 ox e1)
        assert res.algebra.mu.of_pair(3, 3) == (2, 0, 0, 0, 0, 0)

    def test_group_mismatch(self, example3, group_algebra_z2sq):
        with pytest.raises(IncompatibilityError):
            tensor_with_commutative(group_algebra_z2sq.algebra, example3)

    def test_epsilon_mismatch(self, group_algebra_z2):
        A = load_fixture("unital_line").algebra
        with pytest.raises(IncompatibilityError):
            tensor_with_commutative(A, group_algebra_z2.algebra)

    def test_noncommutative_left_factor_gated(self, example3):
        with pytest.raises(HypothesisError):
            tensor_with_commutative(example3, example3)
