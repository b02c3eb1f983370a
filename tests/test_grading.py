import importlib.util
import pathlib
from fractions import Fraction as F

import pytest

from algcheck import (
    GroupSpec,
    InvalidRepresentationError,
    MultiplierTable,
    ShapeError,
    SignBicharacter,
    all_ok,
    check_hom_poisson,
    delta_from_multiplier,
    twist_epsilon,
    validate_bicharacter,
    validate_multiplier,
)

from conftest import load_fixture, ref_bicharacter, ref_multiplier

Z2SQ = GroupSpec((2, 2))
Z4 = GroupSpec((4,))


def sigma_asym():
    return MultiplierTable.from_function(Z2SQ, lambda x, y: F(-1) ** (x[0] * y[1]))


def sigma_sym():
    return MultiplierTable.from_function(Z2SQ, lambda x, y: F(-1) ** (x[0] * y[0]))


class TestGroup:
    def test_add(self):
        assert Z2SQ.add((1, 0), (1, 1)) == (0, 1)
        assert Z4.add((3,), (3,)) == (2,)

    def test_identity(self):
        for a in Z2SQ.elements():
            assert Z2SQ.add(a, Z2SQ.zero) == a

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Z4.add((3,), (1, 2))

    def test_order_bound(self, monkeypatch):
        monkeypatch.setenv("ALGCHECK_GROUP_BOUND", "8")
        with pytest.raises(InvalidRepresentationError):
            GroupSpec((3, 3))
        assert GroupSpec((2, 4)).order == 8

    def test_trivial_factor_allowed(self):
        g = GroupSpec((1, 2))
        assert g.order == 2 and g.elements()[0] == (0, 0)

    @pytest.mark.parametrize("modulus", [2.5, 2.0, True, "2", F(2)])
    def test_non_integer_modulus_rejected(self, modulus):
        with pytest.raises(InvalidRepresentationError):
            GroupSpec((2, modulus))


class TestBicharacter:
    def test_sign_on_z2(self):
        # models the multiplicative group {-1, +1} with -1 <-> 1
        e = SignBicharacter(GroupSpec((2,)), ((1,),))
        assert e.value((1,), (1,)) == -1
        assert e.value((0,), (1,)) == 1
        assert all_ok(validate_bicharacter(e))

    def test_identity_matrix_on_z2n(self):
        g = GroupSpec((2, 2, 2))
        e = SignBicharacter(g, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert all_ok(validate_bicharacter(e))
        assert e.value((1, 1, 0), (0, 1, 1)) == -1

    def test_trivial(self):
        e = SignBicharacter(Z2SQ, ((0, 0), (0, 0)))
        assert all_ok(validate_bicharacter(e))

    def test_odd_modulus_well_definedness(self):
        with pytest.raises(InvalidRepresentationError):
            SignBicharacter(GroupSpec((3, 2)), ((1, 0), (0, 1)))

    def test_asymmetric_exponent_fails_skew(self):
        # mod 2, E must be symmetric for eps(a,b)eps(b,a) = 1
        e = SignBicharacter(Z2SQ, ((0, 1), (0, 0)))
        reports = {r.axiom: r for r in validate_bicharacter(e)}
        assert not reports["bicharacter:skew-symmetry"].ok

    @pytest.mark.parametrize("entry", [1.5, 1.0, "1", True, F(1)])
    def test_non_integer_exponent_rejected(self, entry):
        with pytest.raises(InvalidRepresentationError):
            SignBicharacter(Z2SQ, ((0, entry), (entry, 0)))

    def test_integer_exponents_reduce_mod_2(self):
        e = SignBicharacter(Z2SQ, ((3, -2), (4, -1)))
        assert e.matrix == ((1, 0), (0, 1))

    def test_remark_consequences(self):
        e = SignBicharacter(Z2SQ, ((1, 1), (1, 0)))
        for a in Z2SQ.elements():
            assert e.value(a, Z2SQ.zero) == 1 == e.value(Z2SQ.zero, a)
            assert e.value(a, a) in (1, -1)


class TestClosedForm:
    """validate_bicharacter answers a sign bicharacter without a |G|^3 sweep."""

    def test_ill_defined_matrix_raises_before_any_sweep(self):
        g = GroupSpec((3, 4, 4, 4))
        with pytest.raises(InvalidRepresentationError):
            SignBicharacter(g, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        assert "_els" not in vars(g) and "_sums" not in vars(g)

    def test_non_skew_matrix_fails_at_the_reference_pairs(self):
        g = GroupSpec((4, 2))
        e = SignBicharacter(g, ((0, 1), (0, 0)))
        skew, *rest = validate_bicharacter(e)
        want = dict(ref_bicharacter(e))["bicharacter:skew-symmetry"]
        assert want and [(v.indices, v.lhs, v.rhs) for v in skew.violations] == want
        assert all(v.lhs == (-1,) and v.rhs == (1,) for v in skew.violations)
        # a^T (E + E^T) b = a_0 b_1 + a_1 b_0 mod 2
        assert [v.indices for v in skew.violations] == [
            (a, b) for a in g.elements() for b in g.elements() if (a[0] * b[1] + a[1] * b[0]) % 2]
        assert all(r.ok for r in rest)
        assert "_sums" not in vars(g)  # the sign path never needs the addition table

    def test_symmetric_matrix_passes_without_any_table(self):
        g = GroupSpec((2,) * 8)
        m = tuple(tuple(int(i == j or {i, j} == {0, 5} or {i, j} == {3, 7}) for j in range(8))
                  for i in range(8))
        e = SignBicharacter(g, m)
        reports = validate_bicharacter(e)
        assert [rep.axiom for rep in reports] == [
            "bicharacter:skew-symmetry", "bicharacter:additivity-left",
            "bicharacter:additivity-right", "bicharacter:identity-element",
            "bicharacter:diagonal-sign"]
        assert all(rep.ok for rep in reports)
        assert "values" not in vars(e)
        assert not {"_els", "_sums"} & vars(g).keys()

    def test_non_symmetric_matrix_is_swept_as_its_table(self):
        g = GroupSpec((4, 2))
        e = SignBicharacter(g, ((1, 1), (0, 0)))
        reports = validate_bicharacter(e)
        assert not reports[0].ok
        assert reports == validate_bicharacter(MultiplierTable(g, e.values))

    @pytest.mark.parametrize("moduli", [(), (1,), (1, 1), (1, 2, 1)])
    def test_trivial_factors_give_five_empty_reports(self, moduli):
        g = GroupSpec(moduli)
        r = g.rank
        e = SignBicharacter(g, tuple(tuple(int(moduli[i] == 2 and i == j) for j in range(r))
                                     for i in range(r)))
        reports = validate_bicharacter(e)
        assert [rep.axiom for rep in reports] == [name for name, _ in ref_bicharacter(e)]
        assert len(reports) == 5 and all(rep.ok for rep in reports)

    def test_group_identity_ignores_cached_tables(self):
        warm, cold = GroupSpec((2, 3)), GroupSpec((2, 3))
        validate_multiplier(MultiplierTable.constant(warm, 1))
        assert {"_els", "_sums"} <= vars(warm).keys()
        assert not {"_els", "_sums"} & vars(cold).keys()
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) == "GroupSpec(moduli=(2, 3))"
        e = SignBicharacter(warm, ((1, 0), (0, 0)))
        e.values
        assert e == SignBicharacter(cold, ((1, 0), (0, 0)))
        assert hash(e) == hash(SignBicharacter(cold, ((1, 0), (0, 0))))
        # the same for the algebra layer, after a full Hom-Poisson sweep
        warm, cold = load_fixture("example3_corrected").algebra, load_fixture("example3_corrected").algebra
        assert all_ok(check_hom_poisson(warm))
        for w, c, cache in [(warm, cold, "eps"), (warm.alpha, cold.alpha, "_columns"),
                            (warm.mu, cold.mu, "_rows"), (warm.bracket, cold.bracket, "_rows")]:
            assert cache in vars(w) and cache not in vars(c)
            assert w == c and hash(w) == hash(c) and repr(w) == repr(c)
        # the stored attributes of a fresh instance are exactly its inputs, in order
        g, fresh = GroupSpec((2, 3)), load_fixture("example3_corrected").algebra
        inputs = [(g, ["moduli"]), (SignBicharacter(g, ((1, 0), (0, 0))), ["group", "matrix"]),
                  (fresh.alpha, ["basis", "matrix"]), (fresh.mu, ["basis", "entries"]),
                  (fresh, ["epsilon", "basis", "mu", "bracket", "alpha"])]
        for obj, names in inputs:
            assert list(vars(obj)) == names
        # the algebra's group is its basis's, not a stored copy
        assert fresh.group is fresh.basis.group

    def test_sum_table_matches_add(self):
        g = GroupSpec((2, 3, 4))
        els = g.elements()
        assert [[els[k] for k in row] for row in g._sums] == [
            [g.add(a, b) for b in els] for a in els]


class TestMultiplier:
    def test_asym_cocycle_holds_symmetry_fails(self):
        s = sigma_asym()
        assert all_ok(validate_multiplier(s))
        reports = {r.axiom: r for r in validate_multiplier(s, symmetric=True)}
        assert reports["multiplier:cocycle"].ok
        bad = reports["multiplier:symmetry"]
        assert not bad.ok
        assert ((1, 0), (0, 1)) in [v.indices for v in bad.violations]

    def test_violations_carry_the_table_values(self):
        # the sweeps compare cleared ints and record them over D or D^2: on a
        # table with denominators that fails every law, each violation must
        # carry the table's own values and their products
        g = GroupSpec((2, 3))
        s = MultiplierTable.from_function(g, lambda x, y: F(1 + x[1] + 2 * y[0], 2 + x[0] * y[1]))
        got = validate_multiplier(s, symmetric=True) + validate_bicharacter(s)
        assert all(not r.ok for r in got)
        assert [(r.axiom, [(v.indices, v.lhs, v.rhs) for v in r.violations]) for r in got] == (
            ref_multiplier(s, symmetric=True) + ref_bicharacter(s))

    def test_constant_table(self):
        for c in (F(1), F(3, 7)):
            s = MultiplierTable.constant(Z2SQ, c)
            assert all_ok(validate_multiplier(s, symmetric=True))

    def test_sym_passes_all_gates(self):
        assert all_ok(validate_multiplier(sigma_sym(), symmetric=True))

    def test_zero_entry_rejected(self):
        with pytest.raises(InvalidRepresentationError):
            MultiplierTable.constant(Z2SQ, 0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeError):
            MultiplierTable(Z2SQ, ((F(1),),))


class TestDelta:
    def test_closed_form(self):
        d = delta_from_multiplier(sigma_asym())
        for x in Z2SQ.elements():
            for y in Z2SQ.elements():
                assert d.value(x, y) == F(-1) ** (x[0] * y[1] - x[1] * y[0])
        assert d.value((1, 0), (0, 1)) == -1
        assert d.value((0, 1), (1, 0)) == -1

    def test_symmetric_sigma_gives_trivial_delta(self):
        d = delta_from_multiplier(sigma_sym())
        assert all(v == 1 for row in d.values for v in row)

    def test_delta_is_a_bicharacter(self):
        d = delta_from_multiplier(sigma_asym())
        assert all_ok(validate_bicharacter(d))


class TestTwistEpsilon:
    def test_neutral(self):
        e = SignBicharacter(Z2SQ, ((1, 0), (0, 1)))
        out = twist_epsilon(e, MultiplierTable.constant(Z2SQ, 1))
        for a in Z2SQ.elements():
            for b in Z2SQ.elements():
                assert out.value(a, b) == e.value(a, b)

    def test_trivial_epsilon_times_delta(self):
        e = SignBicharacter(Z2SQ, ((0, 0), (0, 0)))
        out = twist_epsilon(e, delta_from_multiplier(sigma_asym()))
        assert out.value((1, 0), (0, 1)) == -1

    def test_product_of_bicharacters_is_bicharacter(self):
        e = SignBicharacter(Z2SQ, ((1, 0), (0, 1)))
        out = twist_epsilon(e, delta_from_multiplier(sigma_asym()))
        assert all_ok(validate_bicharacter(out))
        for a in Z2SQ.elements():
            for b in Z2SQ.elements():
                assert out.value(a, b) * out.value(b, a) == 1

    def test_group_mismatch(self):
        with pytest.raises(ShapeError):
            twist_epsilon(SignBicharacter(Z4, ((0,),)), MultiplierTable.constant(Z2SQ, 1))


def test_scale_probe_runs_at_small_orders():
    # scripts/scale_probe.py must keep working; full sizes are for manual runs
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "scale_probe.py"
    spec = importlib.util.spec_from_file_location("scale_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    for order in (1, 2, 16):
        assert all(t >= 0 for t in probe.sweep_seconds(order))
    with pytest.raises(ValueError):
        probe.sweep_seconds(12)
    poisson, operators = probe.dimension_seconds(8)
    assert poisson >= 0 and sorted(operators) == sorted(probe.KINDS)
    assert [probe.grassmann_seconds(r)[1] for r in (1, 2, 3)] == [3, 9, 27]
    wall, cpu = probe.cli_validate_seconds(rank=4, runs=1)
    assert wall > 0 and cpu > 0
    seconds = probe.startup_seconds(runs=1)
    assert len(seconds) == len(probe.STARTUP)
    assert all(wall > 0 and cpu > 0 for wall, cpu in seconds)
