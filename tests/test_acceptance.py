"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 4 also asserts a located counterexample: the untwisted averaging
twist of K[Z2] by the gated projection beta = proj has x*y = beta(x).y and
alpha := beta, so alpha(e0)*(e0*e1) = e1 but (e0*e0)*alpha(e1) = 0, and
Hom-associativity fails at exactly (0,0,1).
"""

import json
import random
from fractions import Fraction as F

import pytest

from algcheck import (
    EvenLinearMap,
    all_ok,
    averaging_twist_pairwise,
    averaging_twist_power,
    averaging_twist_untwisted,
    centroid_twist,
    check_hom_associative,
    check_hom_leibniz,
    check_hom_lie,
    check_hom_poisson,
    check_operator,
    commutator_bracket,
    multiplier_twist_delta,
    multiplier_twist_symmetric,
    nijenhuis_twist,
    parse_document,
    rota_baxter_twist,
    serialize_document,
    tensor_with_commutative,
    transport_along_bijection,
    validate_multiplier,
    xi_twist,
    OperatorClaim,
)
from algcheck.cli import main
from algcheck.grading import delta_from_multiplier

from conftest import (
    FIXTURES,
    _plain,
    load_fixture,
    ref_hom_associative,
    ref_hom_leibniz,
    ref_hom_lie,
    residual_direct,
    three_dim,
    vec_is_zero,
    vec_scale,
)

ALL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.json"))


def verdict(n, failures, detail=""):
    ok = not failures
    tail = detail if ok else "; ".join(failures)
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}" + (f" -- {tail}" if tail else ""))
    assert ok, f"criterion {n}: " + "; ".join(failures)


def test_criterion_1_fixture_certification(capsys):
    failures = []
    for a in (F(1), F(2), F(-3)):
        for exponent in (0, 1):
            if not all_ok(check_hom_poisson(three_dim(a, exponent))):
                failures.append(f"corrected a={a} E=[[{exponent}]] not certified")
    # the as-printed variant's located verdict is frozen as a committed report
    assert main(["report", str(FIXTURES / "example3_as_printed.json")]) == 1
    got = capsys.readouterr().out
    expected = (FIXTURES / "reports" / "example3_as_printed.validate.txt").read_text(
        encoding="utf-8"
    )
    if got != expected:
        failures.append("as-printed regression report drifted")
    verdict(1, failures, "6 certified variants + located regression")


def test_criterion_2_rota_baxter_fixture():
    doc = load_fixture("rb2dim")
    A = doc.algebra
    failures = []
    if not check_hom_associative(A).ok:
        failures.append("2-dim fixture not Hom-associative")
    n = A.dim
    unit = lambda i: tuple(F(1) if j == i else F(0) for j in range(n))
    for lam in (F(0), F(1), F(1, 2)):
        R = EvenLinearMap.scalar(A.basis, -lam)
        if not all_ok(check_operator(A, OperatorClaim(R, "rota-baxter", weight=lam))):
            failures.append(f"R=-{lam}.id rejected at weight {lam}")
        for i in range(n):
            for j in range(n):
                prod = A.mu.of_pair(i, j)
                lhs = A.mu.apply(R.apply(unit(i)), R.apply(unit(j)))
                mid = vec_scale(lam * lam, prod)
                rhs = R.apply(vec_scale(-lam, prod))
                if not lhs == mid == rhs:
                    failures.append(f"closure identity broken at lam={lam} pair ({i},{j})")
    verdict(2, failures, "weights 0, 1, 1/2 with exact closure")


def test_criterion_3_commutator_polarization():
    failures, count = [], 0
    for name in ALL_FIXTURES:
        A = load_fixture(name).algebra
        if A.mu is None or not check_hom_associative(A).ok:
            continue
        count += 1
        if not all_ok(check_hom_poisson(commutator_bracket(A))):
            failures.append(f"P({name}) fails")
    verdict(3, failures, f"{count} Hom-associative fixtures polarized")


def test_criterion_4_construction_recertification():
    failures = []

    def expect(label, res, structural_equal_to=None):
        if not all_ok(res.certification):
            failures.append(f"{label}: re-certification failed")
        if not all_ok(res.morphism):
            failures.append(f"{label}: morphism clause failed")
        if structural_equal_to is not None and res.algebra != structural_equal_to:
            failures.append(f"{label}: neutral parameters changed the structure")

    P3 = three_dim()
    GZ2 = load_fixture("group_algebra_z2")
    GZ2SQ = load_fixture("group_algebra_z2sq")
    D4 = load_fixture("diff4")
    PA = load_fixture("rb2dim_poisson").algebra

    expect("xi neutral", xi_twist(GZ2.algebra, (1, 0)), GZ2.algebra)
    expect("xi scaled", xi_twist(GZ2.algebra, (2, 0)))

    expect("multiplier-sym neutral",
           multiplier_twist_symmetric(GZ2SQ.algebra, GZ2SQ.multipliers["sigma_one"]),
           GZ2SQ.algebra)
    expect("multiplier-sym",
           multiplier_twist_symmetric(GZ2SQ.algebra, GZ2SQ.multipliers["sigma_sym"]))

    expect("multiplier-delta neutral",
           multiplier_twist_delta(GZ2SQ.algebra, GZ2SQ.multipliers["sigma_one"]),
           GZ2SQ.algebra)
    expect("multiplier-delta",
           multiplier_twist_delta(GZ2SQ.algebra, GZ2SQ.multipliers["sigma_asym"],
                                  endomorphisms=[GZ2SQ.algebra.alpha]))

    expect("transport neutral",
           transport_along_bijection(P3, EvenLinearMap.identity(P3.basis)), P3)
    f = EvenLinearMap(P3.basis, ((1, 2, 0), (0, 1, 0), (0, 0, F(3, 5))))
    expect("transport", transport_along_bijection(P3, f))

    expect("centroid neutral", centroid_twist(P3, EvenLinearMap.identity(P3.basis)), P3)
    for c in (F(2), F(-1, 3)):
        res = centroid_twist(P3, EvenLinearMap.scalar(P3.basis, c))
        expect(f"centroid c={c}", res)
        # the morphism claim is a recorded finding; require the verdict to be
        # definitive and reproducible, whichever way it falls
        bad = sorted(r.axiom for r in res.findings if not r.ok)
        if bad != ["morphism:mu"]:
            failures.append(f"centroid c={c}: finding not reproducible ({bad})")

    expect("averaging-pair neutral",
           averaging_twist_pairwise(P3, EvenLinearMap.identity(P3.basis)), P3)
    expect("averaging-pair derivation",
           averaging_twist_pairwise(D4.algebra, D4.operators["d"]))

    expect("averaging-untwisted neutral",
           averaging_twist_untwisted(GZ2.algebra, EvenLinearMap.identity(GZ2.algebra.basis)))
    expect("averaging-untwisted derivation",
           averaging_twist_untwisted(D4.algebra, D4.operators["d"]))
    # gated projection, asserted as a counterexample: beta = proj kills e1,
    # so x*y = beta(x).y leaves only e0*e0 = e0 and e0*e1 = e1, alpha := beta,
    # and alpha(e0)*(e0*e1) = e1 != 0 = (e0*e0)*alpha(e1) at (0,0,1) only.
    proj = GZ2.operators["proj"]
    res = averaging_twist_untwisted(GZ2.algebra, proj)  # HypothesisError fails the test
    label = "averaging-untwisted/proj counterexample"
    if res.ok:
        failures.append(f"{label}: output re-certified")
    if res.algebra.mu.entries != ((0, 0, 0, 1), (0, 1, 1, 1)) or res.algebra.alpha != proj:
        failures.append(f"{label}: unexpected output algebra")
    bad = [r for r in res.certification + res.morphism + res.findings if not r.ok]
    if [r.axiom for r in bad] != ["hom-associativity"]:
        failures.append(f"{label}: failing reports {[r.axiom for r in bad]}")
    elif [(v.indices, v.lhs, v.rhs) for v in bad[0].violations] != [((0, 0, 1), (0, 1), (0, 0))]:
        failures.append(f"{label}: violations {bad[0].violations}")

    expect("averaging-power neutral",
           averaging_twist_power(P3, EvenLinearMap.identity(P3.basis), 0), P3)
    expect("averaging-power scaled",
           averaging_twist_power(D4.algebra, EvenLinearMap.scalar(D4.algebra.basis, 2), 1))

    expect("nijenhuis neutral",
           nijenhuis_twist(PA, EvenLinearMap.identity(PA.basis)), PA)
    expect("nijenhuis scaled", nijenhuis_twist(PA, EvenLinearMap.scalar(PA.basis, 3)))

    expect("rota-baxter neutral",
           rota_baxter_twist(PA, EvenLinearMap.scalar(PA.basis, 0), 1), PA)
    expect("rota-baxter", rota_baxter_twist(PA, EvenLinearMap.scalar(PA.basis, F(-1, 2)),
                                            F(1, 2)))

    expect("tensor comm2", tensor_with_commutative(load_fixture("comm2").algebra, P3))
    expect("tensor quadratic", tensor_with_commutative(load_fixture("ksqrt2").algebra, P3))

    verdict(4, failures, "all constructions re-certified; "
                         "averaging-untwisted/proj counterexample reproduced at (0,0,1)")


def test_criterion_5_multiplier_machinery():
    doc = load_fixture("group_algebra_z2sq")
    g = doc.algebra.group
    asym, sym = doc.multipliers["sigma_asym"], doc.multipliers["sigma_sym"]
    failures = []
    if not all_ok(validate_multiplier(asym)):
        failures.append("asymmetric sigma fails the cocycle law")
    reports = {r.axiom: r for r in validate_multiplier(asym, symmetric=True)}
    if reports["multiplier:symmetry"].ok:
        failures.append("asymmetric sigma unexpectedly passes the symmetry gate")
    d = delta_from_multiplier(asym)
    for x in g.elements():
        for y in g.elements():
            if d.value(x, y) != F(-1) ** (x[0] * y[1] - x[1] * y[0]):
                failures.append(f"delta mismatch at {x},{y}")
    if not all_ok(validate_multiplier(sym, symmetric=True)):
        failures.append("symmetric sigma fails a symmetric-theorem gate")
    verdict(5, failures, "64 cocycle triples, 16 delta pairs")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260824)
    failures = []

    def rand_vec(n):
        return tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))

    for name in ALL_FIXTURES:
        A = load_fixture(name).algebra
        # each law's reports, the library's and the dense reference's
        sweep = {}
        if A.mu is not None:
            sweep["associativity"] = [check_hom_associative(A)], ref_hom_associative(A)
        if A.bracket is not None:
            sweep["jacobi"] = check_hom_lie(A), ref_hom_lie(A)
        if A.mu is not None and A.bracket is not None:
            sweep["leibniz"] = [check_hom_leibniz(A)], ref_hom_leibniz(A)
        for axiom, (got, want) in sweep.items():
            if _plain(got) != want:
                failures.append(f"{name}/{axiom}: reports differ from the dense reference")
            ok = got[-1].ok  # the trilinear law's own report
            samples = [tuple(rand_vec(A.dim) for _ in range(3)) for _ in range(100)]
            zero_everywhere = all(vec_is_zero(residual_direct(A, axiom, vecs)) for vecs in samples)
            if ok and not zero_everywhere:
                failures.append(f"{name}/{axiom}: sweep passes but a sample residual is nonzero")
            if not ok and zero_everywhere:
                failures.append(f"{name}/{axiom}: sweep fails but all 100 samples vanish")
    verdict(6, failures, f"{len(ALL_FIXTURES)} fixtures: reports equal the dense reference's, "
                         "x 100 samples per axiom")


def test_criterion_7_cli_round_trip(tmp_path, capsys):
    failures = []
    for name in ALL_FIXTURES:
        text = (FIXTURES / f"{name}.json").read_text(encoding="utf-8")
        if serialize_document(parse_document(text)) != text:
            failures.append(f"{name}: not a serialization fixpoint")
    twists = [
        (["twist", str(FIXTURES / "rb2dim_poisson.json"), "--construction",
          "rota-baxter", "--operator", "R", "--weight", "1/2"], "rb.json"),
        (["twist", str(FIXTURES / "group_algebra_z2sq.json"), "--construction",
          "multiplier-delta", "--multiplier", "sigma_asym"], "delta.json"),
        (["tensor", str(FIXTURES / "comm2.json"),
          str(FIXTURES / "example3_corrected.json")], "tensor.json"),
    ]
    for argv, out_name in twists:
        out = tmp_path / out_name
        code = main(argv + ["-o", str(out)])
        if code != 0:
            failures.append(f"{argv[1]}: twist exited {code}")
            continue
        if main(["validate", str(out)]) != 0:
            failures.append(f"{out_name}: exit-0 output does not re-validate")
        again = serialize_document(parse_document(out.read_text(encoding="utf-8")))
        if again != out.read_text(encoding="utf-8"):
            failures.append(f"{out_name}: output not canonical")
    capsys.readouterr()
    verdict(7, failures, "corpus fixpoint + 3 twist outputs re-validated")
