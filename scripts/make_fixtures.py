#!/usr/bin/env python3
"""Regenerate the fixture corpus in fixtures/ from first principles.

Run from the repository root:  python3 scripts/make_fixtures.py
"""

import pathlib
import sys
from fractions import Fraction as F

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from algcheck import (
    AlgebraDocument,
    BilinearProduct,
    EvenLinearMap,
    GradedAlgebra,
    GradedBasis,
    GroupSpec,
    MultiplierTable,
    SignBicharacter,
    commutator_bracket,
    serialize_document,
)

OUT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def write(name, doc):
    path = OUT / f"{name}.json"
    path.write_text(serialize_document(doc), encoding="utf-8")
    print("wrote", path)


def three_dim(a, corrected):
    """The 3-dim algebra with parameter a: span(e1, e2) in degree 0 and
    span(e3) in degree 1 over Z_2.  The published table carries the cell
    'e2.e1' twice; the corrected variant reads the second occurrence as
    e2.e2 = (1/a) e2, the as-printed variant keeps it at e2.e1."""
    g = GroupSpec((2,))
    basis = GradedBasis(g, ((0,), (0,), (1,)))
    a = F(a)
    entries = [
        (0, 0, 0, F(1)), (0, 1, 1, F(1)), (0, 2, 2, a),
        (1, 2, 2, F(1)), (2, 0, 2, a),
    ]
    if corrected:
        entries += [(1, 0, 1, F(1)), (1, 1, 1, 1 / a)]
    else:
        entries += [(1, 0, 1, 1 / a)]
    mu = BilinearProduct(basis, tuple(entries))
    bracket = BilinearProduct(basis, ((1, 2, 2, F(1)), (2, 1, 2, F(-1))))
    alpha = EvenLinearMap.diagonal(basis, (1, 1, a))
    return GradedAlgebra(SignBicharacter(g, ((1,),)), basis, mu, bracket, alpha)


def main():
    OUT.mkdir(exist_ok=True)
    (OUT / "reports").mkdir(exist_ok=True)

    a = F(2)
    P = three_dim(a, corrected=True)
    write("example3_corrected", AlgebraDocument(
        name="three-dim-poisson-corrected",
        algebra=P,
        operators={
            "Id": EvenLinearMap.identity(P.basis),
            "R": EvenLinearMap.scalar(P.basis, -1),
            "Rhalf": EvenLinearMap.scalar(P.basis, F(-1, 2)),
            "beta2": EvenLinearMap.scalar(P.basis, 2),
            "beta_third": EvenLinearMap.scalar(P.basis, F(-1, 3)),
        },
        metadata={"a": "2", "lambda": "1"},
    ))

    write("example3_as_printed", AlgebraDocument(
        name="three-dim-poisson-as-printed",
        algebra=three_dim(a, corrected=False),
        metadata={"a": "2"},
    ))

    # two-dimensional Rota-Baxter algebra over Z_2 (e1 even, e2 odd)
    g = GroupSpec((2,))
    basis = GradedBasis(g, ((0,), (1,)))
    mu = BilinearProduct(basis, (
        (0, 0, 0, F(-1)), (0, 1, 1, F(1)), (1, 0, 1, F(1)), (1, 1, 0, F(1)),
    ))
    alpha = EvenLinearMap.diagonal(basis, (1, -1))
    A2 = GradedAlgebra(SignBicharacter(g, ((1,),)), basis, mu, None, alpha)
    ops2 = {
        "Id": EvenLinearMap.identity(basis),
        "R": EvenLinearMap.scalar(basis, F(-1, 2)),
        "Rfull": EvenLinearMap.scalar(basis, -1),
        "N10": EvenLinearMap.diagonal(basis, (1, 0)),
    }
    write("rb2dim", AlgebraDocument(
        name="rota-baxter-2dim", algebra=A2, operators=ops2,
        metadata={"lambda": "1/2"},
    ))
    write("rb2dim_poisson", AlgebraDocument(
        name="rota-baxter-2dim-polarized", algebra=commutator_bracket(A2),
        operators=ops2, metadata={"lambda": "1/2"},
    ))

    # group algebra of Z_2 x Z_2: commutative, alpha = id, zero bracket
    g = GroupSpec((2, 2))
    els = g.elements()
    basis = GradedBasis(g, tuple(els))
    idx = {e: i for i, e in enumerate(els)}
    mu = BilinearProduct(basis, tuple(
        (i, j, idx[g.add(x, y)], F(1))
        for i, x in enumerate(els) for j, y in enumerate(els)
    ))
    GA = GradedAlgebra(SignBicharacter(g, ((0, 0), (0, 0))), basis, mu,
                       BilinearProduct(basis, ()), EvenLinearMap.identity(basis))
    write("group_algebra_z2sq", AlgebraDocument(
        name="group-algebra-z2xz2",
        algebra=GA,
        operators={"Id": EvenLinearMap.identity(basis),
                   "beta2": EvenLinearMap.scalar(basis, 2)},
        multipliers={
            "sigma_asym": MultiplierTable.from_function(g, lambda x, y: F(-1) ** (x[0] * y[1])),
            "sigma_sym": MultiplierTable.from_function(g, lambda x, y: F(-1) ** (x[0] * y[0])),
            "sigma_one": MultiplierTable.constant(g, 1),
        },
    ))

    # group algebra of Z_2 with a projection onto the degree-0 subalgebra
    g = GroupSpec((2,))
    basis = GradedBasis(g, ((0,), (1,)))
    mu = BilinearProduct(basis, (
        (0, 0, 0, F(1)), (0, 1, 1, F(1)), (1, 0, 1, F(1)), (1, 1, 0, F(1)),
    ))
    KZ2 = GradedAlgebra(SignBicharacter(g, ((0,),)), basis, mu,
                        BilinearProduct(basis, ()), EvenLinearMap.identity(basis))
    write("group_algebra_z2", AlgebraDocument(
        name="group-algebra-z2",
        algebra=KZ2,
        operators={"Id": EvenLinearMap.identity(basis),
                   "proj": EvenLinearMap.diagonal(basis, (1, 0)),
                   "beta2": EvenLinearMap.scalar(basis, 2)},
    ))

    # truncated polynomials K[x, y]/(x^2, y^2), concentrated in degree 0,
    # with the square-zero derivation d: x -> y
    basis = GradedBasis(g, ((0,),) * 4)
    prod = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3,
            (1, 0): 1, (2, 0): 2, (3, 0): 3, (1, 2): 3, (2, 1): 3}
    mu = BilinearProduct(basis, tuple((i, j, k, F(1)) for (i, j), k in prod.items()))
    D4 = GradedAlgebra(SignBicharacter(g, ((0,),)), basis, mu,
                       BilinearProduct(basis, ()), EvenLinearMap.identity(basis))
    d = EvenLinearMap(basis, ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)))
    write("diff4", AlgebraDocument(
        name="truncated-polynomials-with-differential",
        algebra=D4,
        operators={"d": d, "Id": EvenLinearMap.identity(basis)},
    ))

    # tensor-product companions for the 3-dim fixture (same group, same
    # commutation factor, concentrated in degree 0)
    eps = SignBicharacter(g, ((1,),))
    b1 = GradedBasis(g, ((0,),))
    write("unital_line", AlgebraDocument(
        name="unital-line",
        algebra=GradedAlgebra(eps, b1, BilinearProduct(b1, ((0, 0, 0, F(1)),)),
                              None, EvenLinearMap.identity(b1)),
        operators={"Id": EvenLinearMap.identity(b1)},
    ))
    b2 = GradedBasis(g, ((0,), (0,)))
    write("comm2", AlgebraDocument(
        name="commutative-2dim",
        algebra=GradedAlgebra(eps, b2, BilinearProduct(b2, (
            (0, 0, 0, F(1)), (0, 1, 1, F(1)), (1, 0, 1, F(1)),
        )), None, EvenLinearMap.identity(b2)),
    ))
    write("ksqrt2", AlgebraDocument(
        name="quadratic-extension-stand-in",
        algebra=GradedAlgebra(eps, b2, BilinearProduct(b2, (
            (0, 0, 0, F(1)), (0, 1, 1, F(1)), (1, 0, 1, F(1)), (1, 1, 0, F(2)),
        )), None, EvenLinearMap.identity(b2)),
    ))


if __name__ == "__main__":
    main()
