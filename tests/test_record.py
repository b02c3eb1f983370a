"""The value types' constructors, equality, hash, repr and immutability."""

import pytest

from algcheck import (
    AlgebraDocument,
    AxiomReport,
    BilinearProduct,
    ConstructionResult,
    EvenLinearMap,
    GradedAlgebra,
    GradedBasis,
    GroupSpec,
    MultiplierTable,
    OperatorClaim,
    SignBicharacter,
    Violation,
)


def _group():
    return GroupSpec((2,))


def _basis():
    return GradedBasis(_group(), ((0,), (1,)))


def _algebra():
    basis = _basis()
    return GradedAlgebra(SignBicharacter(_group(), ((1,),)), basis,
                         BilinearProduct(basis, ((0, 0, 0, 1), (0, 1, 1, 1))), None,
                         EvenLinearMap.identity(basis))


# (type, its field names in order, a function giving fresh equal inputs)
VALUE_TYPES = [
    (Violation, ["indices", "lhs", "rhs"], lambda: ((0, 1), (1,), (2,))),
    (AxiomReport, ["axiom", "violations"], lambda: ("law", [Violation((0,), (1,), (2,))])),
    (GroupSpec, ["moduli"], lambda: ((2, 3),)),
    (SignBicharacter, ["group", "matrix"], lambda: (_group(), ((1,),))),
    (MultiplierTable, ["group", "values"], lambda: (_group(), ((1, 2), (3, 4)))),
    (GradedBasis, ["group", "degrees"], lambda: (_group(), ((0,), (1,)))),
    (EvenLinearMap, ["basis", "matrix"], lambda: (_basis(), ((1, 0), (0, 2)))),
    (BilinearProduct, ["basis", "entries"], lambda: (_basis(), ((0, 1, 1, 3),))),
    (GradedAlgebra, ["epsilon", "basis", "mu", "bracket", "alpha"],
     lambda: tuple(vars(_algebra()).values())),
    (OperatorClaim, ["map", "kind", "power", "weight"],
     lambda: (EvenLinearMap.identity(_basis()), "rota-baxter", 0, -1)),
    (AlgebraDocument, ["name", "algebra", "operators", "multipliers", "metadata"],
     lambda: ("doc", _algebra(), {"Id": EvenLinearMap.identity(_basis())}, {}, {"k": "v"})),
    (ConstructionResult, ["algebra", "certification", "morphism", "findings"],
     lambda: (_algebra(), [AxiomReport("law")], [], [])),
]
UNHASHABLE = (AxiomReport, AlgebraDocument, ConstructionResult)  # list or dict fields


@pytest.mark.parametrize("cls, names, inputs", VALUE_TYPES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_TYPES])
def test_value_type(cls, names, inputs):
    a, b = cls(*inputs()), cls(**dict(zip(names, inputs())))
    assert a is not b and a == b and not a != b
    assert a != object() and list(vars(a)) == names
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, names[0], getattr(b, names[0]))
    with pytest.raises(AttributeError):
        delattr(a, names[-1])
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in names)
    assert repr(a) == f"{cls.__qualname__}({fields})"
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*inputs(), unknown=None)
    with pytest.raises(TypeError):
        cls(*inputs(), inputs()[-1])
    with pytest.raises(TypeError):
        cls(*inputs(), **{names[0]: inputs()[0]})


def test_factory_defaults_are_fresh_per_instance():
    first, second = AxiomReport("law"), AxiomReport("law")
    first.violations.append(Violation((0,), (1,), (2,)))
    assert first.violations and second.violations == []
    assert not hasattr(AxiomReport, "violations")
