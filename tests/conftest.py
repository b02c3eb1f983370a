import json
import pathlib
from fractions import Fraction as F

import pytest

from algcheck import (
    BilinearProduct,
    EvenLinearMap,
    GradedAlgebra,
    GradedBasis,
    GroupSpec,
    SignBicharacter,
    parse_document,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    return parse_document((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


# valid JSON with a wrongly typed field: (path into rb2dim.json, value)
WRONG_TYPED_FIELDS = [
    pytest.param(("group",), 5, id="group-int"),
    pytest.param(("basis", "degrees"), 5, id="degrees-int"),
    pytest.param(("epsilon",), 5, id="epsilon-int"),
    pytest.param(("operators",), [1], id="operators-list"),
    pytest.param(("group", "moduli"), ["x"], id="moduli-str"),
    pytest.param(("group", "moduli"), [2.5], id="moduli-float"),
    pytest.param(("group", "moduli"), [True], id="moduli-bool"),
]


def rb2dim_with(path, value):
    """The rb2dim fixture as a JSON object, with the field at `path` replaced."""
    raw = json.loads((FIXTURES / "rb2dim.json").read_text(encoding="utf-8"))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def three_dim(a=F(2), exponent=1, corrected=True):
    """The 3-dim parameterized fixture over Z_2, in both table variants."""
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
    return GradedAlgebra(g, SignBicharacter(g, ((exponent,),)), basis, mu, bracket, alpha)


@pytest.fixture
def example3():
    return three_dim()


@pytest.fixture
def rb2dim():
    return load_fixture("rb2dim").algebra


@pytest.fixture
def rb2dim_poisson():
    return load_fixture("rb2dim_poisson").algebra


@pytest.fixture
def group_algebra_z2sq():
    return load_fixture("group_algebra_z2sq")


@pytest.fixture
def group_algebra_z2():
    return load_fixture("group_algebra_z2")


@pytest.fixture
def diff4():
    return load_fixture("diff4")
