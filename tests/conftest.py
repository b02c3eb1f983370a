import importlib.util
import itertools
import json
import pathlib
from fractions import Fraction as F

import pytest

from algcheck import EvenLinearMap, GradedBasis, GroupSpec, SignBicharacter, parse_document

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    return parse_document((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def load_script(name):
    """scripts/<name>.py as a module, without running its main()."""
    path = FIXTURES.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_FIXTURES = load_script("make_fixtures")


# valid JSON with a wrongly typed field: (path into rb2dim.json, value, and
# the location and the text of the parse error)
WRONG_TYPED_FIELDS = [
    pytest.param(("group",), 5, "group", "shape at group: field 'group' must be an object",
                 id="group-int"),
    pytest.param(("basis", "degrees"), 5, "basis",
                 "shape at basis: field 'degrees' must be a list", id="degrees-int"),
    pytest.param(("epsilon",), 5, "epsilon",
                 "shape at epsilon: field 'epsilon' must be an object", id="epsilon-int"),
    pytest.param(("operators",), [1], "operators",
                 "shape at operators: field 'operators' must be an object", id="operators-list"),
    pytest.param(("group", "moduli"), ["x"], "group.moduli",
                 "shape at group.moduli: must be a list of integers", id="moduli-str"),
    pytest.param(("group", "moduli"), [2.5], "group.moduli",
                 "shape at group.moduli: must be a list of integers", id="moduli-float"),
    pytest.param(("group", "moduli"), [True], "group.moduli",
                 "shape at group.moduli: must be a list of integers", id="moduli-bool"),
    pytest.param(("basis", "degrees", 0), [True], "basis.degrees[0]",
                 "shape at basis.degrees[0]: must be a list of integers", id="degree-bool"),
    pytest.param(("mu", 0, 0), True, "mu[0]", "shape at mu[0]: indices must be integers",
                 id="mu-index-bool"),
    pytest.param(("name",), None, "name", "shape at name: field 'name' must be a string",
                 id="name-null"),
    pytest.param(("name",), 7, "name", "shape at name: field 'name' must be a string",
                 id="name-int"),
    pytest.param(("name",), ["x"], "name", "shape at name: field 'name' must be a string",
                 id="name-list"),
]


def rb2dim_with(path, value):
    """The rb2dim fixture as a JSON object, with the field at `path` replaced."""
    raw = json.loads((FIXTURES / "rb2dim.json").read_text(encoding="utf-8"))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def rb2dim_text_with(prefix, entry):
    """The text of rb2dim.json with `entry` inserted after the first `prefix`:
    a way to repeat a key, which a JSON object read into a dict cannot."""
    head, sep, tail = (FIXTURES / "rb2dim.json").read_text(encoding="utf-8").partition(prefix)
    return head + sep + entry + tail


def edited(name, edit):
    """The fixture `name` as a JSON object, after edit(raw)."""
    raw = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    edit(raw)
    return raw


def line_over(moduli, epsilon, **extra):
    """A one-dimensional algebra document e0.e0 = e0 over the group with
    these moduli, with the given "epsilon" object and a zero bracket."""
    zero = [0] * len(moduli)
    return dict({"name": "line", "group": {"moduli": list(moduli)},
                 "basis": {"degrees": [zero]}, "epsilon": epsilon,
                 "mu": [[0, 0, 0, "1"]], "bracket": [], "alpha": [["1"]]}, **extra)


# documents whose commutation factor is not a bicharacter: a rational table
# that fails both additivity laws and the identity element, and a sign
# matrix that is not symmetric mod 2, so it fails skew-symmetry
NON_BICHARACTER = [
    pytest.param(line_over([2], {"table": [["1", "2"], ["1/2", "-1"]]}), id="table"),
    pytest.param(line_over([2, 2], {"matrix": [[0, 1], [0, 0]]}), id="sign"),
]


# a three-dimensional basis over Z_2 other than example3's (degrees
# (0),(0),(1)), and the even map on it that swaps e1 and e2
OTHER_BASIS = GradedBasis(GroupSpec((2,)), ((0,), (1,), (1,)))
SWAP_ON_OTHER_BASIS = EvenLinearMap(OTHER_BASIS, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))

# the rows of two even bijections on example3's basis: a triangular one, and
# one that swaps e0 and e1 (both of degree 0) and scales e2, whose inverse
# needs a row swap
BIJECTIONS = [((1, 2, 0), (0, 1, 0), (0, 0, F(3, 5))), ((0, 1, 0), (1, 0, 0), (0, 0, F(3, 5)))]


def three_dim(a=F(2), exponent=1, corrected=True):
    """The fixtures' Example 3 algebra over Z_2, as scripts/make_fixtures.py
    builds it, with parameter a and the exponent matrix [[exponent]]."""
    A = MAKE_FIXTURES.three_dim(a, corrected)
    return A.replace(epsilon=SignBicharacter(A.group, ((exponent,),)))


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


# ---------------------------------------------------------------------------
# dense reference: exact vectors as tuples of Fraction, and each axiom's
# (lhs, rhs) formula on arbitrary vectors, through the public apply, of_pair
# and column only.  The commutation factor is read per homogeneous component.

def ref_value(factor):
    """The factor's value function.  A sign bicharacter's is computed from
    its exponent matrix as (-1)^(a^T E b), independently of the value table
    the library reads; a rational table's is its own `value`."""
    if not isinstance(factor, SignBicharacter):
        return factor.value
    E = factor.matrix
    return lambda a, b: F(-1) ** (sum(x * e * y for x, row in zip(a, E)
                                      for e, y in zip(row, b)) % 2)


def ref_eps(A, i, j):
    """The commutation factor between the degrees of basis indices i, j."""
    degs = A.basis.degrees
    return ref_value(A.epsilon)(degs[i], degs[j])


def vec_add(*vs):
    return tuple(sum(col) for col in zip(*vs))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x):
    return tuple(c * a for a in x)


def vec_is_zero(x):
    return all(a == 0 for a in x)


def components(basis, vec):
    """Split a vector into its homogeneous components, keyed by degree."""
    parts = {}
    for i, c in enumerate(vec):
        if c != 0:
            d = basis.degrees[i]
            part = parts.setdefault(d, [F(0)] * basis.dim)
            part[i] = c
    return {d: tuple(v) for d, v in parts.items()}


def _homogeneous(A, *vectors):
    """Every choice of one (degree, component) per vector."""
    return itertools.product(*(components(A.basis, v).items() for v in vectors))


def associativity(A, x, y, z):
    """alpha(x)(yz) and (xy)alpha(z)."""
    mu, al = A.mu, A.alpha
    return mu.apply(al.apply(x), mu.apply(y, z)), mu.apply(mu.apply(x, y), al.apply(z))


def jacobi(A, x, y, z):
    """The cyclic sum of eps(c, a) [alpha(a), [b, c]] over (x, y, z), and 0."""
    br, al, val = A.bracket, A.alpha, ref_value(A.epsilon)
    cyclic = (vec_scale(val(dc, da), br.apply(al.apply(a), br.apply(b, c)))
              for px, py, pz in _homogeneous(A, x, y, z)
              for (da, a), (_, b), (dc, c) in ((px, py, pz), (py, pz, px), (pz, px, py)))
    zero = (F(0),) * A.dim
    return vec_add(zero, *cyclic), zero


def leibniz(A, x, y, z):
    """[alpha(x), yz] and [x, y]alpha(z) + eps(x, y) alpha(y)[x, z]."""
    mu, br, al, val = A.mu, A.bracket, A.alpha, ref_value(A.epsilon)
    twisted = (vec_scale(val(dx, dy), mu.apply(al.apply(yc), br.apply(xc, z)))
               for (dx, xc), (dy, yc) in _homogeneous(A, x, y))
    return (br.apply(al.apply(x), mu.apply(y, z)),
            vec_add(mu.apply(br.apply(x, y), al.apply(z)), *twisted))


AXIOMS = {"associativity": associativity, "jacobi": jacobi, "leibniz": leibniz}


def residual_direct(A, axiom, vectors):
    """lhs - rhs of the axiom's dense formula at the given vectors."""
    return vec_sub(*AXIOMS[axiom](A, *vectors))


# ---------------------------------------------------------------------------
# dense reference for the sweeps: the formulas above at basis vectors, and the
# operator and morphism laws.  A report is (label, [(indices, lhs, rhs), ...]),
# which _plain makes of the library's reports.

def _plain(reports):
    return [(r.axiom, [(v.indices, v.lhs, v.rhs) for v in r.violations]) for r in reports]


def _ref_sweep(label, n, arity, residual):
    violations = []
    for idx in itertools.product(range(n), repeat=arity):
        lhs, rhs = residual(*idx)
        if lhs != rhs:
            violations.append((idx, lhs, rhs))
    return label, violations


def _at_basis(A, formula):
    e = EvenLinearMap.identity(A.basis).column
    return lambda *idx: formula(A, *map(e, idx))


def ref_hom_associative(A):
    return [_ref_sweep("hom-associativity", A.dim, 3, _at_basis(A, associativity))]


def ref_epsilon_commutative(A):
    mu = A.mu
    return [_ref_sweep("epsilon-commutativity", A.dim, 2, lambda i, j: (
        mu.of_pair(i, j), vec_scale(ref_eps(A, i, j), mu.of_pair(j, i))))]


def ref_hom_lie(A):
    br = A.bracket
    return [_ref_sweep("epsilon-skew-symmetry", A.dim, 2, lambda i, j: (
                br.of_pair(i, j), vec_scale(-ref_eps(A, i, j), br.of_pair(j, i)))),
            _ref_sweep("hom-jacobi", A.dim, 3, _at_basis(A, jacobi))]


def ref_hom_leibniz(A):
    return [_ref_sweep("hom-leibniz", A.dim, 3, _at_basis(A, leibniz))]


def _ref_intertwines(label, f, src_alpha, dst_alpha):
    return _ref_sweep(label, f.basis.dim, 1, lambda j: (
        f.apply(src_alpha.column(j)), dst_alpha.apply(f.column(j))))


def ref_morphism(f, src, dst):
    reports = [_ref_intertwines("morphism:alpha", f, src.alpha, dst.alpha)]
    for name in ("mu", "bracket"):
        p, q = getattr(src, name), getattr(dst, name)
        if p is not None:
            reports.append(_ref_sweep(f"morphism:{name}", src.dim, 2, lambda i, j: (
                f.apply(p.of_pair(i, j)), q.apply(f.column(i), f.column(j)))))
    return reports


def ref_operator(A, claim):
    """check_operator(A, claim) for every product A carries."""
    b, n, kind = claim.map, A.dim, claim.kind
    unit = EvenLinearMap.identity(A.basis).column
    ak = A.alpha.power(claim.power)
    reports = {}  # label -> violations, in first-seen order

    def record(label, idx, lhs, rhs):
        violations = reports.setdefault(label, [])
        if lhs != rhs:
            violations.append((idx, lhs, rhs))

    for name in ("mu", "bracket"):
        p = getattr(A, name)
        if p is None:
            continue
        label = f"{kind}:{name}"
        for i, j in itertools.product(range(n), repeat=2):
            bi, bj = b.column(i), b.column(j)
            if kind == "centroid":
                lhs = b.apply(p.of_pair(i, j))
                record(f"{label}:left", (i, j), lhs, p.apply(bi, ak.column(j)))
                if name == "mu":
                    record(f"{label}:right", (i, j), lhs, p.apply(ak.column(i), bj))
            elif kind == "averaging":
                mid = p.apply(bi, bj)
                record(f"{label}:left", (i, j), b.apply(p.apply(bi, ak.column(j))), mid)
                if name == "mu":
                    record(f"{label}:right", (i, j), mid, b.apply(p.apply(ak.column(i), bj)))
            else:
                pij = p.of_pair(i, j)
                last = (vec_scale(claim.weight, pij) if kind == "rota-baxter"
                        else vec_scale(F(-1), b.apply(pij)))
                inner = vec_add(p.apply(bi, unit(j)), p.apply(unit(i), bj), last)
                record(label, (i, j), p.apply(bi, bj), b.apply(inner))
    alpha = _ref_intertwines("operator:alpha-commutation", b, A.alpha, A.alpha)
    return [alpha] + list(reports.items())


# ---------------------------------------------------------------------------
# dense reference for the group laws: the laws on coordinate tuples, through
# ref_value and the public elements and add only.  A report is as above.

def ref_bicharacter(t):
    """The five bicharacter laws of a sign bicharacter or a rational table."""
    group, val = t.group, ref_value(t)
    els, zero = group.elements(), group.zero
    skew, left, right, unit, diag = ([] for _ in range(5))
    for a in els:
        if val(a, zero) != 1 or val(zero, a) != 1:
            unit.append(((a,), (val(a, zero),), (val(zero, a),)))
        if val(a, a) not in (1, -1):
            diag.append(((a,), (val(a, a),), (F(1),)))
        for b in els:
            if val(a, b) * val(b, a) != 1:
                skew.append(((a, b), (val(a, b) * val(b, a),), (F(1),)))
            for c in els:
                lhs, rhs = val(a, group.add(b, c)), val(a, b) * val(a, c)
                if lhs != rhs:
                    left.append(((a, b, c), (lhs,), (rhs,)))
                lhs, rhs = val(group.add(a, b), c), val(a, c) * val(b, c)
                if lhs != rhs:
                    right.append(((a, b, c), (lhs,), (rhs,)))
    laws = ("skew-symmetry", "additivity-left", "additivity-right",
            "identity-element", "diagonal-sign")
    return [(f"bicharacter:{law}", v) for law, v in zip(laws, (skew, left, right, unit, diag))]


def ref_multiplier(s, symmetric=False):
    """The cocycle law, and with `symmetric` symmetry and cyclic invariance."""
    g, val = s.group, s.value
    els = g.elements()
    cocycle = []
    for x, y, z in itertools.product(els, repeat=3):
        lhs = val(x, g.add(y, z)) * val(y, z)
        rhs = val(x, y) * val(g.add(x, y), z)
        if lhs != rhs:
            cocycle.append(((x, y, z), (lhs,), (rhs,)))
    reports = [("multiplier:cocycle", cocycle)]
    if symmetric:
        sym = [((x, y), (val(x, y),), (val(y, x),))
               for x, y in itertools.product(els, repeat=2) if val(x, y) != val(y, x)]
        cyc = []
        for x, y, z in itertools.product(els, repeat=3):
            v0 = val(x, y) * val(z, g.add(x, y))
            v1 = val(y, z) * val(x, g.add(y, z))
            v2 = val(z, x) * val(y, g.add(z, x))
            if not (v0 == v1 == v2):
                cyc.append(((x, y, z), (v0,), (v1, v2)))
        reports += [("multiplier:symmetry", sym), ("multiplier:cyclic-invariance", cyc)]
    return reports
