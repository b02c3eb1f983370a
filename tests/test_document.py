import contextlib
import copy
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from algcheck import (
    DocumentError,
    InvalidRepresentationError,
    format_rational,
    parse_document,
    parse_rational,
    serialize_document,
)
from algcheck.cli import main
from algcheck.operators import KINDS

from conftest import (
    FIXTURES,
    MAKE_FIXTURES,
    WRONG_TYPED_FIELDS,
    edited,
    line_over,
    rb2dim_text_with,
    rb2dim_with,
)

ALL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.json"))


class TestRational:
    @pytest.mark.parametrize("raw,expected", [
        (3, F(3)), (-7, F(-7)), ("5", F(5)), ("+4", F(4)),
        ("-2/4", F(-1, 2)), ("10/5", F(2)),
    ])
    def test_accepts(self, raw, expected):
        assert parse_rational(raw) == expected

    @pytest.mark.parametrize("raw", ["1.5", "1e3", "", "/3", "2/", "a", None, True, [1],
                                     "1\n", "1/2\n", "\u0663/\u0664", "\uff11"])
    def test_rejects_inexact(self, raw):
        with pytest.raises(DocumentError) as exc:
            parse_rational(raw)
        assert exc.value.code == "bad-rational"

    def test_zero_denominator(self):
        with pytest.raises(DocumentError) as exc:
            parse_rational("3/0", "mu[2]")
        assert exc.value.code == "zero-denominator"
        assert exc.value.location == "mu[2]"

    def test_format_reduces(self):
        assert format_rational(F(4, 8)) == "1/2"
        assert format_rational(F(-3)) == "-3"

    @pytest.mark.parametrize("x", [0.1, True, "3/6"])
    def test_format_refuses_what_is_not_an_exact_rational(self, x):
        with pytest.raises(InvalidRepresentationError) as exc:
            format_rational(x)
        assert str(exc.value) == f"written rationals must be integers or Fractions, got {x!r}"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_roundtrip_is_byte_stable(name):
    text = (FIXTURES / f"{name}.json").read_text(encoding="utf-8")
    doc = parse_document(text)
    assert serialize_document(doc) == text
    assert parse_document(serialize_document(doc)).algebra == doc.algebra


class TestParseErrors:
    def _base(self):
        return json.loads((FIXTURES / "rb2dim.json").read_text(encoding="utf-8"))

    def _expect(self, raw, code, location, text):
        """parse_document refuses raw (a JSON value, or text that is not
        JSON) with this code and location, and str() of the error is text."""
        with pytest.raises(DocumentError) as exc:
            parse_document(raw if isinstance(raw, str) else json.dumps(raw))
        assert (exc.value.code, exc.value.location, str(exc.value)) == (code, location, text)

    def test_malformed_json(self):
        self._expect("{not json", "malformed-json", None, "malformed-json: Expecting property "
                     "name enclosed in double quotes: line 1 column 2 (char 1)")

    def test_non_object(self):
        self._expect([1, 2], "malformed-json", None,
                     "malformed-json: document must be a JSON object")

    def test_missing_group(self):
        raw = self._base()
        del raw["group"]
        self._expect(raw, "missing-field", "group",
                     "missing-field at group: required field 'group' missing")

    def test_missing_alpha(self):
        raw = self._base()
        del raw["alpha"]
        self._expect(raw, "missing-field", "alpha",
                     "missing-field at alpha: required field 'alpha' missing")

    def test_degree_out_of_range(self):
        raw = self._base()
        raw["basis"]["degrees"][1] = [2]
        self._expect(raw, "degree-out-of-range", "basis.degrees[1]",
                     "degree-out-of-range at basis.degrees[1]: "
                     "degree [2] is not canonical for moduli [2]")

    def test_group_over_the_bound(self, monkeypatch):
        monkeypatch.setenv("ALGCHECK_GROUP_BOUND", "1")
        self._expect(self._base(), "shape", "group.moduli",
                     "shape at group.moduli: group order 2 exceeds bound 1")

    def test_sign_matrix_at_odd_modulus(self):
        self._expect(line_over([3], {"matrix": [[1]]}), "shape", "epsilon",
                     "shape at epsilon: exponent matrix rows/columns at odd moduli "
                     "must vanish mod 2")

    def test_odd_structure_constant(self):
        raw = self._base()
        raw["mu"][0] = [0, 0, 1, "1"]  # degree 0 pair landing in degree 1
        self._expect(raw, "evenness", "mu",
                     "evenness at mu: constant (0,0)->1 violates the grading: (0,) + (0,) != (1,)")

    def test_bad_rational_located(self):
        raw = self._base()
        raw["mu"][0][3] = "0.5"
        self._expect(raw, "bad-rational", "mu[0]",
                     "bad-rational at mu[0]: not an exact rational: '0.5'")

    def test_non_even_operator(self):
        raw = self._base()
        raw["operators"]["bad"] = [["0", "1"], ["1", "0"]]
        self._expect(raw, "evenness", "operators.bad",
                     "evenness at operators.bad: entry (0,1) links degree (1,) to (0,)")

    def test_zero_multiplier_entry(self):
        raw = self._base()
        raw["multipliers"] = {"s": [["1", "0"], ["1", "1"]]}
        self._expect(raw, "zero-entry", "multipliers.s",
                     "zero-entry at multipliers.s: multiplier entries must be nonzero")

    def test_metadata_must_be_strings(self):
        raw = self._base()
        raw["metadata"] = {"lambda": 0.5}
        self._expect(raw, "shape", "metadata",
                     "shape at metadata: metadata must map strings to strings")

    def test_epsilon_needs_matrix_or_table(self):
        raw = self._base()
        raw["epsilon"] = {}
        self._expect(raw, "missing-field", "epsilon",
                     "missing-field at epsilon: epsilon needs 'matrix' or 'table'")

    @pytest.mark.parametrize("path,value,location,text", WRONG_TYPED_FIELDS)
    def test_wrongly_typed_field(self, path, value, location, text):
        self._expect(rb2dim_with(path, value), "shape", location, text)

    def test_indices_must_be_ints(self):
        raw = self._base()
        raw["mu"][0][0] = "0"
        self._expect(raw, "shape", "mu[0]", "shape at mu[0]: indices must be integers")

    @pytest.mark.parametrize("path, location", [
        (("Mu",), "Mu"), (("group", "order"), "group.order"), (("basis", "dim"), "basis.dim"),
        (("epsilon", "sign"), "epsilon.sign"),
    ], ids=["top-level", "group", "basis", "epsilon"])
    def test_unknown_field(self, path, location):
        # a field the checker would not read is refused, not ignored
        self._expect(rb2dim_with(path, 1), "unknown-field", location,
                     f"unknown-field at {location}: {path[-1]!r} is not a field of the format")

    def test_epsilon_given_twice(self):
        raw = rb2dim_with(("epsilon", "table"), [["1", "1"], ["1", "-1"]])
        self._expect(raw, "shape", "epsilon",
                     "shape at epsilon: epsilon gives both 'matrix' and 'table'")

    @pytest.mark.parametrize("name, key", [("rb2dim", "mu"), ("rb2dim_poisson", "bracket")])
    def test_repeated_cell(self, name, key):
        # the library's BilinearProduct would sum the two constants
        raw = edited(name, lambda raw: raw[key].append(raw[key][0][:3] + ["5"]))
        t, (i, j, k, _) = len(raw[key]) - 1, raw[key][0]
        self._expect(raw, "shape", f"{key}[{t}]",
                     f"shape at {key}[{t}]: cell ({i}, {j}, {k}) is already given at {key}[0]")

    def test_id_is_the_identity(self):
        # the CLI reads the name Id as the identity, so no other Id is read
        raw = self._base()
        raw["operators"]["Id"] = [["2", "0"], ["0", "2"]]
        self._expect(raw, "shape", "operators.Id",
                     "shape at operators.Id: operator 'Id' must be the identity")

    @pytest.mark.parametrize("prefix, entry, key", [
        ('"operators": {', '"R": [["5", "0"], ["0", "5"]], ', "R"),
        ("{", '"alpha": [["1", "0"], ["0", "1"]], ', "alpha"),
        ("{", '"mu": [], ', "mu"),
    ], ids=["operator", "alpha", "mu"])
    def test_repeated_key(self, prefix, entry, key):
        # json.loads alone keeps the later value; built from text, since a
        # dict cannot hold the repeat
        self._expect(rb2dim_text_with(prefix, entry), "shape", None,
                     f"shape: key {key!r} appears twice in one object")


class TestOptionalSections:
    def test_bracket_is_optional(self):
        raw = json.loads((FIXTURES / "rb2dim_poisson.json").read_text(encoding="utf-8"))
        del raw["bracket"]
        doc = parse_document(json.dumps(raw))
        assert doc.algebra.bracket is None

    def test_at_least_one_product_required(self):
        raw = json.loads((FIXTURES / "rb2dim.json").read_text(encoding="utf-8"))
        del raw["mu"]
        with pytest.raises(DocumentError) as exc:
            parse_document(json.dumps(raw))
        # raised by GradedAlgebra, which no field of the document locates
        assert (exc.value.code, exc.value.location, str(exc.value)) == (
            "shape", None, "shape: algebra must carry at least one product")

    def test_table_epsilon_roundtrip(self, tmp_path):
        raw = json.loads((FIXTURES / "rb2dim.json").read_text(encoding="utf-8"))
        raw["epsilon"] = {"table": [["1", "1"], ["1", "-1"]]}
        doc = parse_document(json.dumps(raw))
        text = serialize_document(doc)
        again = parse_document(text)
        assert again.algebra.epsilon.value((1,), (1,)) == -1
        assert serialize_document(again) == text


def test_generator_reproduces_fixtures(tmp_path, monkeypatch):
    # scripts/make_fixtures.py must rebuild fixtures/ byte for byte
    monkeypatch.setattr(MAKE_FIXTURES, "OUT", tmp_path)
    MAKE_FIXTURES.main()
    made = sorted(p.name for p in tmp_path.glob("*.json"))
    assert made == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name in made:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


# ---------------------------------------------------------------------------
# the exit-code contract on hostile documents: any JSON value at any path

def _paths(node, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


FIXTURE_JSON = {name: json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
                for name in ALL_FIXTURES}
SITES = [(name, path) for name, raw in FIXTURE_JSON.items() for path in _paths(raw)]
HOSTILE = [
    None, True, False, 0, 1, -1, 2**70, 1.5, "x", "1/0", "1/2",
    [], [[]], [[], [[1]]], {}, {"matrix": [[1]]},
    # product rows with bad indices
    [0, 0, 99, "1"], [-1, 0, 0, "1"], [0, 0, 0.5, "1"], [True, 0, 0, "1"], ["0", 0, 0, "1"],
]


@given(st.sampled_from(SITES), st.sampled_from(HOSTILE))
@settings(max_examples=1000, deadline=None)
def test_hostile_values_keep_the_exit_code_contract(tmp_path_factory, site, value):
    name, path = site
    raw = copy.deepcopy(FIXTURE_JSON[name])
    if path:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        raw = value
    text = json.dumps(raw)
    try:
        parsed = parse_document(text)
    except DocumentError:
        return  # the only exception parse_document may raise
    doc = tmp_path_factory.getbasetemp() / "hostile.json"
    doc.write_text(text, encoding="utf-8")
    path = str(doc)
    argvs = [["validate", path], ["validate", "--commutative", "--json", path],
             ["twist", path, "--construction", "transport", "--operator", "Id"]]
    argvs += [["check-operator", path, "--name", name, "--kind", kind]
              + (["--weight", "1/2"] if kind == "rota-baxter" else [])
              for name in sorted(parsed.operators) for kind in KINDS]
    argvs += [["twist", path, "--construction", "multiplier-sym", "--multiplier", name]
              for name in sorted(parsed.multipliers)]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# ---------------------------------------------------------------------------
# the exit-code contract on files that cannot be read or written: each of these
# used to end in a traceback under exit 1

TOO_MANY_DIGITS = "1" + "0" * 5000  # more digits than int() converts from a string
TRANSPORT = ["twist", str(FIXTURES / "rb2dim_poisson.json"),
             "--construction", "transport", "--operator", "Id", "-o"]


def _written(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return str(path)


@pytest.mark.parametrize("argv", [
    pytest.param(lambda d: ["validate", _written(d, b"\xff\xfe{")], id="not-utf8"),
    pytest.param(lambda d: ["validate", _written(d, "[" * 200000)], id="deep-nesting"),
    pytest.param(lambda d: ["validate", _written(d, json.dumps(rb2dim_with(("group", "moduli"), ["N"]))
                                                 .replace('"N"', "9" * 5000))], id="long-json-integer"),
    pytest.param(lambda d: ["validate", _written(d, json.dumps(rb2dim_with(("alpha", 0, 0), TOO_MANY_DIGITS)))],
                 id="long-rational"),
    pytest.param(lambda d: ["check-operator", str(FIXTURES / "rb2dim.json"), "--name", "R",
                            "--kind", "rota-baxter", "--weight", TOO_MANY_DIGITS], id="long-weight"),
    pytest.param(lambda d: TRANSPORT + [str(d / "missing" / "out.json")], id="output-in-missing-dir"),
    pytest.param(lambda d: TRANSPORT + [str(d)], id="output-is-a-dir"),
])
def test_unreadable_input_and_unwritable_output_exit_2(tmp_path, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv(tmp_path)) == 2
    assert "Traceback" not in err.getvalue() and err.getvalue().startswith("error: ")


# past Python's int-to-string digit limit: a product of two 3001-digit
# inputs has 6001 digits, too many to render, put in JSON or serialize
BIG = "1" + "0" * 3000


def _big_rb2dim(tmp_path):
    return _written(tmp_path, json.dumps(rb2dim_with(("operators", "R"), [[BIG, "0"], ["0", BIG]])))


def _big_group_algebra(tmp_path):
    raw = json.loads((FIXTURES / "group_algebra_z2sq.json").read_text(encoding="utf-8"))
    raw["mu"] = [entry[:3] + [BIG] for entry in raw["mu"]]
    raw["multipliers"]["sigma_one"] = [[BIG] * 4 for _ in range(4)]
    return _written(tmp_path, json.dumps(raw))


CHECK_BIG_R = ["--name", "R", "--kind", "rota-baxter", "--weight", "1"]


@pytest.mark.parametrize("argv", [
    pytest.param(lambda d: ["check-operator", _big_rb2dim(d)] + CHECK_BIG_R, id="render"),
    pytest.param(lambda d: ["check-operator", _big_rb2dim(d)] + CHECK_BIG_R + ["--json"], id="json"),
    pytest.param(lambda d: ["twist", _big_group_algebra(d), "--construction", "multiplier-sym",
                            "--multiplier", "sigma_one", "-o", str(d / "out.json")], id="serialize"),
])
def test_rationals_past_the_digit_limit_exit_2(tmp_path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv(tmp_path)) == 2
    assert out.getvalue() == "" and "Traceback" not in err.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert not (tmp_path / "out.json").exists()
