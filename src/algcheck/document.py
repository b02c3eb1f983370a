"""The algebra file format: a single JSON object, rationals as strings.

A document states each fact once and only facts the checker reads: a key
repeated in one JSON object, an unknown field, an epsilon given both as a
matrix and as a table, a structure-constant cell listed twice and an
operator `Id` other than the identity (the CLI reads the name `Id` as the
identity) are refused.

Canonical serialization sorts keys, sorts structure-constant triples
lexicographically, reduces every rational and is byte-stable across
runs, so parse -> serialize -> parse is the identity on canonical
documents.
"""

import json
import re
from fractions import Fraction

from ._record import factory, record
from .core import BilinearProduct, EvenLinearMap, GradedAlgebra, GradedBasis
from .errors import (
    AlgcheckError,
    DocumentError,
    EvennessError,
    InvalidRepresentationError,
)
from .grading import _INTEGER, GroupSpec, MultiplierTable, SignBicharacter, _is_int, _rational
from .report import _text

_RATIONAL = re.compile(_INTEGER.pattern + r"(?:/[0-9]+)?")  # ASCII digits only


def parse_rational(value, location=None):
    if isinstance(value, bool):
        raise DocumentError("bad-rational", f"not a rational: {value!r}", location)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # more digits than int() converts
            raise DocumentError("bad-rational", f"too many digits in a {len(value)}-character rational",
                                location) from None
        if den == 0:
            raise DocumentError("zero-denominator", f"zero denominator in {value!r}", location)
        return Fraction(num, den)
    raise DocumentError("bad-rational", f"not an exact rational: {value!r}", location)


def format_rational(x):
    return _text(_rational(x, "written rationals"))


@record
class AlgebraDocument:
    name: str
    algebra: GradedAlgebra
    operators: dict = factory(dict)
    multipliers: dict = factory(dict)
    metadata: dict = factory(dict)


_REQUIRED = object()
_PRODUCTS = ("mu", "bracket")
_FIELDS = ("name", "group", "basis", "epsilon", *_PRODUCTS, "alpha", "operators", "multipliers",
           "metadata")
_JSON_TYPES = {dict: "an object", list: "a list"}


def _need(obj, key, kind, location, default=_REQUIRED):
    """obj[key], which must be a `kind` (dict or list); a missing key is an
    error unless a default is given."""
    if key not in obj:
        if default is _REQUIRED:
            raise DocumentError("missing-field", f"required field {key!r} missing", location)
        return default
    value = obj[key]
    if not isinstance(value, kind):
        raise DocumentError("shape", f"field {key!r} must be {_JSON_TYPES[kind]}", location)
    return value


def _known(obj, fields, prefix=""):
    """Refuse a key of obj outside `fields`: a fact the checker would not read."""
    for key in obj:
        if key not in fields:
            raise DocumentError("unknown-field", f"{key!r} is not a field of the format", prefix + key)


def _object(pairs):
    """A JSON object as a dict, refusing a key it repeats: json.loads
    alone would keep the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError("shape", f"key {key!r} appears twice in one object")
            seen.add(key)
    return obj


def _ints(value, location):
    if not (isinstance(value, list) and all(map(_is_int, value))):
        raise DocumentError("shape", "must be a list of integers", location)
    return tuple(value)


def _rows(rows, location, noun="matrix"):
    """A list of rows of exact rationals."""
    if not isinstance(rows, list):
        raise DocumentError("shape", f"{noun} must be a list of rows", location)
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DocumentError("shape", "matrix row must be a list", f"{location}[{i}]")
        parsed.append(tuple(parse_rational(x, f"{location}[{i}][{j}]") for j, x in enumerate(row)))
    return tuple(parsed)


def _located(location, cls, *args, invalid="shape"):
    """cls(*args), turning a library error into a DocumentError at
    `location`: code "evenness" for an EvennessError, `invalid` for an
    InvalidRepresentationError and "shape" for any other."""
    try:
        return cls(*args)
    except AlgcheckError as exc:
        code = ("evenness" if isinstance(exc, EvennessError)
                else invalid if isinstance(exc, InvalidRepresentationError) else "shape")
        raise DocumentError(code, str(exc), location) from exc


def _matrix(basis, rows, location):
    return _located(location, EvenLinearMap, basis, _rows(rows, location))


def _product(basis, triples, location):
    if not isinstance(triples, list):
        raise DocumentError("shape", "product must be a list of (i, j, k, c) entries", location)
    entries, first = [], {}
    for t, item in enumerate(triples):
        loc = f"{location}[{t}]"
        if not (isinstance(item, list) and len(item) == 4):
            raise DocumentError("shape", "entry must be [i, j, k, \"p/q\"]", loc)
        i, j, k, c = item
        if not all(map(_is_int, (i, j, k))):
            raise DocumentError("shape", "indices must be integers", loc)
        if first.setdefault((i, j, k), t) != t:
            raise DocumentError("shape", f"cell ({i}, {j}, {k}) is already given at "
                                f"{location}[{first[i, j, k]}]", loc)
        entries.append((i, j, k, parse_rational(c, loc)))
    return _located(location, BilinearProduct, basis, tuple(entries))


def parse_document(text):
    try:
        raw = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise DocumentError("malformed-json", str(exc)) from exc
    if not isinstance(raw, dict):
        raise DocumentError("malformed-json", "document must be a JSON object")
    _known(raw, _FIELDS)

    group_raw = _need(raw, "group", dict, "group")
    _known(group_raw, ("moduli",), "group.")
    moduli = _ints(_need(group_raw, "moduli", list, "group"), "group.moduli")
    group = _located("group.moduli", GroupSpec, moduli)

    basis_raw = _need(raw, "basis", dict, "basis")
    _known(basis_raw, ("degrees",), "basis.")
    degrees = _need(basis_raw, "degrees", list, "basis")
    for d, deg in enumerate(degrees):
        if not group.is_canonical(_ints(deg, f"basis.degrees[{d}]")):
            raise DocumentError(
                "degree-out-of-range",
                f"degree {deg} is not canonical for moduli {list(group.moduli)}",
                f"basis.degrees[{d}]",
            )
    basis = _located("basis.degrees", GradedBasis, group, tuple(tuple(d) for d in degrees))

    eps_raw = _need(raw, "epsilon", dict, "epsilon")
    _known(eps_raw, ("matrix", "table"), "epsilon.")
    if "matrix" in eps_raw and "table" in eps_raw:
        raise DocumentError("shape", "epsilon gives both 'matrix' and 'table'", "epsilon")
    if "matrix" in eps_raw:
        rows = _need(eps_raw, "matrix", list, "epsilon")
        rows = tuple(_ints(r, f"epsilon.matrix[{i}]") for i, r in enumerate(rows))
        epsilon = _located("epsilon", SignBicharacter, group, rows)
    elif "table" in eps_raw:
        epsilon = _table(group, eps_raw["table"], "epsilon.table")
    else:
        raise DocumentError("missing-field", "epsilon needs 'matrix' or 'table'", "epsilon")

    mu, bracket = (_product(basis, raw[key], key) if key in raw else None for key in _PRODUCTS)
    alpha = _matrix(basis, _need(raw, "alpha", list, "alpha"), "alpha")
    algebra = _located(None, GradedAlgebra, epsilon, basis, mu, bracket, alpha)

    operators = {}
    for name, rows in sorted(_need(raw, "operators", dict, "operators", {}).items()):
        operators[name] = _matrix(basis, rows, f"operators.{name}")
    if "Id" in operators and operators["Id"] != EvenLinearMap.identity(basis):
        raise DocumentError("shape", "operator 'Id' must be the identity", "operators.Id")
    multipliers = {}
    for name, rows in sorted(_need(raw, "multipliers", dict, "multipliers", {}).items()):
        multipliers[name] = _table(group, rows, f"multipliers.{name}")

    metadata = _need(raw, "metadata", dict, "metadata", {})
    if not all(isinstance(v, str) for v in metadata.values()):
        raise DocumentError("shape", "metadata must map strings to strings", "metadata")

    name = raw.get("name", "")
    if not isinstance(name, str):
        raise DocumentError("shape", "field 'name' must be a string", "name")
    return AlgebraDocument(
        name=name,
        algebra=algebra,
        operators=operators,
        multipliers=multipliers,
        metadata=dict(sorted(metadata.items())),
    )


def _table(group, rows, location):
    return _located(location, MultiplierTable, group, _rows(rows, location, "table"),
                    invalid="zero-entry")


def _texts(rows):
    """Rows of rationals as rows of their canonical strings."""
    return [[format_rational(x) for x in row] for row in rows]


def _raw(doc):
    """The document as the JSON value that serialize_document writes."""
    alg, eps = doc.algebra, doc.algebra.epsilon
    raw = {
        "name": doc.name,
        "group": {"moduli": list(alg.group.moduli)},
        "basis": {"degrees": [list(d) for d in alg.basis.degrees]},
        "epsilon": ({"matrix": [list(row) for row in eps.matrix]}
                    if isinstance(eps, SignBicharacter) else {"table": _texts(eps.values)}),
        "alpha": _texts(alg.alpha.matrix),
        "operators": {name: _texts(m.matrix) for name, m in sorted(doc.operators.items())},
        "multipliers": {name: _texts(t.values) for name, t in sorted(doc.multipliers.items())},
        "metadata": dict(sorted(doc.metadata.items())),
    }
    for key in _PRODUCTS:
        p = getattr(alg, key)
        if p is not None:
            raw[key] = [[i, j, k, format_rational(c)] for (i, j, k, c) in p.entries]
    return raw


def serialize_document(doc):
    return json.dumps(_raw(doc), sort_keys=True, indent=2, ensure_ascii=True) + "\n"
