"""The algebra file format: a single JSON object, rationals as strings.

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
    ShapeError,
)
from .grading import GroupSpec, MultiplierTable, SignBicharacter
from .report import _text

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(value, location=None):
    if isinstance(value, bool):
        raise DocumentError("bad-rational", f"not a rational: {value!r}", location)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.match(value):
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
    return _text(Fraction(x))


@record
class AlgebraDocument:
    name: str
    algebra: GradedAlgebra
    operators: dict = factory(dict)
    multipliers: dict = factory(dict)
    metadata: dict = factory(dict)


_REQUIRED = object()
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


def _ints(value, location):
    if not (isinstance(value, list)
            and all(isinstance(x, int) and not isinstance(x, bool) for x in value)):
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


_EVEN = {EvennessError: "evenness", ShapeError: "shape"}


def _located(location, codes, cls, *args):
    """cls(*args), turning a library error listed in `codes` into a
    DocumentError with that code at `location`."""
    try:
        return cls(*args)
    except tuple(codes) as exc:
        raise DocumentError(codes[type(exc)], str(exc), location) from exc


def _matrix(basis, rows, location):
    return _located(location, _EVEN, EvenLinearMap, basis, _rows(rows, location))


def _product(basis, triples, location):
    if not isinstance(triples, list):
        raise DocumentError("shape", "product must be a list of (i, j, k, c) entries", location)
    entries = []
    for t, item in enumerate(triples):
        loc = f"{location}[{t}]"
        if not (isinstance(item, list) and len(item) == 4):
            raise DocumentError("shape", "entry must be [i, j, k, \"p/q\"]", loc)
        i, j, k, c = item
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j, k)):
            raise DocumentError("shape", "indices must be integers", loc)
        entries.append((i, j, k, parse_rational(c, loc)))
    return _located(location, _EVEN, BilinearProduct, basis, tuple(entries))


def parse_document(text):
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise DocumentError("malformed-json", str(exc)) from exc
    if not isinstance(raw, dict):
        raise DocumentError("malformed-json", "document must be a JSON object")

    group_raw = _need(raw, "group", dict, "group")
    moduli = _ints(_need(group_raw, "moduli", list, "group"), "group.moduli")
    group = _located("group.moduli", {InvalidRepresentationError: "shape"}, GroupSpec, moduli)

    basis_raw = _need(raw, "basis", dict, "basis")
    degrees = _need(basis_raw, "degrees", list, "basis")
    for d, deg in enumerate(degrees):
        if not group.is_canonical(_ints(deg, f"basis.degrees[{d}]")):
            raise DocumentError(
                "degree-out-of-range",
                f"degree {deg} is not canonical for moduli {list(group.moduli)}",
                f"basis.degrees[{d}]",
            )
    basis = _located("basis.degrees", {ShapeError: "shape"},
                     GradedBasis, group, tuple(tuple(d) for d in degrees))

    eps_raw = _need(raw, "epsilon", dict, "epsilon")
    if "matrix" in eps_raw:
        rows = _need(eps_raw, "matrix", list, "epsilon")
        rows = tuple(_ints(r, f"epsilon.matrix[{i}]") for i, r in enumerate(rows))
        epsilon = _located("epsilon", {ShapeError: "shape", InvalidRepresentationError: "shape"},
                           SignBicharacter, group, rows)
    elif "table" in eps_raw:
        epsilon = _table(group, eps_raw["table"], "epsilon.table")
    else:
        raise DocumentError("missing-field", "epsilon needs 'matrix' or 'table'", "epsilon")

    mu = _product(basis, raw["mu"], "mu") if "mu" in raw else None
    bracket = _product(basis, raw["bracket"], "bracket") if "bracket" in raw else None
    alpha = _matrix(basis, _need(raw, "alpha", list, "alpha"), "alpha")

    try:
        algebra = GradedAlgebra(epsilon, basis, mu, bracket, alpha)
    except AlgcheckError as exc:
        raise DocumentError("shape", str(exc)) from exc

    operators = {}
    for name, rows in sorted(_need(raw, "operators", dict, "operators", {}).items()):
        operators[name] = _matrix(basis, rows, f"operators.{name}")
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
    codes = {InvalidRepresentationError: "zero-entry", ShapeError: "shape"}
    return _located(location, codes, MultiplierTable, group, _rows(rows, location, "table"))


def serialize_document(doc):
    alg = doc.algebra
    raw = {
        "name": doc.name,
        "group": {"moduli": list(alg.group.moduli)},
        "basis": {"degrees": [list(d) for d in alg.basis.degrees]},
        "alpha": [[format_rational(x) for x in row] for row in alg.alpha.matrix],
        "operators": {
            name: [[format_rational(x) for x in row] for row in m.matrix]
            for name, m in sorted(doc.operators.items())
        },
        "multipliers": {
            name: [[format_rational(x) for x in row] for row in t.values]
            for name, t in sorted(doc.multipliers.items())
        },
        "metadata": dict(sorted(doc.metadata.items())),
    }
    if isinstance(alg.epsilon, SignBicharacter):
        raw["epsilon"] = {"matrix": [list(row) for row in alg.epsilon.matrix]}
    else:
        raw["epsilon"] = {"table": [[format_rational(x) for x in row] for row in alg.epsilon.values]}
    if alg.mu is not None:
        raw["mu"] = [[i, j, k, format_rational(c)] for (i, j, k, c) in alg.mu.entries]
    if alg.bracket is not None:
        raw["bracket"] = [[i, j, k, format_rational(c)] for (i, j, k, c) in alg.bracket.entries]
    return json.dumps(raw, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
