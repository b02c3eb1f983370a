"""Command-line surface: validate, check-operator, twist, tensor, report.

Exit codes: 0 all checks pass, 1 an axiom or hypothesis gate failed,
2 parse/shape/usage error.

The layers are the package's lazy modules (see `algcheck`), read here as
`core.check_morphism` and so on when a command runs, so `import
algcheck.cli` runs none of them and each command runs only those it uses.
"""

import argparse
import os
import sys

from . import KINDS, constructions, core, document, errors, grading, operators, report

EXIT_OK = 0
EXIT_AXIOM = 1
EXIT_ERROR = 2


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.DocumentError("io", str(exc), path) from exc
    return document.parse_document(text)


def _emit(as_json, code=None, full=False, **payload):
    """Print a command's outcome, as text or as one JSON object, and return
    its exit code (by default 0 when every report passes, else 1).  Each
    payload value is a list of reports or, like "gate" (a failed gate's
    message) and "document", a plain JSON value."""
    reports = [r for v in payload.values() if isinstance(v, list) for r in v]
    if code is None:
        code = EXIT_OK if report.all_ok(reports) else EXIT_AXIOM
    if as_json:
        import json
        payload = {k: [r.to_json() for r in v] if isinstance(v, list) else v
                   for k, v in payload.items()}
        print(json.dumps(dict(payload, exit=code), sort_keys=True, indent=2))
        return code
    if "gate" in payload:
        print(f"GATE FAILED: {payload['gate']}")
    for line in report.render_reports(reports, full=full):
        print(line)
    return code


def _validation_reports(doc, commutative=False):
    reports = grading.validate_bicharacter(doc.algebra.epsilon)
    for name, table in sorted(doc.multipliers.items()):
        reports += [report.AxiomReport(f"{name}:{r.axiom}", r.violations)
                    for r in grading.validate_multiplier(table)]
    return reports + core._axioms(doc.algebra, commutative)


def cmd_validate(args):
    doc = _load(args.path)
    return _emit(args.json, full=args.full,
                 reports=_validation_reports(doc, commutative=args.commutative))


def cmd_check_operator(args):
    doc = _load(args.path)
    operator = _operator(doc, args)
    weight = document.parse_rational(args.weight, "--weight") if args.weight is not None else None
    claim = operators.OperatorClaim(operator, args.kind, power=args.power, weight=weight)
    reports = operators.check_operator(doc.algebra, claim, products=args.product)
    return _emit(args.json, reports=reports)


def _summary(reports):
    return ";".join(
        f"{r.axiom}={'PASS' if r.ok else 'FAIL(%d)' % len(r.violations)}" for r in reports
    )


def _given(args, option):
    """--option's value: a usage error naming the construction when it was not given."""
    value = getattr(args, option)
    if value is None:
        raise errors.DocumentError("usage", f"{args.construction} construction needs --{option}")
    return value


def _named(entries, kind, name, location):
    """entries[name], the document's `kind` (operator or multiplier) of that
    name, else unknown-`kind` at the document's path `location`."""
    if name not in entries:
        raise errors.DocumentError(f"unknown-{kind}", f"no {kind} named {name!r}", location)
    return entries[name]


def _operator(doc, args):
    """The operator that twist's --operator, or check-operator's --name,
    names: Id is the identity, any other name the document's entry."""
    name = _given(args, "operator")
    if name == "Id":
        return core.EvenLinearMap.identity(doc.algebra.basis)
    return _named(doc.operators, "operator", name, args.path)


def _multiplier(doc, args):
    return _named(doc.multipliers, "multiplier", _given(args, "multiplier"), args.path)


def _endomorphisms(doc, args):
    """alpha and every named operator that is an endomorphism of the input."""
    alg = doc.algebra
    candidates = [alg.alpha] + [doc.operators[k] for k in sorted(doc.operators)]
    return [f for f in candidates if report.all_ok(core.check_morphism(f, alg, alg))]


def _xi(doc, args):
    return tuple(document.parse_rational(c.strip(), "--xi") for c in _given(args, "xi").split(","))


def _weight(doc, args):
    return document.parse_rational(_given(args, "weight"), "--weight")


def _power(doc, args):
    return args.power or 0


def _second(doc, args):
    return _load(_given(args, "second")).algebra


# construction name -> (function in algcheck.constructions, readers of the
# arguments after the input algebra).  The function is looked up by name at
# call time, so a wrapper installed on the module is the one that runs.  The
# reader _x reads the option --x, which every reader but _power requires
# (_given); twist accepts no other such option.
CONSTRUCTIONS = {
    "xi": ("xi_twist", (_xi,)),
    "multiplier-sym": ("multiplier_twist_symmetric", (_multiplier,)),
    "multiplier-delta": ("multiplier_twist_delta", (_multiplier, _endomorphisms)),
    "transport": ("transport_along_bijection", (_operator,)),
    "centroid": ("centroid_twist", (_operator,)),
    "averaging-pair": ("averaging_twist_pairwise", (_operator,)),
    "averaging-untwisted": ("averaging_twist_untwisted", (_operator,)),
    "averaging-power": ("averaging_twist_power", (_operator, _power)),
    "nijenhuis": ("nijenhuis_twist", (_operator,)),
    "rota-baxter": ("rota_baxter_twist", (_operator, _weight)),
    "tensor": ("tensor_with_commutative", (_second,)),
}


def _construction(args):
    """The construction's entry in CONSTRUCTIONS, once no option it does not read is given."""
    if args.construction not in CONSTRUCTIONS:
        raise errors.DocumentError("unknown-construction",
                                   f"no construction named {args.construction!r}")
    name, readers = CONSTRUCTIONS[args.construction]
    given = sorted({f"--{r.__name__[1:]}" for _, rs in CONSTRUCTIONS.values() for r in rs
                    if r not in readers and getattr(args, r.__name__[1:], None) is not None})
    if given:
        raise errors.DocumentError("usage", f"{args.construction} does not read {', '.join(given)}")
    return name, readers


def _write_result(doc, args, result):
    """Write the output document to -o, else to stdout; with --json and no
    -o, return it as the payload field "document" instead.  Its metadata
    keeps the input's, but of the evidence keys only this construction's."""
    evidence = {"construction": args.construction, "certification": _summary(result.certification),
                "morphism": _summary(result.morphism), "findings": _summary(result.findings)}
    metadata = {k: v for k, v in doc.metadata.items() if k not in evidence}
    metadata.update((k, v) for k, v in evidence.items() if v)
    out_doc = document.AlgebraDocument(
        name=f"{doc.name}#{args.construction}" if doc.name else args.construction,
        algebra=result.algebra,
        metadata=metadata,
    )
    if args.json and not args.output:
        return {"document": document._raw(out_doc)}
    text = document.serialize_document(out_doc)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise errors.DocumentError("io", str(exc), args.output) from exc
    else:
        sys.stdout.write(text)
    return {}


def cmd_twist(args):
    name, readers = _construction(args)
    doc = _load(args.path)
    result = getattr(constructions, name)(doc.algebra, *[read(doc, args) for read in readers])
    written = _write_result(doc, args, result)
    return _emit(args.json, code=EXIT_OK if result.ok else EXIT_AXIOM,
                 certification=result.certification, morphism=result.morphism,
                 findings=result.findings, **written)


def _power_arg(text):
    """--power's value: ASCII digits after an optional sign, else a usage error."""
    try:
        return grading._parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, whose --help is
    written with print(): a failed write to stdout raises, where argparse
    would swallow it, and with fd 1 closed nothing is written."""

    def print_help(self, file=None):
        print(self.format_help(), end="", file=file)


def build_parser():
    parser = _Parser(
        prog="algcheck",
        description="Exact verification and twisting of group-graded Hom-algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, full in (("validate", "run all applicable axiom checks on a file", False),
                             ("report", "validate and dump every residual", True)):
        p = sub.add_parser(name, help=text)
        p.add_argument("path")
        p.add_argument("--commutative", action="store_true",
                       help="also require epsilon-commutativity of the product")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_validate, full=full)

    p = sub.add_parser("check-operator", help="classify a named operator")
    p.add_argument("path")
    p.add_argument("--name", dest="operator", metavar="NAME", required=True)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--power", type=_power_arg, default=0)
    p.add_argument("--weight")
    p.add_argument("--product", default="all", choices=("all", "mu", "bracket"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check_operator)

    p = sub.add_parser("twist", help="apply a construction theorem and re-certify")
    p.add_argument("path")
    p.add_argument("--construction", required=True,
                   help="one of: " + ", ".join(CONSTRUCTIONS))
    p.add_argument("--operator")
    p.add_argument("--multiplier")
    p.add_argument("--weight")
    p.add_argument("--power", type=_power_arg)
    p.add_argument("--xi")
    p.add_argument("--second", help="second input file (tensor construction)")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("tensor", help="tensor a commutative algebra file with a Poisson file")
    p.add_argument("path", metavar="first")
    p.add_argument("second")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_twist, construction="tensor")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a bad ALGCHECK_GROUP_BOUND is named here, not blamed on a document
        grading.group_order_bound()
        return args.fn(args)
    except errors.HypothesisError as exc:
        return _emit(args.json, code=EXIT_AXIOM, gate=str(exc), reports=exc.reports)
    except errors.AlgcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry():
    """The `algcheck` command: run main(), flush stdout, then end the process
    with os._exit, skipping interpreter finalization (module teardown, the
    final GC passes, freeing the heap), as mypy's hard_exit does.  Files
    the CLI writes are closed by then, and stderr is line-buffered.  main
    reports other files' OSErrors itself, so one here is a failed write to
    stdout (a full device, a closed pipe): one `error: io at <stdout>` line
    on stderr, exit 2.  argparse's SystemExit (usage errors, --help) gives
    the exit code, after the same flush; other exceptions escaping main
    take the ordinary exit."""
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        print(end="", flush=True)  # flushes stdout, unless it was never open
    except OSError as exc:
        code = EXIT_ERROR
        print(f"error: io at <stdout>: {exc}", file=sys.stderr)
    os._exit(code)


if __name__ == "__main__":
    entry()
