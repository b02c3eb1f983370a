"""Run one benchmark job with spans around algcheck's public functions.

Usage: python3 perfbench/traced_job.py SPANS_OUT T_SPAWN cli|search ARGS...

T_SPAWN is the parent's time.time() just before it started this process,
so the job's start-up (interpreter start plus import) can be measured.
Every public function of the layer modules is wrapped at every module
attribute callers look it up through (the modules import names directly,
for example `algcheck.cli.check_hom_associative`).  Spans (name, parent,
start, end, counts) are kept in memory and written as JSON when the job
ends.  Counts at each boundary are computed from the arguments and the
return value, never from timers inside the program.
"""

import functools
import json
import sys
import time

import algcheck
import algcheck.cli

T_IMPORTED = time.time()

from algcheck.core import GradedAlgebra  # noqa: E402
from algcheck.report import AxiomReport  # noqa: E402

LAYERS = ("cli", "document", "grading", "core", "operators", "constructions", "report")

# per-number and per-tuple arithmetic helpers: not layer boundaries, and
# wrapping them would make the trace cost more than the work it measures
HELPERS = {
    "zero_vec", "basis_vec", "vec_add", "vec_sub", "vec_scale", "vec_is_zero",
    "apply_product", "components", "group_add", "group_order_bound",
    "parse_rational", "format_rational", "all_ok",
}

CHECKS = {
    "core.check_hom_associative", "core.check_epsilon_commutative", "core.check_hom_lie",
    "core.check_hom_leibniz", "core.check_hom_poisson", "core.check_morphism",
    "grading.validate_bicharacter", "grading.validate_bicharacter_table",
    "grading.validate_multiplier", "operators.check_operator",
}


def _reports(result):
    return result if isinstance(result, list) else [result]


def _violations(result):
    return sum(len(r.violations) for r in _reports(result))


def _nnz(A):
    return sum(len(p.entries) for p in (A.mu, A.bracket) if p is not None)


def _core(triples, pairs, applies_per_triple):
    """Counts of a core sweep: n^3 per triple axiom, n^2 per pair check."""
    def count(args, kwargs, result):
        A = args[0]
        n = A.dim
        return {"tuples": triples * n ** 3 + pairs * n ** 2,
                "apply_calls": applies_per_triple * n ** 3,
                "nnz": _nnz(A), "violations": _violations(result)}
    return count


def _morphism(args, kwargs, result):
    f, src = args[0], args[1]
    n = src.dim
    products = sum(p is not None for p in (src.mu, src.bracket))
    return {"tuples": n + products * n ** 2, "apply_calls": products * n ** 2,
            "nnz": _nnz(src), "violations": _violations(result)}


def _group_triples(sweeps):
    def count(args, kwargs, result):
        symmetric = kwargs.get("symmetric", args[1] if len(args) > 1 else False)
        k = sweeps + (1 if symmetric else 0)
        return {"group_triples": k * args[0].group.order ** 3}
    return count


def _check_operator(args, kwargs, result):
    A = args[0]
    products = kwargs.get("products", args[2] if len(args) > 2 else "all")
    k = 1 if products in ("mu", "bracket") else sum(p is not None for p in (A.mu, A.bracket))
    return {"pairs": k * A.dim ** 2}


def _search(args, kwargs, result):
    A, candidates = args[0], args[2]
    return {"candidates": len(set(candidates)) ** A.dim, "hits": len(result)}


def _render(args, kwargs, result):
    full = kwargs.get("full", args[1] if len(args) > 1 else False)
    return {"violations_rendered": sum(len(r.violations) if full else 1
                                       for r in args[0] if not r.ok)}


COUNTS = {
    "core.check_hom_associative": _core(1, 0, 2),
    "core.check_epsilon_commutative": _core(0, 1, 0),
    "core.check_hom_lie": _core(1, 1, 3),
    "core.check_hom_leibniz": _core(1, 0, 3),
    "core.check_morphism": _morphism,
    "grading.validate_bicharacter": _group_triples(1),
    "grading.validate_bicharacter_table": _group_triples(1),
    "grading.validate_multiplier": _group_triples(1),
    "operators.check_operator": _check_operator,
    "operators.search_diagonal_operators": _search,
    "document.parse_document": lambda a, k, r: {"bytes_in": len(a[0].encode())},
    "document.serialize_document": lambda a, k, r: {"bytes_out": len(r.encode())},
    "report.render_reports": _render,
}


def _carries(arg, result):
    """Does a check's algebra argument carry the construction's result
    (the result itself, or a copy that drops a product but shares the rest)?"""
    if arg is result:
        return True
    return (arg.alpha == result.alpha
            and (arg.mu is None or arg.mu is result.mu)
            and (arg.bracket is None or arg.bracket is result.bracket))


class Tracer:
    def __init__(self):
        self.spans = []       # [name, parent, start, end, attrs]
        self.stack = []       # (span index, [(index, args) of direct children])
        self.seen = set()     # (name, args, kwargs) of every check so far

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        is_check = name in CHECKS
        is_construction = name.startswith("constructions.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if is_check:
                try:
                    key = (name, args, tuple(sorted(kwargs.items())))
                    attrs["repeat"] = int(key in self.seen)
                    self.seen.add(key)
                except TypeError:  # an unhashable argument: never a repeat
                    attrs["repeat"] = 0
            parent = self.stack[-1] if self.stack else None
            idx = len(self.spans)
            span = [name, parent[0] if parent else -1, 0.0, 0.0, attrs]
            self.spans.append(span)
            if parent:
                parent[1].append((idx, args))
            frame = (idx, [])
            self.stack.append(frame)
            span[2] = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
                if count and result is not None:
                    attrs.update(count(args, kwargs, result))
                if is_construction:
                    self._phases(frame[1], getattr(result, "algebra", None))

        return wrapper

    def _phases(self, children, result):
        """Sort the checks a construction made by their argument: a check
        on the result algebra is a certification, a morphism check touching
        it is a morphism clause, anything else is a gate."""
        for idx, args in children:
            span = self.spans[idx]
            if span[0] not in CHECKS:
                continue
            algebras = [a for a in args if isinstance(a, GradedAlgebra)]
            if result is None or not algebras:
                phase = "gate"
            elif span[0] == "core.check_morphism":
                phase = "morphism" if any(a is result for a in algebras) else "gate"
            else:
                phase = "certify" if _carries(algebras[0], result) else "gate"
            span[4]["phase"] = phase

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"algcheck.{layer}"]
            for attr, obj in vars(module).items():
                if (callable(obj) and getattr(obj, "__module__", None) == module.__name__
                        and not attr.startswith("_") and attr not in HELPERS
                        and not isinstance(obj, type)):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name == "algcheck" or name.startswith("algcheck."):
                for attr, obj in list(vars(module).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(module, attr, hit[1])
        AxiomReport.to_json = self.wrap("report.to_json", AxiomReport.to_json)


def main():
    out_path, t_spawn, mode, args = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    tracer = Tracer()
    tracer.install()
    try:
        if mode == "cli":
            code = algcheck.cli.main(args)
        else:
            import search_job
            code = search_job.main(args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"startup": T_IMPORTED - t_spawn, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
