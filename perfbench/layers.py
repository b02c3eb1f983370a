"""Per-layer metrics from the spans of traced passes.

Each traced job writes {"startup": seconds, "spans": [[name, parent,
start, end, attrs], ...]} (see traced_job.py).  A layer's time is the
summed duration of its boundary spans; `cli.self_s` is the time spent in
cli spans outside their child spans.  Counts come from the span attrs.
Times are the median over traced passes; counts must repeat exactly
from pass to pass.
"""

import statistics

# name -> unit, in report order
METRICS = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "document.parse_s": "s",
    "document.serialize_s": "s",
    "document.bytes_in": "bytes",
    "document.bytes_out": "bytes",
    "grading.bicharacter_s": "s",
    "grading.multiplier_s": "s",
    "grading.group_triples": "count",
    "grading.triples_per_s": "1/s",
    "core.hom_associative_s": "s",
    "core.hom_lie_s": "s",
    "core.hom_leibniz_s": "s",
    "core.epsilon_commutative_s": "s",
    "core.morphism_s": "s",
    "core.tuples": "count",
    "core.tuples_per_s": "1/s",
    "core.nnz": "count",
    "core.apply_calls": "count",
    "core.violations": "count",
    "core.violation_ratio": "ratio",
    "operators.check_operator_s": "s",
    "operators.check_operator_calls": "count",
    "operators.pairs": "count",
    "operators.search_s": "s",
    "operators.search_candidates": "count",
    "operators.search_hits": "count",
    "operators.search_hit_ratio": "ratio",
    "constructions.gate_s": "s",
    "constructions.build_s": "s",
    "constructions.certify_s": "s",
    "constructions.morphism_s": "s",
    "constructions.recertify_ratio": "ratio",
    "report.render_s": "s",
    "report.json_s": "s",
    "report.violations_rendered": "count",
}

# span name -> metric its duration adds to
SPAN_TIME = {
    "document.parse_document": "document.parse_s",
    "document.serialize_document": "document.serialize_s",
    "grading.validate_bicharacter": "grading.bicharacter_s",
    "grading.validate_bicharacter_table": "grading.bicharacter_s",
    "grading.validate_multiplier": "grading.multiplier_s",
    "core.check_hom_associative": "core.hom_associative_s",
    "core.check_hom_lie": "core.hom_lie_s",
    "core.check_hom_leibniz": "core.hom_leibniz_s",
    "core.check_epsilon_commutative": "core.epsilon_commutative_s",
    "core.check_morphism": "core.morphism_s",
    "operators.check_operator": "operators.check_operator_s",
    "operators.search_diagonal_operators": "operators.search_s",
    "report.render_reports": "report.render_s",
    "report.to_json": "report.json_s",
}

# span attr -> metric it adds to
SPAN_COUNT = {
    "bytes_in": "document.bytes_in",
    "bytes_out": "document.bytes_out",
    "group_triples": "grading.group_triples",
    "tuples": "core.tuples",
    "nnz": "core.nnz",
    "apply_calls": "core.apply_calls",
    "violations": "core.violations",
    "pairs": "operators.pairs",
    "candidates": "operators.search_candidates",
    "hits": "operators.search_hits",
    "violations_rendered": "report.violations_rendered",
}

CORE_SWEEPS = ("core.check_hom_associative", "core.check_hom_lie", "core.check_hom_leibniz",
               "core.check_epsilon_commutative", "core.check_morphism")


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(jobs, problems):
    """Per-layer metrics of one traced pass (one trace per job)."""
    m = dict.fromkeys(METRICS, 0.0)
    construction_s = sweep_s = checks = repeats = 0.0
    for j, job in enumerate(jobs):
        if job is None:
            problems.append(f"job {j}: no trace")
            continue
        m["cli.startup_s"] += job["startup"]
        spans = job["spans"]
        covered = [0.0] * len(spans)
        for i, (name, parent, start, end, attrs) in enumerate(spans):
            if parent >= 0:
                p = spans[parent]
                if not (parent < i and p[2] <= start <= end <= p[3]):
                    problems.append(f"job {j}: span {i} {name} does not nest in span {parent}")
                covered[parent] += end - start
        for i, (name, parent, start, end, attrs) in enumerate(spans):
            duration = end - start
            if name.startswith("cli."):
                m["cli.self_s"] += duration - covered[i]
            if name in SPAN_TIME:
                m[SPAN_TIME[name]] += duration
            if name in CORE_SWEEPS:
                sweep_s += duration
            if name == "operators.check_operator":
                m["operators.check_operator_calls"] += 1
            if name.startswith("constructions."):
                construction_s += duration
            if "phase" in attrs:
                m[f"constructions.{attrs['phase']}_s"] += duration
            if "repeat" in attrs:
                checks += 1
                repeats += attrs["repeat"]
            for key, metric in SPAN_COUNT.items():
                m[metric] += attrs.get(key, 0)
    m["constructions.build_s"] = construction_s - sum(
        m[f"constructions.{phase}_s"] for phase in ("gate", "certify", "morphism"))
    m["grading.triples_per_s"] = _ratio(
        m["grading.group_triples"], m["grading.bicharacter_s"] + m["grading.multiplier_s"])
    m["core.tuples_per_s"] = _ratio(m["core.tuples"], sweep_s)
    m["core.violation_ratio"] = _ratio(m["core.violations"], m["core.tuples"])
    m["operators.search_hit_ratio"] = _ratio(m["operators.search_hits"],
                                             m["operators.search_candidates"])
    m["constructions.recertify_ratio"] = _ratio(repeats, checks)
    return m


def summarize(traced_passes):
    """Median times over the passes, as {name: (value, unit)}, and the
    problems found: spans that do not nest, counts that differ between
    passes."""
    problems = []
    per_pass = [pass_metrics(jobs, problems) for jobs in traced_passes]
    metrics = {}
    for name, unit in METRICS.items():
        values = [m[name] for m in per_pass]
        if unit in ("count", "bytes", "ratio") and len(set(values)) > 1:
            problems.append(f"{name} differs between passes: {values}")
        metrics[name] = (statistics.median(values), unit)
    return metrics, problems
