#!/usr/bin/env python3
"""Time the group laws on Z_2^r as the grading group grows, and the axiom
sweeps and operator predicates as the dimension grows.

Run from the repository root:  python3 scripts/scale_probe.py [ORDER ...]

For each group order (default 16, 32, 64 and 256) it prints the seconds
`validate_bicharacter` takes on the sign bicharacter of the identity
exponent matrix (symmetric, so it passes in closed form), the seconds
`validate_multiplier(symmetric=True)` takes on the symmetric multiplier
s(x, y) = (-1)^(x . y) / 3, and the seconds `validate_bicharacter` takes
on the table delta of the multiplier (-1)^(x_0 y_1) 2/3, all in process.
For each dimension in DIMS it prints the seconds `check_hom_poisson` takes
on the eps-commutator of the group algebra K[Z_2^r], and the seconds
`check_operator` takes on 2 id for every operator kind (Rota-Baxter at
weight -2), also in process; these are dense rows (every basis pair has
a nonzero product in mu), the largest of them dim 64.  For each rank r in GRASSMANN_RANKS it prints the
seconds `check_hom_associative` takes on the Grassmann algebra of K^r, a
sparse algebra (3^r of its 4^r basis pairs have a nonzero product), and
that count of pairs; r = 8 is dim 256, over a group of order 256, the
default group bound.  It then prints the end-to-end seconds of
`algcheck validate` on a dim-1 document with a sign bicharacter over
Z_2^8, run in a fresh interpreter the way the console script runs it:
the median over CLI_RUNS interpreters of the wall time and of the child's
CPU time.  Every verdict must be PASS.

Before that line it prints a job's start-up budget: the median child CPU,
over CLI_RUNS fresh interpreters, of each stage of one stamped run of
`validate` on example3_corrected.  The child reads time.process_time()
after interpreter start-up, after `import algcheck.cli` and after main(),
then leaves through sys.exit; finalization is the rest of its CPU, so
every stage is a difference inside one process.
"""

import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from algcheck import (  # noqa: E402
    AlgebraDocument,
    BilinearProduct,
    EvenLinearMap,
    GradedAlgebra,
    GradedBasis,
    GroupSpec,
    MultiplierTable,
    OperatorClaim,
    SignBicharacter,
    all_ok,
    check_hom_associative,
    check_hom_poisson,
    check_operator,
    commutator_bracket,
    delta_from_multiplier,
    serialize_document,
    validate_bicharacter,
    validate_multiplier,
)
from algcheck.operators import KINDS  # noqa: E402

ORDERS = (16, 32, 64, 256)
DIMS = (8, 16, 32, 64)
GRASSMANN_RANKS = (5, 6, 7, 8)
CLI_RUNS = 11
ENTRY = "from algcheck.cli import entry; entry()"
# one stamped start-up run: its process_time() after interpreter start-up,
# after the import and after main(), on stderr, then sys.exit
STAMPED = ("import sys, time; t = [time.process_time()]; import algcheck.cli; "
           "t.append(time.process_time()); code = algcheck.cli.main(sys.argv[1:]); "
           "t.append(time.process_time()); print(*t, file=sys.stderr); sys.exit(code)")
STAGES = ("interpreter: start-up to the first statement", "import: `import algcheck.cli`",
          "work: `main([\"validate\", example3_corrected])`", "finalization: after `sys.exit`")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    reports = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    if not all_ok(reports):
        raise AssertionError(f"{fn.__name__} failed on a passing input")
    return elapsed


def z2_power(order):
    """Z_2^r with 2^r = order, and its identity exponent matrix."""
    rank = order.bit_length() - 1
    if order != 1 << rank:
        raise ValueError(f"order {order} is not a power of 2")
    g = GroupSpec((2,) * rank)
    return g, SignBicharacter(g, tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)))


def sweep_seconds(order):
    """(validate_bicharacter on signs, validate_multiplier(symmetric=True),
    validate_bicharacter on a table) seconds on Z_2^r with 2^r = order."""
    g, e = z2_power(order)
    s = MultiplierTable.from_function(
        g, lambda x, y: F(-1) ** sum(a * b for a, b in zip(x, y)) / 3)
    # (-1)^(x_0 y_1) 2/3, reading a coordinate Z_2^r lacks as 0
    delta = delta_from_multiplier(MultiplierTable.from_function(
        g, lambda x, y: F(-1) ** (sum(x[:1]) * sum(y[1:2])) * F(2, 3)))
    return (_timed(validate_bicharacter, e), _timed(validate_multiplier, s, symmetric=True),
            _timed(validate_bicharacter, delta))


def group_algebra_commutator(dim):
    """K[Z_2^r] with 2^r = dim, e_g e_h = e_{g+h} and alpha = id, extended
    by its eps-commutator for the identity exponent matrix."""
    g, e = z2_power(dim)
    els = g.elements()
    index = {x: i for i, x in enumerate(els)}
    basis = GradedBasis(g, els)
    mu = BilinearProduct(basis, tuple((i, j, index[g.add(x, y)], 1)
                                      for i, x in enumerate(els) for j, y in enumerate(els)))
    return commutator_bracket(GradedAlgebra(e, basis, mu, None, EvenLinearMap.identity(basis)))


def dimension_seconds(dim):
    """(check_hom_poisson seconds, {kind: check_operator seconds}) on
    group_algebra_commutator(dim), with the operator 2 id."""
    A = group_algebra_commutator(dim)
    two = EvenLinearMap.scalar(A.basis, 2)
    claims = {kind: OperatorClaim(two, kind, weight=-2 if kind == "rota-baxter" else None)
              for kind in KINDS}
    return _timed(check_hom_poisson, A), {
        kind: _timed(check_operator, A, claim) for kind, claim in claims.items()}


def grassmann(rank):
    """The Grassmann algebra of K^rank with alpha = id, graded by Z_2^rank
    with the all-ones exponent matrix: e_I has the indicator of I as its
    degree, and e_I e_J = (-1)^#{i in I, j in J : i > j} e_{I u J} when I
    and J are disjoint, else 0."""
    g = GroupSpec((2,) * rank)
    eps = SignBicharacter(g, ((1,) * rank,) * rank)
    els = g.elements()
    index = {x: i for i, x in enumerate(els)}
    basis = GradedBasis(g, els)
    mu = BilinearProduct(basis, tuple(
        (i, j, index[g.add(x, y)],
         (-1) ** sum(x[a] * y[b] for a in range(rank) for b in range(a)))
        for i, x in enumerate(els) for j, y in enumerate(els)
        if not any(a and b for a, b in zip(x, y))))
    return GradedAlgebra(eps, basis, mu, None, EvenLinearMap.identity(basis))


def grassmann_seconds(rank):
    """(check_hom_associative seconds, nonzero pairs) on grassmann(rank)."""
    A = grassmann(rank)
    return _timed(lambda: [check_hom_associative(A)]), len(A.mu.entries)


def line_document(rank):
    """A dim-1 algebra in degree 0 over Z_2^rank with the identity exponent
    matrix: the unital line e e = e, alpha = id."""
    g, eps = z2_power(1 << rank)
    basis = GradedBasis(g, (g.zero,))
    alg = GradedAlgebra(eps, basis, BilinearProduct(basis, ((0, 0, 0, 1),)), None,
                        EvenLinearMap.identity(basis))
    return serialize_document(AlgebraDocument(name=f"line-z2^{rank}", algebra=alg))


def _child_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_seconds(code, *args, runs=CLI_RUNS):
    """(wall, CPU, stderr) of `python -c code args` in each of `runs` fresh
    interpreters, each of which must exit 0.  The run waits without a
    timeout, so the wall time carries no polling delay."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(runs):
        cpu, start = _child_cpu(), time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True)
        samples.append((time.perf_counter() - start, _child_cpu() - cpu, done.stderr))
        if done.returncode != 0:
            raise AssertionError(f"{code} {args} exited {done.returncode}: "
                                 f"{done.stdout}{done.stderr}")
    return samples


def cli_validate_seconds(rank=8, runs=CLI_RUNS):
    """Median (wall, CPU) seconds of `algcheck validate` on
    line_document(rank) over `runs` interpreters, run the way the console
    script runs it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "line.json"
        path.write_text(line_document(rank), encoding="utf-8")
        samples = child_seconds(ENTRY, "validate", str(path), runs=runs)
    return tuple(statistics.median(s[k] for s in samples) for k in (0, 1))


def startup_seconds(runs=CLI_RUNS):
    """Median CPU seconds of each of the STAGES over `runs` stamped runs of
    `validate` on example3_corrected, in order."""
    example = str(SRC.parent / "fixtures" / "example3_corrected.json")
    stages = []
    for _, cpu, stderr in child_seconds(STAMPED, "validate", example, runs=runs):
        stamps = [0.0, *map(float, stderr.split()[-3:]), cpu]
        stages.append([b - a for a, b in zip(stamps, stamps[1:])])
    return [statistics.median(stage) for stage in zip(*stages)]


def main(argv=None):
    orders = [int(a) for a in (sys.argv[1:] if argv is None else argv)] or ORDERS
    print("| |G| | validate_bicharacter, signs | validate_multiplier(symmetric=True) "
          "| validate_bicharacter, table |")
    print("|---|---|---|---|")
    for order in orders:
        bich, mult, table = sweep_seconds(order)
        print(f"| {order} | {bich:.4f} s | {mult:.3f} s | {table:.3f} s |")
    print()
    print("| dim | check_hom_poisson | " + " | ".join(f"check_operator {k}" for k in KINDS) + " |")
    print("|---" * (2 + len(KINDS)) + "|")
    for dim in DIMS:
        poisson, operators = dimension_seconds(dim)
        print(f"| {dim} | {poisson:.3f} s | " + " | ".join(f"{operators[k]:.3f} s" for k in KINDS) + " |")
    print()
    print("| r | dim | nonzero pairs | check_hom_associative |")
    print("|---|---|---|---|")
    for rank in GRASSMANN_RANKS:
        seconds, pairs = grassmann_seconds(rank)
        print(f"| {rank} | {2 ** rank} | {pairs} | {seconds:.3f} s |")
    print()
    print(f"| start-up stage, median of {CLI_RUNS} interpreters | child CPU |")
    print("|---|---|")
    for label, cpu in zip(STAGES, startup_seconds()):
        print(f"| {label} | {cpu * 1000:.1f} ms |")
    print()
    wall, cpu = cli_validate_seconds(8)
    print(f"CLI validate, dim 1, sign bicharacter over Z_2^8, median of {CLI_RUNS} runs: "
          f"{wall:.3f} s wall, {cpu:.3f} s CPU")


if __name__ == "__main__":
    main()
