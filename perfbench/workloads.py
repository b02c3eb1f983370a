"""Seeded inputs and job lists for the algcheck benchmark.

Every document is written as JSON text straight from the formulas below:
group algebras, tensor products, Yau twists and epsilon-commutator
brackets are computed here with `fractions.Fraction`, never by calling
algcheck.  Each job carries the exit code its verdict must have, taken
from the theorem it exercises, from a deliberately broken input, or from
the recorded averaging-untwisted counterexample.

The seed picks a rational diagonal change of basis f_i = d_i e_i per
document (operators are conjugated to match) and, for the failing
variants, which constant is perturbed.  Every verdict is invariant under
the change of basis, so the known exit codes hold for any seed, and
`normalize_text` and `normalize_document` map each output back to the
d = 1 basis, so that one recorded digest checks every seed.
"""

import itertools
import json
import random
import re
from fractions import Fraction as F

WORKLOADS = ("axioms-scaling", "group-laws", "operators-twists", "fixture-corpus")

# diagonal change-of-basis entries; small so that rational sizes, and with
# them the arithmetic cost, stay alike from seed to seed
SCALES = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(1, 3), F(-3, 2))

Z2 = (2,)
SIGN_EPS = [[1]]  # exponent matrix: eps(a, b) = (-1)^(ab) on Z_2


class Alg:
    """Structure constants of one document, in algcheck's file format."""

    def __init__(self, moduli, degrees, eps, mu, bracket, alpha, operators=None,
                 multipliers=None, name="", metadata=None):
        self.moduli = tuple(moduli)
        self.degrees = [tuple(d) for d in degrees]
        self.eps = eps
        self.mu = mu
        self.bracket = bracket
        self.alpha = alpha
        self.operators = dict(operators or {})
        self.multipliers = dict(multipliers or {})
        self.name = name
        self.metadata = dict(metadata or {})
        self.scale = [F(1)] * len(self.degrees)

    @property
    def dim(self):
        return len(self.degrees)

    def eps_value(self, a, b):
        rows = self.eps
        e = sum(a[i] * rows[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))
        return F(-1) if e % 2 else F(1)

    def rescaled(self, d):
        """The same algebra in the basis f_i = d_i e_i."""
        d = [F(x) for x in d]
        out = Alg(self.moduli, self.degrees, self.eps,
                  _rescale_product(self.mu, d), _rescale_product(self.bracket, d),
                  _conjugate(self.alpha, d),
                  {k: _conjugate(m, d) for k, m in self.operators.items()},
                  self.multipliers, self.name, self.metadata)
        out.scale = d
        return out

    def text(self):
        raw = {
            "name": self.name,
            "group": {"moduli": list(self.moduli)},
            "basis": {"degrees": [list(x) for x in self.degrees]},
            "epsilon": {"matrix": self.eps},
            "alpha": _rows(self.alpha),
            "operators": {k: _rows(m) for k, m in sorted(self.operators.items())},
            "multipliers": {k: _rows(t) for k, t in sorted(self.multipliers.items())},
            "metadata": self.metadata,
        }
        for key in ("mu", "bracket"):
            p = getattr(self, key)
            if p is not None:
                raw[key] = [[i, j, k, _q(c)] for (i, j, k), c in sorted(p.items()) if c != 0]
        return json.dumps(raw, sort_keys=True) + "\n"


def _q(x):
    return str(F(x))


def _rows(m):
    return [[_q(x) for x in row] for row in m]


def _rescale_product(p, d):
    if p is None:
        return None
    return {(i, j, k): c * d[i] * d[j] / d[k] for (i, j, k), c in p.items()}


def _conjugate(m, d):
    n = len(d)
    return [[m[i][j] * d[j] / d[i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# formulas

def elements(moduli):
    return [tuple(t) for t in itertools.product(*[range(m) for m in moduli])]


def add(moduli, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def diagonal(entries):
    n = len(entries)
    return [[F(entries[i]) if i == j else F(0) for j in range(n)] for i in range(n)]


def scalar(n, c):
    return diagonal([c] * n)


def kron(m, p):
    """m (x) p on the pair basis (i, q) -> i * dim(p) + q."""
    dm, dp = len(m), len(p)
    return [[m[k][i] * p[r][q] for i in range(dm) for q in range(dp)]
            for k in range(dm) for r in range(dp)]


def group_algebra(group_moduli, name):
    """K[G] for a finite abelian G, concentrated in degree 0 of Z_2,
    alpha = id: commutative and associative."""
    els = elements(group_moduli)
    idx = {e: i for i, e in enumerate(els)}
    mu = {(i, j, idx[add(group_moduli, x, y)]): F(1)
          for i, x in enumerate(els) for j, y in enumerate(els)}
    n = len(els)
    return Alg(Z2, [(0,)] * n, SIGN_EPS, mu, None, identity(n), name=name)


def left_mult(group_moduli, z):
    """Matrix of multiplication by z = sum z_a x_a on K[G]."""
    els = elements(group_moduli)
    idx = {e: i for i, e in enumerate(els)}
    n = len(els)
    m = [[F(0)] * n for _ in range(n)]
    for a, za in zip(els, z):
        for b in els:
            m[idx[add(group_moduli, a, b)]][idx[b]] += F(za)
    return m


def three_dim(a, corrected):
    """The 3-dim Hom-Poisson color algebra over Z_2 with parameter a:
    span(e1, e2) in degree 0 and e3 in degree 1.  The as-printed table
    keeps the duplicated e2.e1 cell, the corrected one reads it as
    e2.e2 = (1/a) e2."""
    a = F(a)
    mu = {(0, 0, 0): F(1), (0, 1, 1): F(1), (0, 2, 2): a, (1, 2, 2): F(1), (2, 0, 2): a}
    if corrected:
        mu.update({(1, 0, 1): F(1), (1, 1, 1): 1 / a})
    else:
        mu[(1, 0, 1)] = 1 / a
    bracket = {(1, 2, 2): F(1), (2, 1, 2): F(-1)}
    return Alg(Z2, [(0,), (0,), (1,)], SIGN_EPS, mu, bracket, diagonal([1, 1, a]),
               name="E3" if corrected else "E3-as-printed")


def tensor(A, P):
    """Tensor product of a commutative Hom-associative A with a Hom-Poisson
    P on the pair basis (i, p); the products pick up eps(deg p, deg j)."""
    dP = P.dim

    def build(p_prod):
        out = {}
        for (i, j, k), ca in A.mu.items():
            for (p, q, r), cp in p_prod.items():
                c = P.eps_value(P.degrees[p], A.degrees[j]) * ca * cp
                key = (i * dP + p, j * dP + q, k * dP + r)
                out[key] = out.get(key, F(0)) + c
        return out

    degrees = [add(P.moduli, a, b) for a in A.degrees for b in P.degrees]
    return Alg(P.moduli, degrees, P.eps, build(P.mu),
               build(P.bracket) if P.bracket is not None else None,
               kron(A.alpha, P.alpha), name=f"{A.name}(x){P.name}")


def commutator(A):
    """Extend A by the epsilon-commutator bracket mu - eps * mu^op."""
    br = {}
    for (i, j, k), c in A.mu.items():
        br[(i, j, k)] = br.get((i, j, k), F(0)) + c
        e = A.eps_value(A.degrees[j], A.degrees[i])
        br[(j, i, k)] = br.get((j, i, k), F(0)) - e * c
    A.bracket = {key: c for key, c in br.items() if c != 0}
    return A


def sign_s3():
    """The group algebra of S_3 graded by the sign, Yau-twisted by the sign
    automorphism alpha(g) = sgn(g) g (so mu(g, h) = sgn(gh) gh is
    Hom-associative), with its epsilon-commutator bracket."""
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}

    def sgn(p):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return -1 if inv % 2 else 1

    mu = {}
    for i, g in enumerate(perms):
        for j, h in enumerate(perms):
            gh = tuple(g[h[t]] for t in range(3))
            mu[(i, j, idx[gh])] = F(sgn(gh))
    degrees = [((1 - sgn(p)) // 2,) for p in perms]
    A = Alg(Z2, degrees, SIGN_EPS, mu, None, diagonal([sgn(p) for p in perms]), name="S3")
    return commutator(A)


def perturbed(A, key, name):
    """A copy of A with one mu constant doubled (bracket left as is)."""
    mu = dict(A.mu)
    mu[key] = 2 * mu[key]
    return Alg(A.moduli, A.degrees, A.eps, mu, A.bracket, A.alpha, A.operators,
               A.multipliers, name, A.metadata)


# ---------------------------------------------------------------------------
# jobs

class Job:
    """One CLI invocation (or one library search) and its known answer.

    `key` names the job in the digest table; `scale` is the d of the basis
    the job's reports refer to, `out` an output document written with -o."""

    def __init__(self, key, kind, argv, expect, scale=None, out=None, expect_file=None):
        self.key = key
        self.kind = kind
        self.argv = list(argv)
        self.expect = expect
        self.scale = scale
        self.out = out
        self.expect_file = expect_file


class Workload:
    def __init__(self, name, seed, workdir):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        # which constant a failing variant perturbs; seed % 3 so that a few
        # consecutive seeds cover every variant
        self.choice = seed % 3
        self.workdir = workdir
        self.docs = {}   # file name -> (text, scale)
        self.jobs = []

    def add_doc(self, fname, alg):
        alg = alg.rescaled([self.rng.choice(SCALES) for _ in range(alg.dim)])
        self.docs[fname] = (alg.text(), alg.scale)

    def path(self, fname):
        return f"{self.workdir}/{fname}"

    def job(self, key, kind, args, expect, doc=None, out=None, scale=None, expect_file=None):
        if scale is None and doc is not None:
            scale = self.docs[doc][1]
        argv = [kind.replace("_", "-")] + args
        if out is not None:
            argv += ["-o", self.path(out)]
        self.jobs.append(Job(key, kind, argv, expect, scale, self.path(out) if out else None,
                             expect_file))


def build(name, seed, workdir):
    """The documents and ordered job list of one workload for one seed."""
    w = Workload(name, seed, workdir)
    {"axioms-scaling": _axioms_scaling, "group-laws": _group_laws,
     "operators-twists": _operators_twists, "fixture-corpus": _fixture_corpus}[name](w)
    return w


ONE_Z2 = [[F(1), F(1)], [F(1), F(1)]]  # the trivial multiplier on Z_2


def _axioms_scaling(w):
    """Hom-Poisson algebras of dim 6 and 9 in a sparse family (K[G] (x) E3)
    and a dense one (the sign-graded S_3 algebra), each passing and failing;
    plus one small job per remaining layer so that none of them reads zero."""
    E3, E3p = three_dim(2, True), three_dim(2, False)
    s3 = sign_s3()
    # failing dense variant: the seed picks one of three constants to double
    s3_keys = sorted(k for k in s3.mu if k[0] and k[1])
    instances = [
        ("sparse6", tensor(group_algebra((2,), "KZ2"), E3), 0),
        ("sparse9", tensor(group_algebra((3,), "KZ3"), E3), 0),
        ("sparse6-fail", tensor(group_algebra((2,), "KZ2"), E3p), 1),
        ("sparse9-fail", tensor(group_algebra((3,), "KZ3"), E3p), 1),
        ("dense6", s3, 0),
        (f"dense6-fail.c{w.choice}", perturbed(s3, s3_keys[7 * w.choice + 3], "S3-perturbed"), 1),
    ]
    for key, alg, expect in instances:
        alg.operators = {"two": scalar(alg.dim, 2)}
        alg.multipliers = {"one": ONE_Z2}
        fname = key.split(".")[0] + ".json"
        w.add_doc(fname, alg)
        # one job per instance: validate the passing ones, report the failing ones
        kind = "report" if expect else "validate"
        w.job(f"{key}/{kind}", kind, [w.path(fname)], expect, doc=fname)
    # E3 is not epsilon-commutative: e2.e3 = e3 but e3.e2 = 0
    w.job("sparse6/validate-commutative-json", "validate",
          ["--commutative", "--json", w.path("sparse6.json")], 1, doc="sparse6.json")
    w.job("sparse9/check-centroid", "check_operator",
          [w.path("sparse9.json"), "--name", "two", "--kind", "centroid"], 0, doc="sparse9.json")
    w.job("sparse6/twist-centroid", "twist",
          [w.path("sparse6.json"), "--construction", "centroid", "--operator", "two"], 0,
          doc="sparse6.json", out="sparse6.centroid.json")
    w.job("sparse6/search-centroid", "search",
          [w.path("sparse6.json"), "centroid", "-", "2"], 0)


def _group_laws(w):
    """Dim-2 algebras with a zero bracket over groups of order 16 and 24,
    each carrying a sign bicharacter and three multipliers."""
    for gname, moduli in (("z2^4", (2, 2, 2, 2)), ("z2^3xz3", (2, 2, 2, 3))):
        els = elements(moduli)
        r = len(moduli)
        even = [i for i, m in enumerate(moduli) if m == 2]
        # sign bicharacter: identity exponent matrix on the Z_2 coordinates
        E = [[int(i == j and i in even) for j in range(r)] for i in range(r)]
        g1 = tuple(int(i == 0) for i in range(r))
        # K[Z_2] on degrees 0 and g1, Yau-twisted by alpha = diag(1, -1)
        mu = {(0, 0, 0): F(1), (0, 1, 1): F(-1), (1, 0, 1): F(-1), (1, 1, 0): F(1)}
        sym = [[F(-1) ** (x[0] * y[0] + x[1] * y[1]) for y in els] for x in els]
        asym = [[F(-1) ** (x[0] * y[1]) for y in els] for x in els]
        choice = w.choice
        bad = [row[:] for row in asym]
        # perturbed position, away from the identity row and column
        pa, pb = ((3, 5), (7, 2), (9, 4))[choice]
        bad[pa][pb] = 2 * bad[pa][pb]
        alg = Alg(moduli, [(0,) * r, g1], E, mu, {}, diagonal([1, -1]),
                  operators={"two": scalar(2, 2)},
                  multipliers={"sigma_sym": sym, "sigma_asym": asym, "sigma_bad": bad},
                  name=f"line-{gname}")
        fname = f"{gname}.json"
        w.add_doc(fname, alg)
        # sigma_bad is not a cocycle
        w.job(f"{gname}.c{choice}/validate", "validate", [w.path(fname)], 1, doc=fname)
        w.job(f"{gname}/twist-sym", "twist",
              [w.path(fname), "--construction", "multiplier-sym", "--multiplier", "sigma_sym"],
              0, doc=fname, out=f"{gname}.sym.json")
        w.job(f"{gname}/twist-delta", "twist",
              [w.path(fname), "--construction", "multiplier-delta", "--multiplier", "sigma_asym"],
              0, doc=fname, out=f"{gname}.delta.json")
        w.job(f"{gname}/validate-delta", "validate", [w.path(f"{gname}.delta.json")], 0,
              doc=fname)
    # the odd basis vector squares to the unit, so the product is not
    # epsilon-commutative; one small job per remaining layer
    w.job(f"z2^4.c{w.choice}/validate-commutative-json", "validate",
          ["--commutative", "--json", w.path("z2^4.json")], 1, doc="z2^4.json")
    w.job("z2^4/check-centroid", "check_operator",
          [w.path("z2^4.json"), "--name", "two", "--kind", "centroid"], 0, doc="z2^4.json")
    w.job("z2^4/search-centroid", "search", [w.path("z2^4.json"), "centroid", "-", "1,2"], 0)


def _operators_twists(w):
    """Operators of every kind, scalar and not, on E3 (dim 3), K[Z_2] (x) E3
    (dim 6) and a dim-4 truncated-polynomial algebra; every twist, a tensor
    product and a brute-force diagonal search."""
    half = F(1, 2)
    E3 = three_dim(2, True)
    E3.operators = {"R": scalar(3, -1),
                    "f": [[F(1), F(1), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]}
    E3.multipliers = {"one": ONE_Z2}
    # K[Z_2] (x) E3 with left multiplications by z in K[Z_2], tensored with id:
    # L_z is central, so it is a centroid element, averaging and Nijenhuis for
    # every z, and Rota-Baxter of weight lam for z = -lam * (idempotent u).
    T6 = tensor(group_algebra((2,), "KZ2"), E3)
    id3 = identity(3)
    T6.operators = {
        "Lx1": kron(left_mult((2,), (0, 1)), id3),
        "Lz": kron(left_mult((2,), (1, 2)), id3),
        "Ru": kron(left_mult((2,), (-half, -half)), id3),   # -1 * u, u = (x0 + x1)/2
    }
    # K[x, y]/(x^2, y^2) in degree 0 with the square-zero derivation d: x -> y;
    # d is averaging, Rota-Baxter of weight 0 and Nijenhuis, not centroid;
    # searched over diagonal maps with entries in {0, 1, 2} (3^4 = 81 maps)
    D4 = _truncated_polynomials()
    w.add_doc("e3.json", E3)
    w.add_doc("t6.json", T6)
    w.add_doc("d4.json", D4)
    w.add_doc("kz2.json", group_algebra((2,), "KZ2"))

    w.job("e3/validate-json", "validate", ["--json", w.path("e3.json")], 0, doc="e3.json")
    w.job("t6/validate", "validate", [w.path("t6.json")], 0, doc="t6.json")

    def check(key, doc, name, kind, expect, *extra):
        w.job(f"{key}/check-{kind}", "check_operator",
              [w.path(doc), "--name", name, "--kind", kind, *extra], expect, doc=doc)

    check("e3-R", "e3.json", "R", "rota-baxter", 0, "--weight", "1")
    check("e3-R-wrong", "e3.json", "R", "rota-baxter", 1, "--weight", "2")
    check("t6-Lz", "t6.json", "Lz", "centroid", 0)
    check("t6-Lx1", "t6.json", "Lx1", "nijenhuis", 0)
    check("t6-Ru", "t6.json", "Ru", "rota-baxter", 0, "--weight", "1")
    check("d4-d", "d4.json", "d", "averaging", 0, "--power", "1")
    check("d4-d", "d4.json", "d", "centroid", 1)

    def twist(key, doc, construction, expect, *extra):
        w.job(f"{key}/twist-{construction}", "twist",
              [w.path(doc), "--construction", construction, *extra], expect, doc=doc,
              out=f"{key}.{construction}.json")

    twist("e3-R", "e3.json", "rota-baxter", 0, "--operator", "R", "--weight", "1")
    twist("t6-Ru", "t6.json", "rota-baxter", 0, "--operator", "Ru", "--weight", "1")
    twist("t6-Ru-wrong", "t6.json", "rota-baxter", 1, "--operator", "Ru", "--weight", "1/2")
    twist("t6-Lx1", "t6.json", "nijenhuis", 0, "--operator", "Lx1")
    twist("t6-Lz", "t6.json", "averaging-pair", 0, "--operator", "Lz")
    twist("t6-Lx1", "t6.json", "averaging-power", 0, "--operator", "Lx1", "--power", "0")
    twist("d4-two", "d4.json", "averaging-power", 0, "--operator", "two", "--power", "1")
    twist("e3-f", "e3.json", "transport", 0, "--operator", "f")
    twist("t6-Lz", "t6.json", "centroid", 0, "--operator", "Lz")
    # xi = 1 + x is homogeneous of degree 0; its coordinates follow the basis
    xi = [F(1), F(1), F(0), F(0)]
    scale = w.docs["d4.json"][1]
    twist("d4-xi", "d4.json", "xi", 0,
          "--xi=" + ",".join(_q(c / s) for c, s in zip(xi, scale)))
    sa, sp = w.docs["kz2.json"][1], w.docs["e3.json"][1]
    w.job("tensor6", "tensor", [w.path("kz2.json"), w.path("e3.json")], 0,
          out="tensor6.json", scale=[a * p for a in sa for p in sp])
    for kind, weight in (("rota-baxter", "0"), ("nijenhuis", "-")):
        w.job(f"d4/search-{kind}", "search", [w.path("d4.json"), kind, weight, "0,1,2"], 0)


def _truncated_polynomials():
    prod = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3,
            (1, 0): 1, (2, 0): 2, (3, 0): 3, (1, 2): 3, (2, 1): 3}
    mu = {(i, j, k): F(1) for (i, j), k in prod.items()}
    d = [[F(0)] * 4 for _ in range(4)]
    d[2][1] = F(1)
    A = Alg(Z2, [(0,)] * 4, [[0]], mu, {}, identity(4),
            operators={"d": d, "two": scalar(4, 2)}, name="K[x,y]/(x^2,y^2)")
    return A


def _fixture_corpus(w):
    """Every committed fixture through every subcommand the CLI tests use;
    the seed is ignored."""
    fx = lambda name: f"fixtures/{name}.json"  # noqa: E731
    fixtures = ("comm2", "diff4", "example3_as_printed", "example3_corrected",
                "group_algebra_z2", "group_algebra_z2sq", "ksqrt2", "rb2dim",
                "rb2dim_poisson", "unital_line")
    for name in fixtures:
        w.job(f"{name}/validate", "validate", [fx(name)], int(name == "example3_as_printed"))
    w.job("group_algebra_z2/validate-commutative", "validate",
          ["--commutative", fx("group_algebra_z2")], 0)
    w.job("example3_corrected/validate-commutative", "validate",
          ["--commutative", fx("example3_corrected")], 1)
    w.job("rb2dim/validate-json", "validate", ["--json", fx("rb2dim")], 0)
    w.job("example3_as_printed/report", "report", [fx("example3_as_printed")], 1,
          expect_file="fixtures/reports/example3_as_printed.validate.txt")
    for args, expect in (
        (["rb2dim", "--name", "R", "--kind", "rota-baxter", "--weight", "1/2"], 0),
        (["rb2dim", "--name", "R", "--kind", "rota-baxter", "--weight", "2"], 1),
        (["rb2dim", "--name", "N10", "--kind", "nijenhuis", "--product", "mu"], 1),
        (["diff4", "--name", "d", "--kind", "averaging", "--power", "1"], 0),
        (["rb2dim", "--name", "nope", "--kind", "centroid"], 2),
    ):
        w.job(f"{args[0]}/check-{args[2]}-{args[4]}-{'-'.join(args[5:])}", "check_operator",
              [fx(args[0])] + args[1:], expect)
    for key, src, args, expect in (
        ("rb", "rb2dim_poisson", ["rota-baxter", "--operator", "R", "--weight", "1/2"], 0),
        ("nij", "rb2dim_poisson", ["nijenhuis", "--operator", "Id"], 0),
        ("cen", "example3_corrected", ["centroid", "--operator", "beta2"], 0),
        ("gate", "example3_as_printed", ["centroid", "--operator", "Id"], 1),
        ("untw", "group_algebra_z2", ["averaging-untwisted", "--operator", "proj"], 1),
        ("delta", "group_algebra_z2sq", ["multiplier-delta", "--multiplier", "sigma_asym"], 0),
        ("xi", "group_algebra_z2", ["xi", "--xi", "2,0"], 0),
        ("usage", "rb2dim_poisson", ["rota-baxter", "--operator", "R"], 2),
    ):
        out = None if expect == 2 else f"fx-{key}.json"
        w.job(f"{src}/twist-{key}", "twist", [fx(src), "--construction"] + args, expect, out=out)
        if expect == 0:
            w.job(f"{src}/twist-{key}/validate", "validate", [w.path(out)], 0)
    w.job("comm2/tensor", "tensor", [fx("comm2"), fx("example3_corrected")], 0,
          out="fx-tensor.json")
    w.job("comm2/tensor/validate", "validate", [w.path("fx-tensor.json")], 0)
    w.job("unital_line/tensor-incompatible", "tensor",
          [fx("unital_line"), fx("group_algebra_z2")], 2)
    w.job("rb2dim/search-rota-baxter", "search", [fx("rb2dim"), "rota-baxter", "1", "0,1,-1"], 0)


# ---------------------------------------------------------------------------
# output normalization

_RECORD = re.compile(r"\(([0-9, ]+)\): lhs=\(([^()]*)\), rhs=\(([^()]*)\)")


def _unscale_vector(text, idx, scale):
    values = [F(v) for v in text.split(", ") if v]
    if len(values) != len(scale):
        return text
    weight = F(1)
    for i in idx:
        weight *= scale[i]
    return ", ".join(_q(v * scale[k] / weight) for k, v in enumerate(values))


def _unscale_json_vector(values, idx, scale):
    return _unscale_vector(", ".join(values), idx, scale).split(", ")


def normalize_text(text, scale):
    """Map every located residual in a report back to the d = 1 basis: a
    residual at basis tuple idx is multilinear, so its l-th coordinate
    picks up (prod_i d_i) / d_l under the change of basis.  Handles the
    text reports and the --json payload."""
    identity = scale is None or all(s == 1 for s in scale)
    if text.startswith("{"):
        payload = json.loads(text)
        for report in [] if identity else payload["reports"]:
            for v in report["violations"]:
                idx = v["indices"]
                if all(isinstance(i, int) and i < len(scale) for i in idx):
                    v["lhs"] = _unscale_json_vector(v["lhs"], idx, scale)
                    v["rhs"] = _unscale_json_vector(v["rhs"], idx, scale)
        return json.dumps(payload, sort_keys=True)
    if identity:
        return text

    def fix(m):
        idx = [int(t) for t in m.group(1).replace(" ", "").split(",") if t]
        if any(i >= len(scale) for i in idx):
            return m.group(0)
        lhs = _unscale_vector(m.group(2), idx, scale)
        rhs = _unscale_vector(m.group(3), idx, scale)
        return f"({m.group(1)}): lhs=({lhs}), rhs=({rhs})"

    return _RECORD.sub(fix, text)


def normalize_document(text, scale):
    """An output document rewritten in the d = 1 basis, canonically dumped."""
    raw = json.loads(text)
    if scale is not None and not all(s == 1 for s in scale):
        for key in ("mu", "bracket"):
            for entry in raw.get(key, []):
                i, j, k, c = entry
                entry[3] = _q(F(c) * scale[k] / (scale[i] * scale[j]))
        alpha = raw["alpha"]
        for i, row in enumerate(alpha):
            alpha[i] = [_q(F(x) * scale[i] / scale[j]) for j, x in enumerate(row)]
    return json.dumps(raw, sort_keys=True)
