#!/usr/bin/env python3
"""The algcheck benchmark: CLI time-to-verdict on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record        # rewrite perfbench/digests.json

Each job is one `algcheck` CLI invocation, or one library search, in a
fresh interpreter, so start-up and import count as users pay them and no
state carries over between jobs.  Load is a closed loop with one client:
this process starts one job and waits for it before the next.  A pass
runs the workload's job list in order; the run starts another pass while
the time used plus half a pass is within S seconds, and takes, for each
job, the median over its passes, so a metric is the time of a typical
pass.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and prints the per-layer metrics.  Every job's exit code and
output digest are checked.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent

ENTRY = "from algcheck.cli import entry; entry()"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5  # at least; one more before each pass
JOB_TIMEOUT = 120.0
KINDS = ("validate", "report", "check_operator", "twist", "tensor", "search")


class Checkout:
    """The tree the benchmark runs in: algcheck's sources under src/, and a
    scratch directory for the generated inputs and outputs."""

    def __init__(self, root):
        self.root = root
        self.work = root / ".bench_work"
        if not (root / "src" / "algcheck" / "__init__.py").is_file():
            raise SystemExit(f"error: no algcheck sources under {root / 'src'}")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        found = subprocess.run(
            [sys.executable, "-c", "import algcheck.cli, algcheck; print(algcheck.__file__)"],
            cwd=root, env=self.env, capture_output=True, text=True, timeout=60,
        )
        location = Path(found.stdout.strip() or "?").resolve()
        if found.returncode != 0 or root / "src" not in location.parents:
            raise SystemExit(f"error: algcheck does not import from {root / 'src'}: "
                             f"{found.stderr.strip() or location}")

    def workdir(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def set_up(self, name, seed, workdir):
        """Generate and write the inputs, then import algcheck in a fresh
        interpreter; returns the workload and the seconds it took."""
        t0 = time.perf_counter()
        w = workloads.build(name, seed, workdir.relative_to(self.root).as_posix())
        for fname, (text, _scale) in w.docs.items():
            (workdir / fname).write_text(text, encoding="utf-8")
        subprocess.run([sys.executable, "-c", "import algcheck.cli"], cwd=self.root,
                       env=self.env, check=True, timeout=60)
        return w, time.perf_counter() - t0


class Outcome:
    def __init__(self, wall, cpu, digest, problems, trace):
        self.wall = wall
        self.cpu = cpu
        self.digest = digest
        self.problems = problems
        self.trace = trace


def run_job(co, job, workdir, digests, traced):
    """Run one job and check it; `digests` None skips the digest check."""
    out_path, err_path = workdir / "job.stdout", workdir / "job.stderr"
    spans_path = workdir / "job.spans.json"
    if job.out:
        (co.root / job.out).unlink(missing_ok=True)
    spans_path.unlink(missing_ok=True)
    search = job.kind == "search"
    args = job.argv[1:] if search else job.argv
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.time()
        if traced:
            cmd = [sys.executable, str(HERE / "traced_job.py"), str(spans_path),
                   repr(t_spawn), "search" if search else "cli", *args]
        elif search:
            cmd = [sys.executable, str(HERE / "search_job.py"), *args]
        else:
            cmd = [sys.executable, "-c", ENTRY, *args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=co.root, env=co.env, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=JOB_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    problems = []
    if code != job.expect:
        problems.append(f"exit {code}, expected {job.expect}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback: " + stderr.strip().splitlines()[-1])
    digest = output_digest(co, job, stdout, stderr)
    if digests is not None and digests.get(job.key) != digest:
        problems.append(f"output digest {digest[:12]}, recorded {digests.get(job.key)}")
    if job.expect_file and stdout != (co.root / job.expect_file).read_text(encoding="utf-8"):
        problems.append(f"output differs from {job.expect_file}")
    trace = None
    if traced:
        try:
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"no spans written: {exc}")
    return Outcome(wall, cpu, digest, problems, trace)


def output_digest(co, job, stdout, stderr):
    """sha256 of the job's outputs, mapped back to the d = 1 basis."""
    parts = [workloads.normalize_text(stdout, job.scale), stderr]
    if job.out:
        path = co.root / job.out
        parts.append(workloads.normalize_document(path.read_text(encoding="utf-8"), job.scale)
                     if path.exists() else "<no output document>")
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


def first_of_each_kind(jobs, n):
    kept, count = [], {}
    for job in jobs:
        count[job.kind] = count.get(job.kind, 0) + 1
        if count[job.kind] <= n:
            kept.append(job)
    return kept


def medians(passes, field):
    """Per job, the median of one field over the passes."""
    return [statistics.median(getattr(p[j], field) for p in passes)
            for j in range(len(passes[0]))]


def typical_pass(passes):
    return sum(medians(passes, "wall"))


def measure(co, w, workdir, seconds, digests, traced_too, set_up):
    """Repeat passes while the time used plus half a pass is within
    `seconds`; with `traced_too`, alternate untraced and traced passes, at
    least two of each.  `set_up` runs before each pass, so that its
    timings sample the whole run."""
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        set_up()
        t0 = time.perf_counter()
        plain.append([run_job(co, job, workdir, digests, False) for job in w.jobs])
        if traced_too:
            traced.append([run_job(co, job, workdir, digests, True) for job in w.jobs])
        step = time.perf_counter() - t0
        elapsed = time.perf_counter() - t_start
        if traced_too and len(traced) < 2:
            continue
        if elapsed + step / 2 > seconds:
            return plain, traced


def report_problems(w, passes):
    failed = 0
    for p in passes:
        for job, outcome in zip(w.jobs, p):
            if outcome.problems:
                failed += 1
                print(f"FAILED {job.key}: {'; '.join(outcome.problems)}")
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="run only the first N jobs of each kind (a toy-size run)")
    parser.add_argument("--record", action="store_true",
                        help="re-record the output digests of every workload")
    args = parser.parse_args(argv)
    co = Checkout(Path.cwd())
    if args.record:
        return record(co)
    if args.workload is None:
        parser.error("--workload is required")

    digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload, {})
    workdir = co.workdir(args.workload)
    setups = []

    def set_up():
        w, seconds = co.set_up(args.workload, args.seed, workdir)
        setups.append(seconds)
        return w

    w = set_up()
    if args.jobs is not None:
        w.jobs = first_of_each_kind(w.jobs, args.jobs)
    plain, traced = measure(co, w, workdir, args.seconds, digests, bool(args.trace), set_up)
    while len(setups) < SETUP_REPEATS:
        set_up()
    passes = plain + traced
    attempted = sum(len(p) for p in passes)
    failed = report_problems(w, passes)
    print(f"workload {w.name}, seed {args.seed}: {len(plain)} untraced and {len(traced)} "
          f"traced passes of {len(w.jobs)} jobs; {attempted} attempted, {failed} failed")

    correct = failed == 0
    if args.trace:
        traces = [[o.trace for o in p] for p in traced]
        (workdir / "trace.json").write_text(json.dumps(
            [[{"job": job.key, **(t or {})} for job, t in zip(w.jobs, p)] for p in traces]))
        metrics, problems = layers.summarize(traces)
        correct = correct and not problems
        for problem in problems:
            print(f"TRACE {problem}")
        metrics["trace.overhead_s"] = (typical_pass(traced) - typical_pass(plain), "s")
    else:
        walls, cpus = medians(plain, "wall"), medians(plain, "cpu")
        metrics = {
            "wall_s": (sum(walls), "s"),
            "cpu_s": (sum(cpus), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        }
        for kind in KINDS:
            total = sum(t for job, t in zip(w.jobs, walls) if job.kind == kind)
            print(f"  {kind + '_s':28s} {total:12.4f} s")
        print(f"  {'error_rate':28s} {failed / attempted:12.4f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:12.4f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def record(co):
    """Run every workload on several seeds, check that each job's exit code
    is the known one and that its normalized digest is the same on every
    seed, and write the digests."""
    table = {}
    ok = True
    for name in workloads.WORKLOADS:
        seen = {}
        workdir = co.workdir(name)
        seeds = range(2) if name == "fixture-corpus" else range(6)
        for seed in seeds:
            w, _ = co.set_up(name, seed, workdir)
            for job in w.jobs:
                outcome = run_job(co, job, workdir, None, False)
                if outcome.problems:
                    ok = False
                    print(f"{name} seed {seed} {job.key}: {'; '.join(outcome.problems)}")
                seen.setdefault(job.key, {}).setdefault(outcome.digest, []).append(seed)
        for key, found in seen.items():
            if len(found) > 1:
                ok = False
                print(f"{name} {key}: digest depends on the seed: {found}")
            elif sum(len(s) for s in found.values()) < 2:
                ok = False
                print(f"{name} {key}: seen on one seed only")
        table[name] = {key: next(iter(found)) for key, found in sorted(seen.items())}
        print(f"{name}: {len(seen)} job digests")
    if not ok:
        print("not recording: see above")
        return 1
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
