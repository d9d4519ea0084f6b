"""Benchmark of the colorhomlie engine: end-to-end timings and per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cohomology_ladder --seed 0 --seconds 20 --trace 0

One process, one thread.  The run imports ``colorhomlie`` from ``src/`` of
the checkout, measures set-up (import plus building every input) several
times, then runs whole passes over the workload's job list until
``--seconds`` have passed (at least one pass; each pass rebuilds its inputs
untimed, so no pass reuses another's objects).  Every job's result is
checked after its pass.  Untraced times are reported in nominal seconds,
corrected for the host's speed by ``speed.Speedometer``.  With
``--trace 1`` the same number of seconds is spent untraced and then traced,
and the per-layer metrics are printed instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record-reference`` rewrites
this workload's entries in ``reference.json`` from one pass at seed 0.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import namedtuple
from time import perf_counter

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPS = 7


def purge_package():
    for name in [n for n in sys.modules
                 if n == tracing.PACKAGE or n.startswith(tracing.PACKAGE + ".")]:
        del sys.modules[name]


# One timed interval: seconds net of calibration work, and its window.
Sample = namedtuple("Sample", "raw start end")


def clocked(sm, fn):
    """Run ``fn()``; returns (result, traceback text or None, Sample)."""
    spent = sm.spent if sm is not None else 0.0
    start = perf_counter()
    try:
        result, error = fn(), None
    except Exception:  # a job that raises is a failed job, not a crash
        result, error = None, traceback.format_exc()
    end = perf_counter()
    handler = sm.spent - spent if sm is not None else 0.0
    return result, error, Sample(end - start - handler, start, end)


def measure_setup(workload: str, seed: int, workdir: str, sm) -> list:
    """Import ``colorhomlie`` afresh and build every input, ``SETUP_REPS`` times."""
    samples = []
    for _ in range(SETUP_REPS):
        purge_package()
        _, error, sample = clocked(sm, lambda: (
            workloads.lib(), workloads.build_inputs(workload, seed, workdir)))
        if error is not None:
            raise RuntimeError(f"set-up failed:\n{error}")
        samples.append(sample)
    return samples


class PassResult:
    def __init__(self, jobs):
        self.jobs = [(job.id, job.layer, job.params) for job in jobs]
        self.times = {}       # job id -> Sample
        self.failures = {}    # job id -> problems
        self.stdout_bytes = 0
        self.records = {}     # job id -> reference entry, when recording

    @property
    def raw_wall(self):
        return sum(s.raw for s in self.times.values())


def run_pass(workload, seed, workdir, reference, sm=None, tracer=None, record=False):
    """One pass over the job list: jobs timed back to back, then checked."""
    ctx = workloads.build_inputs(workload, seed, workdir)
    ctx["results"] = {}
    jobs = workloads.build_jobs(workload, ctx)
    out = PassResult(jobs)
    outcomes = []
    gc.collect()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
            tracer.on = True
        result, error, sample = clocked(sm, lambda: job.run(ctx))
        if tracer is not None:
            tracer.on = False
        out.times[job.id] = sample
        ctx["results"][job.id] = result
        outcomes.append((job, result, error))
    for job, result, error in outcomes:
        if error is not None:
            out.failures[job.id] = [error]
            continue
        if job.seed_independent:
            out.stdout_bytes += len(result[1].encode("utf-8"))
        if record:
            out.records[job.id] = {"invariant": job.invariant(result),
                                   "report": job.report(result)}
        problems = workloads.check_job(job, ctx, result, seed,
                                       out.records if record else reference)
        if problems:
            out.failures[job.id] = problems
    return out


def run_for(seconds, *args, **kwargs) -> list:
    """Whole passes until ``seconds`` have passed; at least one."""
    deadline = perf_counter() + seconds
    passes = []
    while True:
        passes.append(run_pass(*args, **kwargs))
        if perf_counter() >= deadline:
            return passes


def tail_percentile(samples):
    """(p, value) for the highest of p99/p95/p90/p50 with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90, 50):
        rank = -(-p * n // 100)  # nearest-rank percentile
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def describe(name, samples):
    """Median, the highest percentile with ten samples beyond it, and n."""
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "no percentile with 10 beyond"
    return (f"{name:<14} median {statistics.median(samples):.4f} s, {tail_text}, "
            f"n={len(samples)};")


def job_table(passes, seconds):
    """Per job: layer, parameters and median seconds (``seconds`` maps a Sample)."""
    rows = []
    for job_id, layer, params in passes[0].jobs:
        times = [seconds(p.times[job_id]) for p in passes]
        rows.append({"job": job_id, "layer": layer, "params": params,
                     "median_s": statistics.median(times), "n": len(times)})
    return rows


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite this workload's reference entries (seed 0)")
    parser.add_argument("--report", default=None,
                        help="also write the per-job table and environment as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "colorhomlie", "__init__.py")):
        print(f"error: no colorhomlie sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, src)
    if args.record_reference:
        args.seed = workloads.DEFAULT_SEED
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        return _run(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _record(args, workdir) -> int:
    passed = run_pass(args.workload, args.seed, workdir, {}, record=True)
    if passed.failures:
        for job_id, problems in passed.failures.items():
            print(f"FAILED {job_id}: {problems}", file=sys.stderr)
        return 1
    reference = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    reference.update(passed.records)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(passed.records)} jobs of {args.workload}")
    return 0


def _run(args, src, workdir) -> int:
    with speed.Speedometer() as sm:
        setup = measure_setup(args.workload, args.seed, workdir, sm)
        package = sys.modules[tracing.PACKAGE]
        if not os.path.abspath(package.__file__).startswith(src + os.sep):
            print(f"error: colorhomlie imported from {package.__file__}", file=sys.stderr)
            return 2
        if args.record_reference:
            return _record(args, workdir)
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        plain = run_for(args.seconds, args.workload, args.seed, workdir, reference, sm=sm)
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_for(args.seconds, args.workload, args.seed, workdir, reference,
                             tracer=tracer)
        finally:
            tracer.uninstall()

    everything = plain + traced
    attempted = sum(len(p.times) for p in everything)
    failed = sum(len(p.failures) for p in everything)
    for i, p in enumerate(everything):
        for job_id, problems in p.failures.items():
            print(f"FAILED pass {i} {job_id}: {' | '.join(problems)}", file=sys.stderr)

    def nominal(sample):
        return sm.nominal(sample.raw, sample.start, sample.end)

    walls = [sum(nominal(s) for s in p.times.values()) for p in plain]
    table = job_table(plain, nominal)
    slowest = max(table, key=lambda row: row["median_s"])
    setup_s = [nominal(s) for s in setup]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(table)} jobs; failed {failed}/{attempted}")
    print(f"times in nominal seconds (raw seconds x {speed.NOMINAL_S * 1e3:.2f} ms / "
          f"calibration kernel time, median "
          f"{statistics.median(d for _, d in sm.samples) * 1e3:.3f} ms)")
    print(describe("wall_s", walls) + describe(" raw", [p.raw_wall for p in plain]))
    print(describe("slowest_job_s", [nominal(p.times[slowest["job"]]) for p in plain])
          + f" ({slowest['job']})")
    print(describe("setup_s", setup_s) + describe(" raw", [s.raw for s in setup]))
    for row in table:
        print(f"  {row['median_s']:10.4f} s n={row['n']:<3} {row['job']:<32} "
              f"{row['layer']:<17} {row['params']}")

    if args.trace:
        metrics = tracing.layer_metrics(
            tracer, len(traced), int(sum(p.raw_wall for p in traced) * 1e9),
            statistics.median([p.raw_wall for p in plain]),
            sum(p.stdout_bytes for p in traced))
    else:
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "slowest_job_s": (slowest["median_s"], "s"),
                   "setup_s": (statistics.median(setup_s), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
    if args.report:
        doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "commit": git_commit(), "python": platform.python_version(),
               "nproc": os.cpu_count(), "machine": platform.machine(),
               "passes": len(plain), "wall_s": walls,
               "raw_wall_s": [p.raw_wall for p in plain], "setup_s": setup_s,
               "metrics": {k: v for k, (v, _) in metrics.items()}, "jobs": table}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
