"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``.

They cover self-time accounting, the correctness checks, and that tracing
changes no result.  The dim-6 jobs are left out to keep the suite fast.
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import ACC, END, NAME, PARENT, START  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module", autouse=True)
def in_root():
    cwd = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(cwd)


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix="perfbench-test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_jobs(workload, seed, workdir, keep=lambda job: ".d6." not in job.id):
    """Run a workload's jobs in order; returns (ctx, [(job, result)])."""
    ctx = workloads.build_inputs(workload, seed, workdir)
    ctx["results"] = {}
    done = []
    for job in workloads.build_jobs(workload, ctx):
        if keep(job):
            ctx["results"][job.id] = job.run(ctx)
            done.append((job, ctx["results"][job.id]))
    return ctx, done


def span(name, start, end, parent, acc=0):
    return [name, start, end, parent, "job", acc, None]


def test_self_time_on_synthetic_span_tree():
    spans = [
        span("cohomology.cohomology_group", 0, 100, -1, acc=10),
        span("cohomology.delta_matrix", 10, 40, 0, acc=5),
        span("linalg.kernel_basis", 50, 90, 0),
        span("linalg.rref", 60, 70, 2, acc=4),
    ]
    assert tracing.span_self_ns(spans) == [100 - 30 - 40 - 10, 30 - 5, 40 - 10, 10 - 4]

    class Fake:
        acc = {(0, "scalars_grading.mul.m2"): [3, 10], (1, "scalars_grading.add.m2"): [2, 5],
               (3, "scalars_grading.mul.m2"): [1, 4]}
    Fake.spans = spans
    layers = tracing.layer_self_ns(Fake)
    assert layers == {"cohomology": 20 + 25, "linalg": 30 + 6, "scalars_grading": 19}
    assert sum(layers.values()) == spans[0][END] - spans[0][START]


def test_layer_self_times_partition_a_traced_job(workdir):
    ctx = workloads.build_inputs("cohomology_ladder", workloads.DEFAULT_SEED, workdir)
    job = next(j for j in workloads.build_jobs("cohomology_ladder", ctx)
               if j.id == "coh.d3.n2.compatible.r0.g10")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.on = True
        job.run(ctx)
    finally:
        tracer.on = False
        tracer.uninstall()
    roots = [s for s in tracer.spans if s[PARENT] < 0]
    assert [s[NAME] for s in roots] == ["cohomology.cohomology_group"]
    total = roots[0][END] - roots[0][START]
    assert sum(tracing.layer_self_ns(tracer).values()) == total
    assert all(s[ACC] >= 0 for s in tracer.spans)
    assert all(own >= 0 for own in tracing.span_self_ns(tracer.spans))


def test_tracing_changes_no_result(workdir):
    plain = {}
    for workload in workloads.WORKLOADS:
        _, done = run_jobs(workload, workloads.DEFAULT_SEED, workdir)
        plain.update({job.id: job.report(res) for job, res in done})
    CycloScalar = workloads.lib().scalars_grading.CycloScalar
    original_mul = CycloScalar.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert CycloScalar.__mul__ is not original_mul
        tracer.on = True
        traced = {}
        for workload in workloads.WORKLOADS:
            _, done = run_jobs(workload, workloads.DEFAULT_SEED, workdir)
            traced.update({job.id: job.report(res) for job, res in done})
        tracer.on = False
    finally:
        tracer.uninstall()
    assert CycloScalar.__mul__ is original_mul
    assert traced == plain
    assert tracer.spans and tracer.acc


def test_reports_match_reference_at_default_seed(workdir, reference):
    for workload in workloads.WORKLOADS:
        ctx, done = run_jobs(workload, workloads.DEFAULT_SEED, workdir)
        for job, res in done:
            assert workloads.check_job(job, ctx, res, workloads.DEFAULT_SEED,
                                       reference) == [], job.id


def test_invariants_hold_at_another_seed(workdir, reference):
    for workload in ("cohomology_ladder", "structure_zeta3"):
        ctx, done = run_jobs(workload, 7, workdir)
        for job, res in done:
            assert workloads.check_job(job, ctx, res, 7, reference) == [], job.id


def _perturbed(res):
    """The result with one coordinate of its first representative moved by 1."""
    vec = list(res.representatives[0])
    k = next(i for i, c in enumerate(vec) if not c.is_zero())
    vec[k] = vec[k] + 1
    res.representatives = [vec] + res.representatives[1:]
    return res


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_one_perturbed_coefficient_is_flagged(workdir, reference, seed):
    keep = lambda job: job.id == "coh.d3.n2.free.r0.g10"  # noqa: E731
    ctx, [(job, res)] = run_jobs("cohomology_ladder", seed, workdir, keep)
    assert workloads.check_job(job, ctx, res, seed, reference) == []
    problems = workloads.check_job(job, ctx, _perturbed(res), seed, reference)
    assert "a reported cocycle has a nonzero coboundary" in problems
    if seed == workloads.DEFAULT_SEED:
        assert "report differs from the recorded reference" in problems


def test_changed_cli_output_is_flagged(workdir, reference):
    keep = lambda job: job.id == "cli.validate.sl2c_z2z2"  # noqa: E731
    ctx, [(job, (code, out))] = run_jobs("cli_examples", 3, workdir, keep)
    assert workloads.check_job(job, ctx, (code, out), 3, reference) == []
    bad = out.replace('"ok": true', '"ok": false', 1)
    assert workloads.check_job(job, ctx, (code, bad), 3, reference) == [
        "report differs from the recorded reference"]


def test_pinned_verdicts_are_recorded_as_they_stand(reference):
    assert reference["cli.hls.qwitt_trunc_q2"]["invariant"] == 1
    assert reference["homjordan.d3.p2"]["invariant"] == {"hcj1": True, "hcj2": False}
    assert reference["lattice.d3.k012"]["invariant"] == {
        "centroid_in_qder": True, "centroid_compose_gder": True,
        "qcentroid_brackets": False}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(1, 21))) == (50, 10)
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)


def test_fails_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "cli_examples", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=tmp, capture_output=True,
                              text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_nominal_seconds_scale_by_nearby_kernel_time():
    sm = speed.Speedometer()
    sm.samples = [(0.0, 0.002), (0.1, 0.002), (0.2, 0.002),
                  (10.0, 0.005), (10.1, 0.005), (10.2, 0.005)]
    assert sm.nominal(1.0, 0.0, 0.2) == 1.0 * speed.NOMINAL_S / 0.002
    assert sm.nominal(1.0, 10.0, 10.2) == 1.0 * speed.NOMINAL_S / 0.005
    # an interval with no sample nearby uses the nearest ones
    assert sm.kernel_seconds(12.0, 12.01) == 0.005


def test_speedometer_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as sm:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert len(sm.samples) >= 2 and sm.spent > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_install_skips_names_that_no_longer_exist(monkeypatch):
    monkeypatch.setitem(tracing.HOT, "cohomology", tracing.HOT["cohomology"] + [
        ("NoSuchClass", "evaluate"), ("CochainSpace", "no_such_method")])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.spans == []
