"""Benchmark of the hyperqudit package: one workload, one closed-loop client.

    python3 bench/run.py --workload {build,verify,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's round of jobs is repeated, each job starting
when the previous one has been checked, until ``--seconds`` of wall
time have passed; only whole rounds are measured, so every run does
the same mix of jobs.  Each round starts from its own set-up: a fresh
import of the package, input generation from the seed and cache
warm-up.  ``setup_s`` is the median over the run's set-ups, which are
spread across the run like the rounds.  Times are scaled to a fixed
reference speed of the machine by ``SpeedGauge``; see ``measure`` for
how latencies are summarized.

With ``--trace 0`` the last line of stdout is the end-to-end result.
With ``--trace 1`` rounds alternate between untraced and traced; the
traced rounds give the per-layer metrics of ``tracer.layer_metrics``
(counts from the first traced round, self times averaged over traced
rounds) and the first traced round's spans are written to
``.bench_out/``.  The line before the result is a report: environment,
error rate, tail percentile and the first failures.
"""

import os
import sys

# Pinned before numpy is imported: the dense checks call matmul, and a
# second BLAS thread would compete with the benchmark on a 2-CPU machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# dense_cap() rereads this on every call; it decides which verify paths run.
os.environ.pop("HGS_DENSE_CAP", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE_DIR = ROOT / "src" / "hyperqudit"
OUT = ROOT / ".bench_out"


def fresh_import():
    """Import the package from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "hyperqudit" or n.startswith("hyperqudit.")]:
        del sys.modules[name]
    hq = importlib.import_module("hyperqudit")
    importlib.import_module("hyperqudit.cli")
    return hq


def run_round(jobs, tracer=None, gauge=None):
    """Run every job once; return (latencies in s, failures, wall time in s).

    A job's latency is the CPU time the benchmark's thread spends in it
    (BLAS is pinned to this thread).  The jobs compute without waiting,
    so on an idle machine this equals their wall time.  Given a running
    ``SpeedGauge``, each latency is scaled to the gauge's reference speed.
    """
    latencies, failures = [], []
    start = perf_counter()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        call = job.run if tracer is None else tracer.wrap("bench.job", job.run)
        mark = gauge.mark() if gauge is not None else None
        t0 = thread_time()
        try:
            result = call()
            problem = None
        except Exception as exc:  # a failed job is counted, never fatal
            problem = f"raised {type(exc).__name__}: {exc}"
        latency = thread_time() - t0
        latencies.append(latency if gauge is None else gauge.scale(latency, mark))
        if problem is None:
            try:
                problem = job.check(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{job.id}: {problem}")
    return latencies, failures, perf_counter() - start


def percentile(values, p):
    """Linear interpolation between the closest ranks (numpy's default method)."""
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class _Unit:
    """A small ring-like value: the calibration kernel's stand-in for a ring element."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Unit(_UNIT_TABLE[self.v, other.v])

    def __add__(self, other):
        return _Unit((self.v + other.v) % 61)


_UNIT_TABLE = {(a, b): (a * b + 1) % 61 for a in range(61) for b in range(61)}


def calibration_kernel() -> int:
    """Fixed pure-Python work of the package's kind: small objects, tuples, dicts, sorting."""
    x, acc = _Unit(3), {}
    for i in range(200):
        key = tuple((i * k) % 13 for k in range(6))
        acc[key] = acc.get(key, 0) + sum(key)
        x = x * _Unit(i % 61) + x
        ordered = sorted(key)
        ordered.append(x.v)
    return len(acc) + x.v


# CPU seconds the kernel takes at the reference speed (its typical fast
# reading on the 2-CPU Xeon VM the benchmark was tuned on).  Scaled
# latencies are CPU times at that speed.
KERNEL_REF_S = 0.45e-3
# CPU time between two readings of the gauge.
GAUGE_INTERVAL_S = 0.005


class SpeedGauge:
    """The machine's slowdown against the reference speed, sampled while jobs run.

    On a shared virtual machine the same code runs up to 2x slower for
    milliseconds to minutes at a time.  While the gauge runs, a CPU-time
    interval timer interrupts the process every ``GAUGE_INTERVAL_S`` and
    times the calibration kernel; its time over ``KERNEL_REF_S`` is one
    reading.  A span of work is scaled by the mean of the readings taken
    during it and the last one before it, after taking out the time the
    readings themselves took.  CPU times come from ``thread_time``: with
    a process-wide CPU timer armed, Linux may update the process clock
    only at scheduler ticks.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.kernel_s = 0.0
        self._reading = False
        self._read()

    def _read(self, signum=None, frame=None):
        if self._reading:  # the timer fired again inside a very slow reading
            return
        self._reading = True
        t0 = thread_time()
        calibration_kernel()
        elapsed = thread_time() - t0
        self.readings.append(elapsed / KERNEL_REF_S)
        self.kernel_s += elapsed
        self._reading = False

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._read)
        signal.setitimer(signal.ITIMER_PROF, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.readings), self.kernel_s

    def scale(self, seconds: float, mark: tuple[int, float]) -> float:
        """``seconds`` of work since ``mark``, less the readings' own time, at reference speed."""
        n, kernel_s = mark
        slowdown = statistics.fmean(self.readings[n - 1:])
        return (seconds - (self.kernel_s - kernel_s)) / slowdown


def measure(set_up, seconds, tail_percentile):
    """End-to-end metrics from each job's median scaled latency across the run's rounds.

    Every round starts from a fresh set-up and runs every job once,
    until ``seconds`` of wall time have passed; only whole rounds count.
    Latencies and set-up times are scaled to the gauge's reference
    speed.  A job's latency is the median of its scaled executions;
    throughput is a round's passed jobs over the sum of those latencies,
    and p50 and the tail are taken across the round's jobs.
    """
    rounds, failures, walls, setups = [], [], [], []
    start = perf_counter()
    with SpeedGauge() as gauge:
        while perf_counter() - start < seconds or not rounds:
            gc.collect()  # free earlier rounds' modules, so memory does not grow with rounds
            mark = gauge.mark()
            jobs, setup_wall = set_up()
            setups.append(gauge.scale(setup_wall, mark))
            lat, fail, wall = run_round(jobs, gauge=gauge)
            rounds.append(lat)
            failures += fail
            walls.append(wall)
    typical = [statistics.median(r[j] for r in rounds) for j in range(len(jobs))]
    attempted = len(jobs) * len(rounds)
    tail = percentile(typical, tail_percentile)
    metrics = {
        "jobs_per_s": (len(jobs) * (1 - len(failures) / attempted) / sum(typical), "1/s"),
        "job_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    report = {
        "rounds": len(rounds), "jobs_per_round": len(jobs), "round_walls_s": walls,
        "wall_jobs_per_s": (attempted - len(failures)) / sum(walls),
        "job_tail": {"percentile": tail_percentile, "jobs": len(jobs),
                     "jobs_beyond": sum(t > tail for t in typical)},
        "slowdown": {"readings": len(gauge.readings),
                     "min": min(gauge.readings), "median": statistics.median(gauge.readings),
                     "max": max(gauge.readings)},
    }
    return metrics, failures, attempted, report


def measure_traced(set_up, seconds):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    untraced = traced = 0.0
    round_counts: list[Counter] = []
    failures: list[str] = []
    attempted = 0
    while untraced + traced < seconds or not round_counts:
        gc.collect()
        lat, fail, wall = run_round(set_up()[0])
        untraced += wall
        gc.collect()
        jobs = set_up()[0]
        before = Counter(tracer.counts)
        tracer.install()
        try:
            lat2, fail2, wall2 = run_round(jobs, tracer)
        finally:
            tracer.uninstall()
        traced += wall2
        tracer.keep_spans = False  # the first traced round's spans are written out
        round_counts.append(tracer.counts - before)
        failures += fail + fail2
        attempted += len(lat) + len(lat2)
    rounds = len(round_counts)
    self_s = {k: v / rounds for k, v in tracer.self_s.items()}
    layers = layer_metrics(round_counts[0], self_s)
    layers["trace_overhead_ratio"] = (traced / untraced, "ratio")
    report = {
        "traced_rounds": rounds, "jobs_per_round": len(jobs),
        "counts_repeat": all(c == round_counts[0] for c in round_counts),
        "computed": ["hyperstate.configs_walked", "states.dense_bytes"],
        "spans": len(tracer.spans),
        "bench_job_self_s": self_s.get("bench.job", 0.0),
    }
    return layers, failures, attempted, report, tracer


def environment() -> dict:
    head, sha = ROOT / ".git" / "HEAD", "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "HGS_DENSE_CAP": os.environ.get("HGS_DENSE_CAP"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["build", "verify", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    digests = workloads.load_digests()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    setup_runs = []

    def set_up():
        start = perf_counter()
        hq = fresh_import()
        jobs = workloads.WORKLOADS[args.workload](hq, args.seed, ROOT, workdir, digests)
        setup_runs.append(perf_counter() - start)
        return jobs, setup_runs[-1]

    try:
        if args.trace:
            metrics, failures, attempted, report, tracer = measure_traced(set_up, args.seconds)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            metrics, failures, attempted, report = measure(
                set_up, args.seconds, workloads.TAIL_PERCENTILE[args.workload])
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_runs_s": setup_runs,
        "error_rate": {"value": len(failures) / attempted, "unit": "ratio"},
        "failures": failures[:10],
        "environment": environment(),
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
