"""End-to-end and per-layer benchmark of cuspdiff, standard library only.

    python3 bench/run.py --workload ring|gwa|modules --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from the src/ directory next to
this one.  One client runs jobs in a closed loop in this process: no threads,
and each job starts only when the previous one has ended.  Jobs come in
rounds of fixed composition (see jobs.py); round 0 warms the caches and the
interpreter, and timed rounds follow until --seconds have passed.  Every
job's output is checked.  Times are scaled to a nominal interpreter speed
(see refspeed.py); the metadata keeps the job times as measured.

--trace 0 reports the end-to-end metrics.  --trace 1 runs round 0 twice
without wrappers and twice with them, reports the per-layer metrics of the
first traced pass, fails the run when any count differs between the two
traced passes, and writes the spans to .bench_out/.  The last line of
standard output is the result: {"correct", "attempted", "failed", "metrics"};
the line before it carries the run's metadata, including the output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# (name, unit) of the end-to-end metrics; directions and bounds live in
# BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("cli_process_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]

PROCESS_PAUSES = 7      # pauses in the timed loop for whole-process measurements
SETUP_PER_PAUSE = 2     # fresh interpreters timed per pause, for setup_s
MIN_TIMED_ROUNDS = 4    # rounds at least, however short --seconds is
CHILD_TIMEOUT_S = 60


def import_library():
    """Import cuspdiff from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "cuspdiff", "__init__.py")):
        sys.stderr.write("bench: no cuspdiff sources under %s\n" % SRC)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import cuspdiff.cli
    if not os.path.abspath(cuspdiff.__file__).startswith(SRC + os.sep):
        sys.stderr.write("bench: cuspdiff imported from %s, not %s\n" % (cuspdiff.__file__, SRC))
        raise SystemExit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# -- running jobs ------------------------------------------------------------

class Tally:
    """Attempts, failures and canonical result texts of the jobs run so far."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.texts = []

    def fail(self, message):
        self.failures.append(message)


def run_jobs(jobs, tally, speed=None, tracer=None, before_job=None):
    """Run each job, timing only job.run().

    Returns the per-job latencies as measured and, when a SpeedScale is
    given, at the nominal speed (else the same list twice).
    """
    raw, latencies = [], []
    for k, job in enumerate(jobs):
        if before_job is not None:
            before_job()
        factor = speed.current() if speed is not None else 1.0
        if tracer is not None:
            tracer.job = k
            tracer.enabled = True
        error = None
        start = perf_counter()
        try:
            result = job.run()
        except job.expect as exc:
            result = exc
        except Exception as exc:
            error = exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        raw.append(elapsed)
        latencies.append(speed.nominal(elapsed, factor) if speed is not None else elapsed)
        tally.attempted += 1
        if error is not None:
            tally.fail("%s raised %s: %s" % (job.kind, type(error).__name__, error))
            tally.texts.append("%s FAILED" % job.kind)
            continue
        try:
            tally.texts.append(job.check(result))
        except Exception as exc:
            tally.fail("%s: %s: %s" % (job.kind, type(exc).__name__, exc))
            tally.texts.append("%s FAILED" % job.kind)
    return raw, latencies


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- end-to-end measurements -------------------------------------------------

def timed_process(argv, **kwargs):
    """Run a child process; returns (completed process, wall seconds)."""
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, timeout=CHILD_TIMEOUT_S, **kwargs)
    return proc, perf_counter() - start


class ProcessTimes:
    """setup_s and cli_process_ms samples, taken in pauses spread over the loop.

    The machine's speed drifts over seconds, so samples taken in one burst
    would all see one phase.  Each pause times SETUP_PER_PAUSE fresh
    interpreters that import the library and build round 0, then runs every
    CLI command of the workload once and checks its exit code and JSON.  A
    pause's samples are scaled to the nominal speed by the median of the
    kernel factors taken before each of its processes and after the last.
    """

    def __init__(self, workload, seed, seconds, speed, tally):
        import jobs
        self.jobs = jobs
        self.commands = jobs.CLI_COMMANDS[workload]
        self.probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                      "--workload", workload, "--seed", str(seed)]
        self.due = [seconds * k / PROCESS_PAUSES for k in range(PROCESS_PAUSES)]
        self.speed = speed
        self.tally = tally
        self.setup = []
        self.cli = [[] for _ in self.commands]
        self.spent = 0.0

    def poll(self, progress):
        """Take every pause that is due at this much loop progress."""
        while self.due and progress >= self.due[0]:
            self.due.pop(0)
            start = perf_counter()
            self._pause()
            self.spent += perf_counter() - start

    def _pause(self):
        factors, setup, cli = [], [], []
        for _ in range(SETUP_PER_PAUSE):
            factors.append(self.speed.refresh())
            proc, elapsed = timed_process(self.probe, stdout=subprocess.DEVNULL,
                                          stderr=subprocess.PIPE)
            if proc.returncode != 0:
                raise RuntimeError("setup probe failed: %s" % proc.stderr.decode()[-500:])
            setup.append(elapsed)
        for argv, code, predicate in self.commands:
            factors.append(self.speed.refresh())
            proc, elapsed = timed_process([sys.executable, "-m", "cuspdiff"] + argv,
                                          env=child_env(), capture_output=True, text=True)
            cli.append(elapsed)
            self.tally.attempted += 1
            try:
                self.jobs.check_cli_output(argv, proc.returncode, proc.stdout, code, predicate)
            except Exception as exc:
                self.tally.fail("cli process %r: %s" % (argv, exc))
        factors.append(self.speed.refresh())
        factor = statistics.median(factors)
        self.setup += [t * factor for t in setup]
        for samples, t in zip(self.cli, cli):
            samples.append(t * factor)

    def setup_s(self):
        return statistics.median(self.setup)

    def cli_ms(self):
        """Mean over the commands of each one's median process time."""
        return statistics.fmean(statistics.median(xs) for xs in self.cli) * 1e3


def timed_loop(workload, seed, seconds, tally, speed):
    """Round 0 warms up; timed rounds follow until `seconds` of loop time.

    Loop time leaves out the process pauses, so they do not shorten it.
    """
    import jobs
    run_jobs(jobs.build_round(workload, seed, 0), tally, speed)
    round0 = list(tally.texts)
    procs = ProcessTimes(workload, seed, seconds, speed, tally)
    start = perf_counter()

    def progress():
        return perf_counter() - start - procs.spent

    raw, latencies, rates, kinds = [], [], [], {}
    index = 1
    while index <= MIN_TIMED_ROUNDS or progress() < seconds:
        batch = jobs.build_round(workload, seed, index)
        measured, lat = run_jobs(batch, tally, speed,
                                 before_job=lambda: procs.poll(progress()))
        raw += measured
        latencies += lat
        rates.append(len(lat) / sum(lat))
        for job in batch:
            kinds[job.kind] = kinds.get(job.kind, 0) + 1
        index += 1
    procs.poll(float("inf"))
    return round0, procs, raw, latencies, rates, kinds, progress()


def end_to_end(workload, seed, seconds):
    from refspeed import SpeedScale
    tally = Tally()
    speed = SpeedScale()
    round0, procs, raw, latencies, rates, kinds, loop_s = timed_loop(
        workload, seed, seconds, tally, speed)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": procs.setup_s(),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "cli_process_ms": procs.cli_ms(),
        "peak_rss_mib": peak_kib / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    meta = {
        "digest": digest(round0), "digest_jobs": len(round0),
        "timed_rounds": len(rates), "loop_s": loop_s,
        "latency_samples": len(latencies), "jobs_by_kind": kinds,
        "round_rates": rates, "setup_samples_s": procs.setup,
        "cli_samples_s": procs.cli,
        "as_measured": {"jobs_per_s": len(raw) / sum(raw),
                        "job_p50_ms": statistics.median(raw) * 1e3,
                        "job_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3},
        "speed_factor": {"median": statistics.median(speed.history),
                         "min": min(speed.history), "max": max(speed.history),
                         "samples": len(speed.history)},
    }
    return tally, metrics, meta


# -- traced run ---------------------------------------------------------------

def traced(workload, seed):
    """Round 0 twice untraced, then twice traced; the counts must agree exactly."""
    import jobs
    import spans
    from cuspdiff import cuspops
    tally = Tally()
    # the first untraced pass warms the interpreter; the second is the baseline
    for _ in range(2):
        cuspops.phi.cache_clear()
        untraced_s = sum(run_jobs(jobs.build_round(workload, seed, 0), tally)[0])
    round0 = tally.texts[:len(tally.texts) // 2]
    passes = []
    for _ in range(2):
        batch = jobs.build_round(workload, seed, 0)
        cuspops.phi.cache_clear()
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            hits0, misses0 = spans.phi_cache_counts()
            traced_s = sum(run_jobs(batch, tally, tracer=tracer)[0])
            hits1, misses1 = spans.phi_cache_counts()
        finally:
            spans.uninstall(undo)
        passes.append((tracer, traced_s, hits1 - hits0, misses1 - misses0))
    tracer, traced_s, hits, misses = passes[0]
    first, second = tracer.exact_counts(), passes[1][0].exact_counts()
    for name in sorted(first):
        if first[name] != second[name]:
            tally.fail("count %s differs between traced passes: %d != %d"
                       % (name, first[name], second[name]))
    metrics = tracer.metrics(hits, misses, traced_s / untraced_s)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "spans-%s.tsv.gz" % workload)
    tracer.write(spans_path)
    meta = {
        "digest": digest(round0), "digest_jobs": len(round0),
        "untraced_s": untraced_s, "traced_s": [p[1] for p in passes],
        "spans": len(tracer.span_start), "spans_file": os.path.relpath(spans_path, ROOT),
        "counts": first,
    }
    return tally, metrics, meta


# -- provenance and output ------------------------------------------------------

def git_rev():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cuspdiff")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def expected_metric_names(trace):
    """Metric names BENCHMARK.json declares for this mode, when it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    import jobs
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import, build round 0 and exit")
    args = parser.parse_args(argv)
    if args.setup_probe:
        jobs.build_round(args.workload, args.seed, 0)
        sys.stdout.flush()
        os._exit(0)

    if args.trace:
        tally, metrics, meta = traced(args.workload, args.seed)
    else:
        tally, metrics, meta = end_to_end(args.workload, args.seed, args.seconds)
    expected = expected_metric_names(args.trace)
    if expected is not None and expected != set(metrics):
        sys.stderr.write("bench: metrics %s disagree with BENCHMARK.json\n"
                         % sorted(expected ^ set(metrics)))
        return 2
    failed = len(tally.failures)
    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_frac": failed / tally.attempted,
        "failures": tally.failures[:10],
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "git_rev": git_rev(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
    })
    for message in tally.failures[:10]:
        sys.stderr.write("bench: FAILED %s\n" % message)
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import_library()
    sys.exit(main())
