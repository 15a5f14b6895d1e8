"""Fixed-work, oracle-checked benchmark of the puiseux library.

    python3 bench/run.py --workload {factor,cyclo,divisors,cli} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout.  A run builds one seeded corpus of at
least 100 ops (bench/corpus.py) and times it in a fixed number of passes,
spread over fresh worker processes (bench/worker.py).  Warm workloads set up
once per worker and time several passes in it; cold workloads time one pass
per worker.  The number of workers and passes follows from --seconds and
fixed nominal costs per workload, never from a clock, so every run does the
same work.  Each time is scaled to the speed of the reference machine by a
fixed reference kernel timed next to it on the same CPU (worker.REFERENCE_NS),
because the shared machine's own speed drifts by more than the bounds over a
run.  An op's latency is the mean of its scaled pass times.  After the last
worker, every answer is checked against the oracles (bench/oracles.py) and
the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
untraced pass is matched by a traced one, and the metrics are the
per-layer ones, including the tracing overhead against the untraced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from worker import REFERENCE_NS, SETUP_REFERENCES, WARM, time_reference  # noqa: E402

# Nominal seconds of one worker's set-up (interpreter start, imports, corpus,
# warm-up pass) and of one timed pass, forced collections included, on the
# reference machine.  They turn --seconds into a fixed plan of work.
NOMINAL = {"factor": (3.8, 3.6), "cyclo": (0.15, 3.3), "divisors": (5.2, 4.9), "cli": (0.15, 13.0)}
WARM_WORKERS = 2
MIN_PASSES = 2
# An untraced cold run adds set-up-only workers until it has this many
# set-ups, so that setup_s is a median of several; a warm worker's set-up
# is long enough to stand on two.
COLD_SETUPS = 5
# A run past max(DEADLINE_S, 2.5 x its nominal length) is stopped as hung.
DEADLINE_S = 170.0

# Imported once with bytecode writing on, so every worker and CLI child
# reads the same freshly written cache and set-up time does not depend on
# what earlier runs left behind.
PRIME_IMPORTS = (
    "import gc, json, random, resource, subprocess, fractions, argparse; "
    "import puiseux, puiseux.cli, corpus, algebra, tracer"
)


def plan(workload: str, seconds: int) -> tuple[int, int]:
    """(workers, timed passes per worker) that fill about ``seconds``."""
    setup, one_pass = NOMINAL[workload]
    if workload in WARM:
        passes = round((seconds / WARM_WORKERS - setup) / one_pass)
        return WARM_WORKERS, max(MIN_PASSES, passes)
    return max(MIN_PASSES, round(seconds / (setup + one_pass))), 1


def nominal_seconds(workload: str, seconds: int, trace: bool) -> float:
    """Nominal length of a run; tracing doubles the timed passes."""
    setup, one_pass = NOMINAL[workload]
    workers, passes = plan(workload, seconds)
    return (1 + trace) * workers * (setup + passes * one_pass)


def fail(message: str, code: int = 1):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


class Runner:
    """Starts one child at a time and kills its process group past the deadline."""

    def __init__(self, root: str, env: dict, limit_s: float):
        self.root = root
        self.env = env
        self.limit_s = limit_s
        self.deadline = time.monotonic() + limit_s

    def call(self, cmd: list[str], log: str) -> None:
        """Run cmd to completion; exit with its log if it fails."""
        with open(log, "w") as err:
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                fail(f"{' '.join(cmd[:3])} ran past the {self.limit_s:.0f} s deadline")
        if proc.returncode != 0:
            with open(log) as fh:
                sys.stderr.write(fh.read())
            fail(f"worker exited with {proc.returncode}")


def run_worker(runner: Runner, workload: str, seed: int, index: int, plain: int, traced: int, out_dir: str) -> dict:
    out = os.path.join(out_dir, f"worker{index}-{plain}plain-{traced}traced.json")
    before = [time_reference() for _ in range(SETUP_REFERENCES)]
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), workload, str(seed),
           str(index), repr(t0), str(plain), str(traced), out]
    runner.call(cmd, out + ".log")
    with open(out) as fh:
        report = json.load(fh)
    report["setup_ref_ns"] += before
    report["answers_path"] = out + ".answers"
    return report


def scaled(latencies: list[int], references: list[int]) -> list[float]:
    """One pass's op times in ns at reference speed.  Each op is scaled by the
    median reference time of it and its two neighbours on either side, so a
    blip in one reference timing does not distort its op."""
    return [
        ns * REFERENCE_NS / statistics.median(references[max(0, i - 2): i + 3])
        for i, ns in enumerate(latencies)
    ]


def scaled_passes(reports: list[dict], kind: str) -> list[list[float]]:
    """Every ``kind`` ("plain" or "traced") pass of the run, scaled."""
    return [scaled(p, r) for rep in reports for p, r in zip(rep[kind], rep[kind + "_ref"])]


def scaled_setup_s(report: dict) -> float:
    """Set-up time at reference speed, by the median of the reference times
    taken just before the worker started, during its warm-up pass and just
    after its set-up."""
    return report["setup_s"] * REFERENCE_NS / statistics.median(report["setup_ref_ns"])


def check_answers(ops: list[dict], reports: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, unexpected failures) over every pass of every worker.

    A pass that repeats an earlier pass's answer to an op gets that answer's
    verdict, so the checks cost about one pass whatever the number of passes.
    """
    attempted, failed, unexpected = 0, 0, []
    verdicts: dict = {}
    for report in reports:
        if report["ids"] != [op["id"] for op in ops]:
            fail("worker corpus differs from the parent's")
        with open(report["answers_path"]) as fh:
            lines = fh.read().splitlines()
        if len(lines) != len(ops) * (len(report["plain"]) + len(report["traced"])):
            fail("a worker left a different number of answers than it timed")
        for i, line in enumerate(lines):
            op = ops[i % len(ops)]
            attempted += 1
            key = (op["id"], line)
            if key not in verdicts:
                verdicts[key] = oracles.check(op, json.loads(line))
            reason = verdicts[key]
            if reason is None:
                continue
            failed += 1
            known = oracles.is_known_failure(op, json.loads(line))
            print(f"bench: {'known ' if known else ''}failure {op['id']}: {reason}", file=sys.stderr)
            if not known:
                unexpected.append(op["id"])
    return attempted, failed, unexpected


def end_to_end(reports: list[dict]) -> dict:
    """An op's latency is its mean over the passes; throughput is over all passes."""
    passes = scaled_passes(reports, "plain")
    latencies_ms = [statistics.fmean(times) / 1e6 for times in zip(*passes)]
    deciles = statistics.quantiles(latencies_ms, n=10)
    ops, total_ns = sum(len(p) for p in passes), sum(sum(p) for p in passes)
    return {
        "ops_per_s": {"value": ops / (total_ns / 1e9), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "latency_p90_ms": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median([r["peak_rss_kb"] / 1024 for r in reports if r["plain"]]), "unit": "MB"},
        "setup_s": {"value": statistics.median(scaled_setup_s(r) for r in reports), "unit": "s"},
    }


def per_layer(reports: list[dict]) -> dict:
    totals: dict = {}
    missing: set = set()
    import_ns: list = []
    traced = [r for r in reports if r["traced"]]
    for report in traced:
        for key, value in report["trace"]["totals"].items():
            totals[key] = totals.get(key, 0) + value
        missing.update(report["trace"]["missing"])
        import_ns.extend(report["trace"]["import_ns"])
    ops = sum(len(p) for r in traced for p in r["traced"])
    plain_ns = sum(map(sum, scaled_passes(reports, "plain")))
    traced_ns = sum(map(sum, scaled_passes(traced, "traced")))
    return tracing.layer_metrics(
        totals,
        ops,
        import_ms=statistics.mean(import_ns) / 1e6 if import_ns else 0.0,
        missing=len(missing),
        overhead_pct=100.0 * (traced_ns / plain_ns - 1.0),
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "puiseux", "__init__.py")):
        fail(f"no puiseux sources under {src}; run from the root of a checkout", 2)
    # The run's processes, CLI children included, share one CPU: on the
    # reference machine the reference kernel's time on one vCPU is 0.83 to
    # 1.22 times its time on the other at the same moment (quartiles), so
    # the kernel must run where the op runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    out_dir = os.path.join(root, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "spans"))
    pycache = os.path.join(out_dir, "pycache")
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([src, BENCH]),
        PYTHONPYCACHEPREFIX=pycache,
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    limit_s = max(DEADLINE_S, 2.5 * nominal_seconds(args.workload, args.seconds, bool(args.trace)))
    runner = Runner(root, env, limit_s)
    runner.call([sys.executable, "-c", PRIME_IMPORTS], os.path.join(out_dir, "prime.log"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    workers, passes = plan(args.workload, args.seconds)
    reports = []
    for index in range(workers):
        if args.workload in WARM:
            traced = passes if args.trace else 0
            reports.append(run_worker(runner, args.workload, args.seed, index, passes, traced, out_dir))
            continue
        reports.append(run_worker(runner, args.workload, args.seed, index, 1, 0, out_dir))
        if args.trace:
            reports.append(run_worker(runner, args.workload, args.seed, index, 0, 1, out_dir))
    if args.workload not in WARM and not args.trace:
        for index in range(workers, COLD_SETUPS):
            reports.append(run_worker(runner, args.workload, args.seed, index, 0, 0, out_dir))
    ops = corpus.build(args.workload, args.seed)
    attempted, failed, unexpected = check_answers(ops, reports)

    if args.trace:
        metrics = per_layer(reports)
    else:
        metrics = end_to_end(reports)
    shutil.rmtree(pycache, ignore_errors=True)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
