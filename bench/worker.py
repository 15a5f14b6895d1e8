"""One worker of a run: set up once, then time passes over the corpus.

    python3 bench/worker.py WORKLOAD SEED WORKER T0 PLAIN TRACED OUT

A pass times every op of the run's corpus once.  T0 is the parent's
``time.monotonic()`` just before it started this process, so set-up time
covers interpreter start, imports, corpus building and, for warm workloads,
the untimed warm-up pass.  The worker then times PLAIN passes, installs the
tracer and times TRACED passes.  Per-pass latencies, the reference kernel's
time before each op, during and after set-up, and the peak RSS go to OUT as
JSON, and the answers of every pass, one JSON line per op, to
OUT.answers as they come, so that no pass's answers stay in memory and
swell the peak RSS.  The checks run later in the parent, outside every
timed region.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from algebra import format_rat  # noqa: E402

WARM = {"factor", "divisors"}

# The shared machine's speed drifts by up to 1.6x over tens of seconds, and
# CPU time drifts with it.  A fixed reference kernel is timed right before
# every op; an op's latency is scaled by REFERENCE_NS over the kernel's time
# there, so latencies read as on a machine where the kernel takes
# REFERENCE_NS (its median on the reference machine).
REFERENCE_NS = 3_500_000
SETUP_REFERENCES = 5


def reference_kernel() -> Fraction:
    """Integer polynomial products and Fraction sums, the library's staple work."""
    a = [(i * 7919) % 1000003 for i in range(60)]
    b = [(i * 104729) % 999983 for i in range(60)]
    for _ in range(4):
        p = [0] * 119
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                p[i + j] += x * y
        a = [c % (10**30 + 57) for c in p[:60]]
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i % 13 + 1, i)
    return s


def time_reference() -> int:
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


def import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import puiseux

    if not os.path.abspath(puiseux.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"puiseux imported from {puiseux.__file__}, not from {src}")
    return puiseux


def _coeffs(q) -> list[str]:
    return [format_rat(c) for c in q.coeffs]


def library_calls(puiseux, ops):
    """(call, record) per op: call runs the library, record makes its answer plain."""
    def element(pairs):
        return puiseux.PuiseuxPoly((Fraction(e), Fraction(c)) for e, c in pairs)

    def record_factor(cf):
        return {
            "constant": format_rat(cf.constant),
            "m": cf.clearing_denominator,
            "shift": format_rat(cf.monomial_exponent),
            "cyclotomic": sorted([n, e] for n, e in cf.cyclotomic_part),
            "primes": sorted([_coeffs(q), l] for q, l in cf.prime_part),
        }

    def record_divisors(ds):
        return [[[format_rat(e), format_rat(c)] for e, c in g.terms] for g in ds.divisors]

    calls = []
    for op in ops:
        if op["kind"] == "factor":
            f = element(op["element"])
            calls.append((lambda f=f: puiseux.canonical_factorization(f), record_factor))
        elif op["kind"] == "phi":
            n = op["n"]
            calls.append((lambda n=n: puiseux.cyclotomic_poly(n), _coeffs))
        else:
            f = element(op["element"])
            monoid = puiseux.PuiseuxMonoid(Fraction(g) for g in op["monoid"])
            calls.append((lambda f=f, s=monoid: puiseux.divisors_in_algebra(f, s), record_divisors))
    return calls


def cli_calls(root: str, ops, trace: bool, spans_dir: str, worker: str):
    """(call, record) per op: one child process per call, waited for with wait4."""
    env = dict(os.environ)
    child_rss = []

    def run(argv, op_id):
        if trace:
            spans = os.path.join(spans_dir, f"{op_id}-worker{worker}.json")
            cmd = [sys.executable, os.path.join(BENCH, "trace_child.py"), spans, *argv, "--json"]
        else:
            cmd = [sys.executable, "-m", "puiseux.cli", *argv, "--json"]
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        child_rss.append(usage.ru_maxrss)
        return {"exit": proc.returncode, "stdout": out.decode()}

    calls = [(lambda a=op["argv"], i=op["id"]: run(a, i), lambda r: r) for op in ops]
    return calls, child_rss


def child_traces(spans_dir: str, ops, worker: str) -> dict:
    """Sum the totals that trace_child.py left for each CLI call."""
    totals, missing, import_ns = {}, set(), []
    for op in ops:
        with open(os.path.join(spans_dir, f"{op['id']}-worker{worker}.json.totals")) as fh:
            child = json.load(fh)
        for key, value in child["totals"].items():
            totals[key] = totals.get(key, 0) + value
        missing.update(child["missing"])
        import_ns.append(child["import_ns"])
    return {"totals": totals, "missing": sorted(missing), "import_ns": import_ns}


def timed_pass(calls, ops, sink, tracer=None) -> tuple[list[int], list[int]]:
    """(latency_ns, reference_ns) per op of one pass; the reference kernel is
    timed just before each op, and each answer goes to sink after its timing
    stops."""
    latencies, references = [], []
    for (call, record), op in zip(calls, ops):
        gc.collect()
        references.append(time_reference())
        if tracer:
            tracer.begin_op(op["id"])
        start = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # a library fault fails this op, not the run
            result = exc
        latencies.append(time.perf_counter_ns() - start)
        if tracer:
            tracer.end_op()
        if isinstance(result, Exception):
            answer = {"exception": f"{type(result).__name__}: {result}"}
        else:
            answer = record(result)
        sink.write(json.dumps(answer) + "\n")
    return latencies, references


def main(argv: list[str]) -> None:
    workload, seed, worker, t0, plain, traced, out_path = argv
    seed, t0, plain, traced = int(seed), float(t0), int(plain), int(traced)
    root = os.getcwd()
    puiseux = import_library(root)
    import corpus
    import tracer as tracing

    ops = corpus.build(workload, seed)
    spans_dir = os.path.join(os.path.dirname(out_path), "spans")
    if workload == "cli":
        calls, child_rss = cli_calls(root, ops, False, spans_dir, worker)
        traced_calls, traced_rss = cli_calls(root, ops, True, spans_dir, worker)
    else:
        calls = traced_calls = library_calls(puiseux, ops)
    # The warm-up pass times the reference kernel before each op too, so
    # that the scale of a set-up of seconds follows the machine through it;
    # those timings are taken out of the set-up time.
    setup_refs = []
    if workload in WARM:
        for call, _ in calls:
            setup_refs.append(time_reference())
            call()
    gc.collect()
    setup_s = time.monotonic() - t0 - sum(setup_refs) / 1e9

    report = {
        "setup_s": setup_s,
        "setup_ref_ns": setup_refs + [time_reference() for _ in range(SETUP_REFERENCES)],
        "ids": [op["id"] for op in ops],
    }
    for key in ("plain", "plain_ref", "traced", "traced_ref"):
        report[key] = []
    with open(out_path + ".answers", "w") as sink:
        for _ in range(plain):
            latencies, references = timed_pass(calls, ops, sink)
            report["plain"].append(latencies)
            report["plain_ref"].append(references)
        tracer = None
        if traced and workload != "cli":
            tracer = tracing.Tracer()
            tracer.install()
        for _ in range(traced):
            latencies, references = timed_pass(traced_calls, ops, sink, tracer)
            report["traced"].append(latencies)
            report["traced_ref"].append(references)

    if workload == "cli":
        report["peak_rss_kb"] = max(child_rss + traced_rss, default=0)
    else:
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.dump(os.path.join(spans_dir, f"{workload}-{seed}-worker{worker}.json"))
        report["trace"] = {"totals": tracer.totals(), "missing": tracer.missing, "import_ns": []}
    elif traced:
        report["trace"] = child_traces(spans_dir, ops, worker)
    with open(out_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
