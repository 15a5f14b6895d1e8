"""Tests of the benchmark itself: deterministic corpora, oracles that reject
corrupted answers, scaling to reference speed, and tracing that survives a
missing hook.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402


def answers_for(ops):
    """The library's answers, recorded exactly as a worker records them."""
    puiseux = worker.import_library(ROOT)
    return [record(call()) for call, record in worker.library_calls(puiseux, ops)]


def test_same_seed_gives_byte_identical_corpora():
    for workload in corpus.WORKLOADS:
        first = json.dumps(corpus.build(workload, 7), sort_keys=True)
        again = json.dumps(corpus.build(workload, 7), sort_keys=True)
        other = json.dumps(corpus.build(workload, 8), sort_keys=True)
        assert first == again
        assert first != other


def test_factor_oracle_rejects_a_dropped_factor():
    op = next(op for op in corpus.build("factor", 3) if len(op["expect"]["primes"]) >= 2)
    [answer] = answers_for([op])
    assert oracles.check(op, answer) is None
    dropped = dict(answer, primes=answer["primes"][1:])
    assert oracles.check(op, dropped) is not None
    # Recomposition alone also catches it, independently of the construction.
    assert oracles.check_recomposition(oracles._element(op["element"]), dropped) is not None


def test_factor_oracle_rejects_a_wrong_constant():
    op = corpus.build("factor", 3)[0]
    [answer] = answers_for([op])
    wrong = dict(answer, constant=str(2 * int(answer["constant"].split("/")[0])))
    assert oracles.check(op, wrong) is not None


def test_an_op_that_raises_is_failed():
    op = corpus.build("factor", 3)[0]
    assert oracles.check(op, {"exception": "DomainError: boom"}) is not None


def test_phi_oracle_rejects_a_wrong_coefficient():
    op = {"kind": "phi", "n": 210}
    [answer] = answers_for([op])
    assert oracles.check(op, answer) is None
    wrong = list(answer)
    wrong[5] = str(int(wrong[5]) + 1)
    assert oracles.check(op, wrong) is not None


def test_divisor_oracle_rejects_a_missing_or_extra_divisor():
    op = next(op for op in corpus.build("divisors", 2) if len(op["blocks"]) >= 3)
    [answer] = answers_for([op])
    assert len(answer) >= 3
    assert oracles.check(op, answer) is None
    assert oracles.check(op, answer[:-1]) is not None
    assert oracles.check(op, answer + [answer[1]]) is not None


def test_cli_oracle_rejects_a_wrong_exit_code():
    ops = corpus.build("cli", 4)
    limit = next(op for op in ops if op["argv"] == corpus.NEGATIVE_LIMIT)
    error = json.dumps({"status": "parse-error", "error": "negative cap"})
    assert oracles.check(limit, {"exit": 2, "stdout": error}) is None
    assert oracles.check(limit, {"exit": 3, "stdout": error}) is not None
    ok = next(op for op in ops if op["argv"][0] == "totient-inv")
    cmd = [sys.executable, "-m", "puiseux.cli", *ok["argv"], "--json"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    assert oracles.check(ok, {"exit": done.returncode, "stdout": done.stdout}) is None
    assert oracles.check(ok, {"exit": 1, "stdout": done.stdout}) is not None


def test_only_the_documented_limit_failure_is_known():
    limit = next(op for op in corpus.build("cli", 4) if op["argv"] == corpus.NEGATIVE_LIMIT)
    documented = {"exit": 3, "stdout": json.dumps(
        {"status": "resource-limit", "error": "16 candidate divisors exceed the cap of -5"})}
    assert oracles.check(limit, documented) is not None
    assert oracles.is_known_failure(limit, documented)
    assert not oracles.is_known_failure(limit, {"exit": 1, "stdout": "Traceback ..."})
    assert not oracles.is_known_failure(limit, dict(documented, exit=2))
    other = next(op for op in corpus.build("cli", 4) if op["argv"][0] == "count" and op is not limit)
    assert not oracles.is_known_failure(other, documented)


def test_op_times_are_scaled_by_the_reference_kernel_next_to_them():
    import run

    ref = worker.REFERENCE_NS
    assert run.scaled([10, 20, 30], [ref, ref, ref]) == [10, 20, 30]
    # A machine at half speed doubles both the op and the kernel time.
    assert run.scaled([20, 40, 60], [2 * ref] * 3) == [10, 20, 30]
    # One reference blip among five neighbours does not move its op.
    assert run.scaled([10] * 5, [ref, ref, 9 * ref, ref, ref]) == [10] * 5


def test_traced_pass_with_a_missing_hook_completes(tmp_path):
    out = tmp_path / "pass.json"
    (tmp_path / "spans").mkdir()
    script = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import tracer, worker; "
        "tracer.HOOKS += (('gone.layer', 'puiseux.engine', 'no_such_entry_point', 'span'),); "
        "worker.main(['cyclo', '5', '0', repr(time.monotonic()), '0', '1', sys.argv[2]])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", script, BENCH, str(out)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "missing hooks" in done.stderr
    report = json.loads(out.read_text())
    assert report["trace"]["missing"] == ["puiseux.engine:no_such_entry_point"]
    assert report["trace"]["totals"]["cyclotomic.phi.calls"] > 0
    ops = corpus.build("cyclo", 5)
    answers = [json.loads(line) for line in (tmp_path / "pass.json.answers").read_text().splitlines()]
    assert len(answers) == len(ops)
    assert all(oracles.check(op, a) is None for op, a in zip(ops, answers))
