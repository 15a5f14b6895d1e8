"""Command-line surface: dispatch, exit codes, JSON output, determinism."""

import json
import resource
import subprocess
import sys
import time
from fractions import Fraction

from puiseux import (
    CanonicalFactorization,
    Rat,
    parse_poly,
    recompose,
)
from puiseux.cli import run_command


def test_factor_command():
    result = run_command(["factor", "X^3+X+2"])
    assert result.status == "ok" and result.exit_code == 0
    assert "Phi_2" in result.text
    assert "X^2 - X + 2" in result.text


def test_symsupp_command():
    result = run_command(["symsupp", "X^3+X+2"])
    assert result.exit_code == 0
    assert "false" in result.text
    assert "true" in run_command(["symsupp", "X+1"]).text


def test_divisors_command():
    result = run_command(["divisors", "X^6-1", "--monoid", "<2,3>"])
    assert result.exit_code == 0
    assert result.payload["count"] == 6
    assert "X^4 + X^2 + 1" in result.payload["divisors"]


def test_atom_and_count_commands():
    assert run_command(["atom", "X^2-1", "--monoid", "<2,3>"]).payload["atom"] is True
    assert run_command(["count", "X^6-1", "--monoid", "<2,3>"]).text == "6"


def test_lemma21_command():
    result = run_command(["lemma21", "--field", "F2", "X^3+X^2+1"])
    assert result.exit_code == 0
    assert result.payload["e_vector"] == ["1", "1", "0", "1"]
    assert result.payload["holds"] is False
    assert result.payload["violations"] == [2]
    assert "k=2" in result.text

    rational = run_command(["lemma21", "X^4+X^2+1"])
    assert rational.payload["holds"] is True


def test_cyclotomic_and_totient_commands():
    assert run_command(["cyclotomic", "6"]).text == "X^2 - X + 1"
    assert run_command(["totient-inv", "2"]).text == "3 4 6"
    assert run_command(["totient-inv", "3"]).text == "(none)"


def test_monoid_commands():
    assert run_command(["monoid-atoms", "<2,3,5>"]).text == "2 3"
    assert run_command(["monoid-divisors", "<2,3>", "6"]).text == "0 2 3 4 6"


def test_substitute_command():
    assert run_command(["substitute", "X-1", "--by", "1/2"]).text == "X^(1/2) - 1"


def test_exit_codes():
    assert run_command(["symsupp", "0"]).exit_code == 1  # zero element
    assert run_command(["divisors", "X-1", "--monoid", "<2,3>"]).exit_code == 1
    assert run_command(["symsupp", "X^("]).exit_code == 2
    assert run_command(["no-such-command"]).exit_code == 2
    limited = run_command(["divisors", "X^6-1", "--monoid", "<1>", "--limit", "2"])
    assert limited.status == "resource-limit" and limited.exit_code == 3


def test_limit_env_variable(monkeypatch):
    monkeypatch.setenv("PUISEUX_LIMIT", "2")
    assert run_command(["divisors", "X^6-1", "--monoid", "<1>"]).exit_code == 3
    # explicit flag wins over the environment
    ok = run_command(["divisors", "X^6-1", "--monoid", "<1>", "--limit", "1000000"])
    assert ok.exit_code == 0


def test_negative_limit_is_a_usage_error(monkeypatch):
    argv = ["count", "X^6-1", "--monoid", "<2,3>"]
    flagged = run_command(argv + ["--limit", "-5", "--json"])
    assert flagged.status == "parse-error" and flagged.exit_code == 2
    assert "--limit" in json.loads(flagged.text)["error"]
    monkeypatch.setenv("PUISEUX_LIMIT", "-1")
    from_env = run_command(argv)
    assert from_env.status == "parse-error" and from_env.exit_code == 2
    assert "PUISEUX_LIMIT" in from_env.text
    # a cap of zero is a valid (if useless) cap, not a usage error
    assert run_command(argv + ["--limit", "0"]).exit_code == 3


def _run_capped(argv, timeout=10):
    """Run the CLI in a child with the address space capped at 400000 KiB."""

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400_000 * 1024, 400_000 * 1024))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "puiseux.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=cap_address_space,
        timeout=timeout,
    )
    return proc, time.perf_counter() - start


def test_sparse_binomial_factors_in_bounded_memory():
    proc, elapsed = _run_capped(["factor", "X^3000000+1", "--json"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    indices = [entry["index"] for entry in payload["cyclotomic"]]
    assert indices[0] == 128 and indices[-1] == 6_000_000 and len(indices) == 14
    assert elapsed < 2.0


def test_sparse_trinomial_hits_the_dense_degree_cap():
    proc, elapsed = _run_capped(["factor", "X^3000000+X+1", "--json"])
    assert proc.returncode == 3, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "resource-limit" and "cap" in payload["error"]
    assert elapsed < 2.0


def test_large_clearing_denominator_hits_the_dense_degree_cap():
    poly = "+".join(f"X^(1/{d})" for d in range(2, 20)) + "+1"
    proc, elapsed = _run_capped(["factor", poly, "--json"])
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["status"] == "resource-limit"
    assert elapsed < 2.0


def test_memory_and_recursion_errors_are_resource_limits(monkeypatch):
    from puiseux import cli

    for error in (MemoryError(), RecursionError("maximum recursion depth exceeded")):

        def handler(args, error=error):
            raise error

        monkeypatch.setattr(cli, "_cmd_count", handler)
        plain = run_command(["count", "X^6-1", "--monoid", "<2,3>"])
        assert plain.status == "resource-limit" and plain.exit_code == 3
        doc = run_command(["count", "X^6-1", "--monoid", "<2,3>", "--json"])
        assert json.loads(doc.text) == {
            "status": "resource-limit",
            "error": str(error) or type(error).__name__,
        }


def test_deterministic_output():
    for argv in (
        ["factor", "X^6-1", "--json"],
        ["divisors", "X^6-1", "--monoid", "<2,3>"],
        ["lemma21", "--field", "F2", "X^3+X^2+1"],
    ):
        assert run_command(argv).text == run_command(argv).text


def test_factor_json_recomposes():
    result = run_command(["factor", "X^(3/2)-X^(1/2)", "--json"])
    payload = json.loads(result.text)
    assert payload["status"] == "ok"
    cf = CanonicalFactorization(
        constant=Fraction(payload["constant"]),
        clearing_denominator=payload["clearing_denominator"],
        monomial_exponent=Rat(Fraction(payload["monomial_exponent"])),
        cyclotomic_part=tuple(
            (entry["index"], entry["exponent"]) for entry in payload["cyclotomic"]
        ),
        prime_part=tuple(
            (parse_poly(entry["poly"]).to_qpoly(), entry["exponent"])
            for entry in payload["primes"]
        ),
    )
    assert recompose(cf) == parse_poly(payload["input"])


def test_json_error_document():
    result = run_command(["divisors", "X-1", "--monoid", "<2,3>", "--json"])
    payload = json.loads(result.text)
    assert payload["status"] == "math-domain-error"
    assert result.exit_code == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "puiseux.cli", "count", "X^6-1", "--monoid", "<2,3>"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"
