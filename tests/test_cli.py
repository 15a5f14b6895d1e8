"""Command-line surface: dispatch, exit codes, JSON output, determinism."""

import gc
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from puiseux import (
    CanonicalFactorization,
    QPoly,
    Rat,
    cyclotomic_poly,
    parse_poly,
    recompose,
)
from puiseux import cyclotomic
from puiseux._intpoly import MAX_ROOT_TABLE
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


def test_a_leading_minus_sign_needs_a_space_or_a_double_dash():
    # the forms that were needed while a leading "-" read as an option
    spaced = run_command(["factor", "--json", "-2*X^3 + 1"])
    dashed = run_command(["factor", "--json", "--", "-2*X^3+1"])
    assert spaced.exit_code == dashed.exit_code == 0
    assert dashed.payload == spaced.payload


def test_a_leading_minus_sign_is_read_as_a_polynomial():
    bare = run_command(["factor", "-2*X^3+1", "--json"])
    spaced = run_command(["factor", "-2*X^3 + 1", "--json"])
    assert bare.exit_code == spaced.exit_code == 0
    assert bare.text == spaced.text


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "X^6-1", "--monoid=<2,3>"],
        ["count", "X^6-1", "--mon", "<2,3>"],
        ["count", "--mon=<2,3>", "X^6-1"],
    ],
)
def test_options_take_an_equals_sign_or_a_unique_prefix(argv):
    result = run_command(argv)
    assert (result.exit_code, result.text) == (0, "6")


def test_argv_forms_that_end_in_an_exit_code():
    capped = run_command(["count", "X^6-1", "--monoid", "<2,3>", "--lim", "9"])
    assert capped.status == "resource-limit" and capped.exit_code == 3
    # after "--" nothing is an option, as before the leading-minus change
    dashed = run_command(["factor", "--json", "--", "-2*X^3+1"])
    assert dashed.exit_code == 0 and dashed.payload["constant"] == "-2"
    bogus = run_command(["factor", "--bogus", "X^2"])
    assert bogus.exit_code == 2 and "--bogus" in bogus.text
    unscaled = run_command(["substitute", "X-1"])
    assert unscaled.exit_code == 2 and "--by" in unscaled.text


def test_help_names_every_command():
    text = run_command(["--help"]).text
    commands = [
        "factor", "symsupp", "divisors", "atom", "count", "cyclotomic", "totient-inv",
        "lemma21", "monoid-atoms", "monoid-divisors", "substitute",
    ]
    listed = [line.split()[0] for line in text.splitlines() if line.startswith("  ")]
    assert set(commands) <= set(listed)


def test_exit_codes():
    assert run_command(["symsupp", "0"]).exit_code == 1  # zero element
    assert run_command(["divisors", "X-1", "--monoid", "<2,3>"]).exit_code == 1
    assert run_command(["symsupp", "X^("]).exit_code == 2
    assert run_command(["no-such-command"]).exit_code == 2
    for field in ("G2", "Fx"):
        assert run_command(["lemma21", "X+1", "--field", field]).exit_code == 2
    # a negative index or modulus is read, and lies outside the domain
    assert run_command(["cyclotomic", "-5"]).exit_code == 1
    assert run_command(["lemma21", "X+1", "--field", "F-3"]).exit_code == 1
    unbound = run_command(["divisors", "X^6-1"])
    assert unbound.exit_code == 2 and "--monoid" in unbound.text
    limited = run_command(["divisors", "X^6-1", "--monoid", "<1>", "--limit", "2"])
    assert limited.status == "resource-limit" and limited.exit_code == 3


def test_dense_cap_reads_the_full_scaled_degree():
    # the core X^10 + 2 is small, but the element is dense to degree 70000;
    # a binomial core is read off its two terms and is never made dense
    message = "dense degree 70000 exceeds the cap of 65536"
    for argv in (["factor", "X^70000+2*X^69990"], ["divisors", "X^70000+2*X^69990", "--monoid", "<1>"]):
        result = run_command(argv + ["--json"])
        assert (result.exit_code, result.payload) == (3, {"error": message}), argv
    binomial = run_command(["factor", "X^70000+X^69990", "--json"])
    assert binomial.exit_code == 0
    assert [c["index"] for c in binomial.payload["cyclotomic"]] == [4, 20]
    assert binomial.payload["primes"] == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["factor", "X^\u00b2"], 2),  # a Unicode digit is no digit of the grammar
        (["monoid-atoms", "<\u00b2>"], 2),
        (["factor", "1" * 5000 + "*X+1"], 3),  # past the int/str digit limit
        (["substitute", "X^1" + "0" * 4000, "--by", "1" + "0" * 4000], 3),
        # integer arguments are ASCII digits too, as in the wire format
        (["cyclotomic", "\u0666"], 2),  # ARABIC-INDIC DIGIT SIX
        (["cyclotomic", "1_2"], 2),
        (["totient-inv", "\u0664"], 2),
        (["count", "X", "--monoid", "<1>", "--limit", "\u0663"], 2),
        (["lemma21", "X+1", "--field", "F\u0663"], 2),
        (["lemma21", "X+1", "--field", "F1_1"], 2),
        (["lemma21", "X+1", "--field", "F+7"], 2),
        # integer arguments past the digit limit, as in the grammar
        (["cyclotomic", "1" * 5000], 3),
        (["lemma21", "X+1", "--field", "F" + "1" * 5000], 3),
    ],
)
def test_digits_end_in_an_exit_code(argv, code):
    for as_json in ([], ["--json"]):
        result = run_command(argv + as_json)
        assert result.exit_code == code, result.text
    assert json.loads(result.text)["status"] in ("parse-error", "resource-limit")


@pytest.mark.parametrize(
    "argv",
    [
        ["cyclotomic", "abc", "--json"],
        ["count", "X", "--monoid", "<1>", "--limit", "x", "--json"],
        ["nope", "--json"],
        ["factor", "--json"],
    ],
)
def test_json_usage_errors_are_json_documents(argv):
    result = run_command(argv)
    assert result.exit_code == 2
    document = json.loads(result.text)
    assert document["status"] == "parse-error" and "usage:" in document["error"]
    # without --json the same error stays plain usage text
    plain = run_command([a for a in argv if a != "--json"])
    assert plain.exit_code == 2 and plain.text.startswith("usage:")


@pytest.mark.parametrize("argv", [["factor", "-h"], ["--help"], ["count", "--help", "X"]])
def test_help_is_a_result_not_an_exit(argv):
    result = run_command(argv)
    assert result.status == "ok" and result.exit_code == 0
    assert result.text.startswith("usage: puiseux") and not result.text.endswith("\n")
    document = json.loads(run_command(argv + ["--json"]).text)
    assert document == {"status": "ok", "help": result.text}


def test_limit_env_variable(monkeypatch):
    # the environment sets no cap: only --limit does
    monkeypatch.setenv("PUISEUX_LIMIT", "2")
    assert run_command(["divisors", "X^6-1", "--monoid", "<1>"]).exit_code == 0
    assert run_command(["divisors", "X^6-1", "--monoid", "<1>", "--limit", "2"]).exit_code == 3


def test_negative_limit_is_a_usage_error():
    argv = ["count", "X^6-1", "--monoid", "<2,3>"]
    flagged = run_command(argv + ["--limit", "-5", "--json"])
    assert flagged.status == "parse-error" and flagged.exit_code == 2
    assert "--limit" in json.loads(flagged.text)["error"]
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


SD8 = "X^8 - 40*X^6 + 352*X^4 - 960*X^2 + 576"
SD16_X2 = (
    "X^32 - 136*X^28 + 6476*X^24 - 141912*X^20 + 1513334*X^16"
    " - 7453176*X^12 + 13950764*X^8 - 5596840*X^4 + 46225"
)


@pytest.mark.parametrize(
    "argv, answer",
    [
        (["factor", "X^6-13*X^4+31*X^2-3"], ["X^2 - 3", "X^4 - 10*X^2 + 1"]),
        (["factor", SD8.replace(" ", "")], [SD8]),
        (["factor", SD16_X2.replace(" ", "")], [SD16_X2]),
        (
            ["factor", "X^8+5*X^6+13*X^4+20*X^2+36"],
            ["X^2 - 2*X + 2", "X^2 + 2*X + 2", "X^2 - X + 3", "X^2 + X + 3"],
        ),
        (["factor", "X^60+566292"], ["X^60 + 566292"]),
        (["factor", "X^120+566292"], ["X^120 + 566292"]),
        (["factor", "X^300+6"], ["X^300 + 6"]),
        (["count", "X^144-1", "--monoid", "<3,5>"], "2304"),
        (["count", "X^120-1", "--monoid", "<2,3>"], "17920"),
        (["count", "X^65537-1", "--monoid", "<1>"], "4"),
    ],
)
def test_answers_of_even_towers_binomials_and_counts(argv, answer):
    # Mirrored and Swinnerton-Dyer towers, certified binomials, and counts
    # over many cyclotomic classes, each answered in well under a second.
    result = run_command(argv)
    assert result.exit_code == 0, result.text
    got = [q["poly"] for q in result.payload["primes"]] if argv[0] == "factor" else result.text
    assert got == answer


def test_sparse_binomial_factors_in_bounded_memory():
    proc, elapsed = _run_capped(["factor", "X^3000000+1", "--json"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    indices = [entry["index"] for entry in payload["cyclotomic"]]
    assert indices[0] == 128 and indices[-1] == 6_000_000 and len(indices) == 14
    assert elapsed < 2.0


def test_binomial_with_many_modular_factors_hits_the_subset_cap():
    # X^105 + 566292, odd with 30 factors mod 11, once planned 2,804,011
    # subsets here; it is Eisenstein at 3 and is now answered before any
    # modular work.  SD64 * (X + 2) still plans 1,149,049 subsets: 33 find
    # X + 2, and the 32 factors of SD64 pass 2^20 at size 6.
    result = run_command(["factor", "X^105+566292", "--json"])
    assert result.exit_code == 0
    assert [q["poly"] for q in json.loads(result.text)["primes"]] == ["X^105 + 566292"]
    text = (pathlib.Path(__file__).parent / "data" / "sd64_times_x_plus_2.txt").read_text().strip()
    start = time.perf_counter()
    result = run_command(["factor", text, "--json"])
    assert result.exit_code == 3
    assert json.loads(result.text)["status"] == "resource-limit"
    assert time.perf_counter() - start < 5.0


def test_divisors_of_a_binomial_too_large_to_build_hit_the_build_cap():
    # 2^18 classes of mean degree 2^16; count still walks them without building
    proc, elapsed = _run_capped(["divisors", "X^131072-1", "--monoid", "<1>", "--json"])
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["status"] == "resource-limit"
    assert elapsed < 5.0


def test_sparse_trinomial_hits_the_dense_degree_cap():
    proc, elapsed = _run_capped(["factor", "X^3000000+X+1", "--json"])
    assert proc.returncode == 3, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "resource-limit" and "cap" in payload["error"]
    assert elapsed < 2.0


def test_sparse_trinomial_hits_the_lifting_cap():
    proc, _ = _run_capped(["factor", "X^2000+X+1", "--json"])
    assert proc.returncode == 3, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "resource-limit" and "cap" in payload["error"]
    assert "MemoryError" not in payload["error"]


@pytest.mark.parametrize("poly", ["X^8000+X+1", "X^65536+X+1"])
def test_sparse_trinomial_hits_the_split_cap(poly):
    proc, elapsed = _run_capped(["factor", poly, "--json"])
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


def test_monoid_divisor_scan_hits_the_cap():
    proc, elapsed = _run_capped(["monoid-divisors", "<2,3>", "3000000", "--json"])
    assert proc.returncode == 3, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "resource-limit" and "cap" in payload["error"]
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["cyclotomic", "1000000007", "--json"],  # degree 10^9 + 6
        ["cyclotomic", "510510", "--json"],  # degree 92160 > 2^16
        ["monoid-atoms", "<100000007,100000037>", "--json"],  # Apery table of 10^8 slots
    ],
)
def test_caps_refuse_before_allocating(argv):
    proc, elapsed = _run_capped(argv)
    assert proc.returncode == 3, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "resource-limit" and "cap" in payload["error"]
    assert "MemoryError" not in payload["error"]
    assert elapsed < 2.0


def test_large_field_modulus_is_a_domain_error_not_a_hang():
    # a prime above 2^31, and a modulus beyond the deterministic primality test
    for field in ("F2305843009213693951", "F10000000000000000000000000000000"):
        proc, elapsed = _run_capped(["lemma21", "X+1", "--field", field])
        assert proc.returncode == 1, proc.stderr
        assert "2^31" in proc.stdout
        assert elapsed < 2.0
    proc, _ = _run_capped(["lemma21", "X+1", "--field", "F4"])
    assert proc.returncode == 1, proc.stderr
    assert "field modulus 4 is not prime" in proc.stdout


def test_sparse_square_hits_the_lifting_cap_quickly():
    # (X^2000 + X + 1)^2 expanded: Yun's split finds the square, then the
    # squarefree part is refused by the lifting cap
    proc, elapsed = _run_capped(["factor", "X^4000+2*X^2001+2*X^2000+X^2+2*X+1", "--json"])
    assert proc.returncode == 3, proc.stderr
    assert "cap" in json.loads(proc.stdout)["error"]
    assert elapsed < 2.0


def test_inverse_totient_of_a_large_value_is_fast():
    proc, elapsed = _run_capped(["totient-inv", "2305843009213693950", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["indices"] == [2305843009213693951, 4611686018427387902]
    assert elapsed < 2.0


def test_inverse_totient_with_many_preimages_is_answered():
    proc, elapsed = _run_capped(["totient-inv", "6983776800", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["indices"]) == 12181
    assert elapsed < 2.0


def test_inverse_totient_search_hits_its_cap_quickly():
    # 963761198400 has 6720 divisors, 1601 of them one less than a prime
    proc, elapsed = _run_capped(["totient-inv", "963761198400", "--json"])
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["status"] == "resource-limit"
    assert elapsed < 2.0


def test_a_closed_pipe_ends_without_a_traceback():
    # the read end is closed before the child writes, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "puiseux.cli", "cyclotomic", "65537"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            timeout=30,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; before = set(sys.modules); import puiseux.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_importing_the_cli_loads_neither_argparse_nor_gettext():
    code = (
        "import sys; before = set(sys.modules); import puiseux.cli; "
        "print(sorted({'argparse', 'gettext'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


def test_output_matches_golden():
    """Text and --json documents recorded before division, gcd and Yun's split
    moved to the integer kernel: the benchmark's seed-1 CLI corpus, plus
    inputs with rational coefficients or repeated factors."""
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) >= 200
    for case in cases:
        result = run_command(case["argv"])
        assert (result.exit_code, result.text) == (case["exit"], case["text"]), case["argv"]


def test_memory_and_recursion_errors_are_resource_limits(monkeypatch):
    from puiseux import cli

    for error in (MemoryError(), RecursionError("maximum recursion depth exceeded")):

        def query(f, monoid, limit, error=error):
            raise error

        monkeypatch.setattr(cli, "ff_divisor_count", query)
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


def _soak_queries(rng: random.Random, rounds: int):
    """Every command once a round, each large within the caps: ten fresh
    Phi_n a round and one of degree up to about 4096 every fourth round,
    fresh totient values with 15 to 1241 preimages, factors of degree up to
    60 and counts over up to 9 cyclotomic classes."""
    gens = ["<2,3>", "<3,5>", "<2,5>", "<3,4,5>"]
    totients = [2**a * 3**b * c for a in range(7, 12) for b in range(3) for c in (5, 7, 11, 35)]
    totients = rng.sample(totients, rounds)
    indices = rng.sample(range(2, 300), 10 * rounds)
    for i, d in enumerate(totients):
        a, b = rng.sample(range(3, 31), 2)
        k, p = rng.randrange(3, 9), rng.choice([2, 3, 5, 7, 11])
        binomial = QPoly([-p] + [0] * (k - 1) + [1])
        quadratic = QPoly([rng.randrange(1, 9), rng.randrange(-5, 6), 1])
        poly = str(cyclotomic_poly(a) * cyclotomic_poly(b) * binomial * quadratic).replace(" ", "")
        monoid = ["--monoid", rng.choice(gens)]
        yield ["factor", poly]
        yield ["symsupp", poly]
        yield ["lemma21", poly, "--field", f"F{rng.choice([2, 3, 5, 7])}"]
        yield ["substitute", poly, "--by", f"{rng.randrange(1, 9)}/{rng.randrange(1, 9)}"]
        for n in indices[10 * i : 10 * i + 10] + [rng.randrange(1000, 4600)] * (i % 4 == 0):
            yield ["cyclotomic", str(n)]
        yield ["totient-inv", str(d)]
        yield ["count", f"X^{rng.randrange(12, 37)}-1", *monoid]
        yield ["atom", f"X^{rng.randrange(8, 13)}+{rng.randrange(1, 4)}", *monoid]
        yield ["divisors", f"X^{rng.randrange(8, 13)}-1", *monoid]
        yield ["monoid-atoms", "<" + ",".join(map(str, rng.sample(range(5, 60), 4))) + ">"]
        yield ["monoid-divisors", rng.choice(gens), str(rng.randrange(20, 200))]


def test_memo_caches_stop_growing_in_a_long_lived_process():
    # The budget adds up the worst cases stated at cyclotomic.CACHE_SIZE:
    # cyclotomic_poly and _cyclotomic_value per entry, the split's tables and
    # _intpoly's root tables.  Each half of the stream brings fresh indices
    # and totient values, and the first half fills all CACHE_SIZE entries of
    # cyclotomic_poly, so the second half only replaces entries.
    phi_entry = 8 * 65537 + 32 * 58075
    budget = cyclotomic.CACHE_SIZE * (phi_entry + 91 * 1024) + (2 << 20) + MAX_ROOT_TABLE
    queries = list(_soak_queries(random.Random(14), 24))
    half = len(queries) // 2
    retained = []
    tracemalloc.start()
    try:
        for part in (queries[:half], queries[half:]):
            for argv in part:
                assert run_command(argv).exit_code == 0, argv
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    first, second = retained
    assert second < budget
    assert second - first < 64 * 1024, retained
