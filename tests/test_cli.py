"""End-to-end command-line checks with frozen outputs."""

import hashlib
import json
import re
import shlex
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from staircase_lab import _budget, cli, dpcount, enumeration, formulas, moments, sampler
from staircase_lab.core import STATISTIC_NAMES, Tableau
from staircase_lab.measure import Weights


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args, expect=0):
    result = runner.invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result.output


def _readme_block(heading, language):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    pattern = rf"^## {heading}\n.*?^```{language}\n(.*?)^```"
    return re.search(pattern, readme, re.M | re.S).group(1)


def _readme_commands():
    return [shlex.split(line, comments=True)[1:]
            for line in _readme_block("Command line", "sh").splitlines()
            if line.startswith("staircase ")]


@pytest.mark.parametrize("args", _readme_commands(), ids=" ".join)
def test_every_readme_command_line_runs(runner, args):
    # an option the README documents and the CLI no longer has fails here
    run(runner, *args)


def test_the_readme_library_tour_runs():
    # a name the tour imports or a call it makes that the library no longer has fails here
    exec(compile(_readme_block("Library tour", "python"), "README.md", "exec"), {})


def test_count_golden(runner):
    out = run(runner, "count", "--n", "3")
    assert out == "form,value\nclosed,24\nbrute,24\n"


def test_count_four_symbol_json(runner):
    out = run(runner, "count", "--n", "3", "--four", "1,1,1,1", "--json")
    assert json.loads(out) == [
        {"form": "closed", "value": "384"},
        {"form": "brute", "value": "384"},
    ]


def test_count_skips_brute_force_at_large_sizes(runner):
    out = run(runner, "count", "--n", "40")
    assert "brute" not in out and out.startswith("form,value\nclosed,")


def test_exact_rationals_print_past_the_int_to_str_digit_cap(runner):
    # Python refuses str() of an int over 4300 digits unless told otherwise
    count = run(runner, "count", "--n", "2000").splitlines()
    assert count[0] == "form,value" and len(count[1]) > 4300
    law = run(runner, "pmf", "--stat", "A2", "--n", "1200", "--a", "13/7", "--b", "2/5")
    masses = [Fraction(line.split(",")[1]) for line in law.splitlines()[1:]]
    assert len(masses) == 601 and sum(masses) == 1


def test_rational_option_passes_a_fraction_through():
    # click hands a default or a value already converted back to convert
    value = Fraction(1, 3)
    assert cli.RATIONAL.convert(value, None, None) is value


@pytest.mark.parametrize("box", ["1,2,3", "5"])
def test_prob_refuses_a_box_that_is_not_a_pair(runner, box):
    given = "[" + box.replace(",", ", ") + "]"
    out = run(runner, "prob", "--n", "6", "--box", box, expect=2)
    assert out.endswith(f"Error: a box must be a pair of ints (i, j), got {given}\n")


@pytest.mark.parametrize("n", ["-1", "0"])
def test_no_size_produces_a_traceback(runner, n):
    # run() lets any exception out, so each case ends in output or a usage error
    if n == "0":
        assert run(runner, "count", "--n", n) == "form,value\nclosed,1\n"
    else:
        assert "nonnegative" in run(runner, "count", "--n", n, expect=2)
    for stat in STATISTIC_NAMES:
        assert "size must" in run(runner, "pmf", "--stat", stat, "--n", n, expect=2)
    for diag in ("2", "3"):
        run(runner, "moments", "--diag", diag, "--kind", "alpha", "--n", n, "--r", "1",
            expect=2)
    run(runner, "joint", "--diag", "2", "--kind", "alpha", "--cols", "1,2", "--n", n,
        expect=2)
    run(runner, "prob", "--n", n, "--box", "1,1", expect=2)
    run(runner, "sample", "--n", n, "--seed", "1", expect=2)
    run(runner, "asep-verify", "--n", n, "--rates", "2,1,3,1,1,1/2", expect=2)


def test_joint_names_a_size_too_small_for_its_diagonal(runner):
    # the size is checked before the columns, whose range would be empty
    for diag, least in (("2", 2), ("3", 3)):
        for kind in ("alpha", "nonempty"):
            for n in range(-1, least):
                out = run(runner, "joint", "--diag", diag, "--kind", kind, "--cols", "1",
                          "--n", str(n), expect=2)
                assert f"empty below size {least}, got n={n}" in out


def test_count_rejects_malformed_four(runner):
    run(runner, "count", "--n", "3", "--four", "1,1,1", expect=2)
    run(runner, "count", "--n", "3", "--four", "1,1,x,1", expect=2)


def test_prob_golden(runner):
    out = run(runner, "prob", "--n", "6", "--a", "1/2", "--b", "3",
              "--box", "2,3")
    assert out == "cell,probability\nalpha,4/39\nbeta,2/65\nempty,13/15\n"


def test_prob_rejects_outside_box(runner):
    out = runner.invoke(cli.main, ["prob", "--n", "4", "--box", "3,3"])
    assert out.exit_code == 2
    assert "outside" in out.output


def test_joint_second_diag_adjacent_columns_vanish(runner):
    out = run(runner, "joint", "--diag", "2", "--kind", "nonempty",
              "--cols", "1,2", "--n", "6", "--a", "1", "--b", "1")
    lines = out.splitlines()
    assert lines[0] == "route,value,note"
    routes = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert routes == {"closed": "0", "exact_dp": "0", "oracle": "0"}


def test_joint_second_diag_routes_agree(runner):
    out = json.loads(run(runner, "joint", "--diag", "2", "--kind", "alpha",
                         "--cols", "1,3", "--n", "7", "--a", "2", "--b", "1/3",
                         "--json"))
    values = {row["route"]: row["value"] for row in out}
    assert values["closed"] == values["exact_dp"] == values["oracle"]
    assert Fraction(values["closed"]) > 0


def test_joint_second_diag_at_the_kernel_ceiling_matches_the_closed_form(runner):
    # the counting pass runs on the corner of rows 14-21 and columns 2-9
    out = json.loads(run(runner, "joint", "--diag", "2", "--kind", "alpha",
                         "--cols", "2,5,8", "--n", "22", "--a", "13/7", "--b", "1000/3",
                         "--json"))
    values = {row["route"]: row["value"] for row in out}
    assert set(values) == {"closed", "exact_dp"}
    assert values["closed"] == values["exact_dp"] == "1612171188621/83694063951232460000"


def test_joint_third_diag_reports_main_term_and_exact(runner):
    out = run(runner, "joint", "--diag", "3", "--kind", "alpha",
              "--cols", "1,4", "--n", "8", "--a", "1/2", "--b", "3")
    lines = out.splitlines()
    assert lines[1].startswith("main_term,") and "remainder_order_3" in lines[1]
    assert lines[2].startswith("exact_dp,") and lines[2].endswith(",exact")


def test_joint_third_diag_adjacent_columns_order_only(runner):
    out = run(runner, "joint", "--diag", "3", "--kind", "nonempty",
              "--cols", "2,3", "--n", "9")
    assert "order_only" in out.splitlines()[1]


def test_joint_rejects_columns_off_the_diagonal(runner):
    run(runner, "joint", "--diag", "2", "--kind", "alpha", "--cols", "9",
        "--n", "6", expect=2)


def test_moments_second_diag_golden(runner):
    out = run(runner, "moments", "--diag", "2", "--kind", "alpha",
              "--n", "10", "--a", "1", "--b", "1", "--r", "3")
    assert out == "r,value\n1,9/22\n2,7/60\n3,5/264\n"


def test_moments_third_diag_modes_differ_but_lead_identically(runner):
    exact = run(runner, "moments", "--diag", "3", "--kind", "nonempty",
                "--n", "12", "--r", "2")
    main = run(runner, "moments", "--diag", "3", "--kind", "nonempty",
               "--n", "12", "--r", "2", "--mode", "main_term")
    assert exact != main
    assert exact.splitlines()[0] == main.splitlines()[0] == "r,value"


def test_moments_rejects_order_past_cap(runner):
    run(runner, "moments", "--diag", "2", "--kind", "alpha", "--n", "4",
        "--r", "9", expect=2)


def test_pmf_matches_counting_engine(runner):
    out = json.loads(run(runner, "pmf", "--stat", "A2", "--n", "5", "--json"))
    law = dpcount.statistic_pmf(5, Weights(1, 1), "A2")
    assert {int(row["k"]): Fraction(row["probability"]) for row in out} \
        == law.as_dict()


def test_pmf_rejects_unknown_statistic(runner):
    result = runner.invoke(cli.main, ["pmf", "--stat", "Z9", "--n", "5"])
    assert result.exit_code == 2


def test_converge_golden_and_decreasing(runner):
    out = run(runner, "converge", "--stat", "X2", "--ns", "8,16,32",
              "--a", "1", "--b", "1")
    lines = out.splitlines()
    assert lines[0] == "n,r1,r2,r3,r4,tv"
    assert all(len(line.split(",")) == len(lines[0].split(",")) for line in lines)
    tvs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert tvs == sorted(tvs, reverse=True) and len(tvs) == 3


# sha256 of the stdout recorded before the rate and process-count knobs
# were removed from convergence_report
CONVERGE_DIGESTS = {
    (): "5454138c7ef977e20f935bff5e1720137b5dd2cd4e73029ed065a3372fc7eec9",
    ("--json",): "993d5ee2c950f902c95521f12fae3cb81fec0d88da1a896c5d34d1206c8177f3",
}


@pytest.mark.parametrize("extra", sorted(CONVERGE_DIGESTS), ids=repr)
def test_converge_output_is_pinned(runner, extra):
    out = run(runner, "converge", "--stat", "A2", "--ns", "6,10", "--a", "1/2", "--b", "3",
              *extra)
    assert hashlib.sha256(out.encode()).hexdigest() == CONVERGE_DIGESTS[extra]


def test_sample_output_round_trips(runner):
    out = run(runner, "sample", "--n", "4", "--a", "1", "--b", "2",
              "--count", "3", "--seed", "11")
    header, *blocks = out.split("\n\n")
    head_line, first_block = header.split("\n", 1)
    assert json.loads(head_line) == {
        "n": 4, "a": "1", "b": "2", "seed": 11,
        "method": "chain_rule", "count": 3,
    }
    texts = [first_block] + [b for b in blocks if b]
    assert len(texts) == 3
    for text in texts:
        t = Tableau.parse(text)
        assert t.n == 4 and t.is_valid


def test_sample_is_deterministic_per_seed(runner):
    args = ("sample", "--n", "5", "--count", "4", "--seed", "3",
            "--method", "enum_alias")
    assert run(runner, *args) == run(runner, *args)
    other = run(runner, "sample", "--n", "5", "--count", "4", "--seed", "4",
                "--method", "enum_alias")
    assert other != run(runner, *args)


def test_sample_refuses_an_alias_table_over_budget(runner, monkeypatch, fresh_ledger):
    fresh_ledger()
    monkeypatch.setattr(_budget, "_MEM_BUDGET", sampler._shape_bytes(9) - 1)
    tracemalloc.start()
    try:
        result = runner.invoke(cli.main, ["sample", "--n", "9", "--method", "enum_alias",
                                          "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2
    assert "the enumeration tree for n=9 would need about 1.4 MB; use a smaller size" \
        in result.output
    assert peak < 100_000


def test_sample_draws_at_size_nine_by_enum_alias(runner):
    header, *blocks = run(runner, "sample", "--n", "9", "--count", "5", "--seed", "7",
                          "--method", "enum_alias").split("\n\n")
    head_line, first_block = header.split("\n", 1)
    assert json.loads(head_line)["n"] == 9
    texts = [first_block] + [b for b in blocks if b]
    assert len(texts) == 5
    for text in texts:
        t = Tableau.parse(text)
        assert t.n == 9 and t.is_valid


def test_sample_requires_seed(runner):
    result = runner.invoke(cli.main, ["sample", "--n", "3"])
    assert result.exit_code == 2
    assert "--seed" in result.output


def test_sample_validates_before_emitting_anything(runner):
    result = runner.invoke(cli.main, ["sample", "--n", "99", "--seed", "1"])
    assert result.exit_code == 2
    assert not any(line.startswith("{") for line in result.output.splitlines())


def test_asep_verify_reports_matching_convention(runner):
    for n in (2, 7, 9):
        out = json.loads(run(runner, "asep-verify", "--n", str(n),
                             "--rates", "2,1,3,1,1,1/2"))
        assert out["matching_conventions"] == ["alpha_delta"]
        states = {row["state"] for conv in out["conventions"]
                  for row in conv["per_state"]}
        assert states == {format(s, f"0{n}b") for s in range(1 << n)}


def test_asep_verify_rejects_bad_rates(runner):
    run(runner, "asep-verify", "--n", "2", "--rates", "1,1,1,1,1", expect=2)
    run(runner, "asep-verify", "--n", "2", "--rates", "-1,1,1,1,1,0", expect=2)


def test_selftest_passes(runner):
    out = run(runner, "selftest")
    lines = out.splitlines()
    assert len(lines) == 11 and all(line.startswith("ok ") for line in lines)
    assert {"ok conditional_laws_match_oracle", "ok convergence_rows",
            "ok ssep_law_matches_counting_engine"} <= set(lines)


def test_selftest_exits_three_on_mismatch(runner, monkeypatch):
    monkeypatch.setattr(cli, "_selftest_suites",
                        lambda: [("forced_failure", lambda: False)])
    result = runner.invoke(cli.main, ["selftest"])
    assert result.exit_code == 3
    assert "MISMATCH forced_failure" in result.output


@pytest.mark.parametrize("suite, module, name", [
    ("box_laws_match_counting_engine", formulas, "box_law"),
    ("conditional_laws_match_oracle", enumeration, "oracle_event_prob"),
    ("conditional_laws_match_oracle", dpcount, "conditional_cell_law"),
    ("moment_formulas_match_oracle", moments, "factorial_moments_second_diag"),
    ("convergence_rows", moments, "convergence_report"),
    ("ssep_law_matches_counting_engine", dpcount, "event_prob")])
def test_selftest_names_a_suite_whose_route_is_planted_wrong(runner, monkeypatch,
                                                             suite, module, name):
    # the route runs at the swapped weights, or the oracle finds the
    # conditioning event impossible
    real = getattr(module, name)
    if name == "oracle_event_prob":
        monkeypatch.setattr(module, name, lambda *args: Fraction(0))
    else:
        monkeypatch.setattr(module, name, lambda first, w, *rest: real(first, w.swapped(), *rest))
    check = dict(cli._selftest_suites())[suite]
    monkeypatch.setattr(cli, "_selftest_suites", lambda: [(suite, check)])
    result = runner.invoke(cli.main, ["selftest"])
    assert result.exit_code == 3
    assert result.output == f"MISMATCH {suite}\n"


def test_rational_option_reads_decimals_exactly(runner):
    decimal = run(runner, "count", "--n", "3", "--a", "0.5", "--b", "0.25")
    slashed = run(runner, "count", "--n", "3", "--a", "1/2", "--b", "1/4")
    assert decimal == slashed
    run(runner, "count", "--n", "3", "--a", "half", expect=2)


# One path per library call a command makes: each refusal prints the
# command's usage line and the library's own message, and exits 2.
REFUSALS = [
    (("count", "--n", "3", "--four", "0,1,0,1"),
     "alpha+gamma and beta+delta must be positive"),
    (("count", "--n", "-1"), "size must be nonnegative"),
    (("prob", "--n", "4", "--box", "3,3"), "box (3, 3) lies outside the size-4 staircase"),
    (("prob", "--n", "4", "--a", "0", "--b", "0", "--box", "1,1"),
     "a and b must not both be zero"),
    (("joint", "--diag", "2", "--kind", "alpha", "--cols", "1", "--n", "1"),
     "the second diagonal is empty below size 2, got n=1"),
    (("joint", "--diag", "3", "--kind", "nonempty", "--cols", "1", "--n", "2"),
     "the third diagonal is empty below size 3, got n=2"),
    (("moments", "--diag", "2", "--kind", "alpha", "--n", "5", "--r", "9"),
     "R must lie in 1..3, got 9"),
    (("moments", "--diag", "3", "--kind", "beta", "--n", "30", "--r", "1"),
     "size must be in 1..22, got 30"),
    (("pmf", "--stat", "A3", "--n", "30"), "size must be in 1..22, got 30"),
    (("converge", "--stat", "A2", "--ns", "4,-1"), "size must be at least 1, got -1"),
    (("sample", "--n", "10", "--method", "enum_alias", "--seed", "1"),
     "size must be in 1..9, got 10"),
    (("asep-verify", "--n", "2", "--rates", "-1,1,1,1,1,0"), "alpha must be nonnegative, got -1"),
    (("asep-verify", "--n", "11", "--rates", "2,1,3,1,1,1/2"), "size must be in 1..10, got 11"),
    (("asep-verify", "--n", "2", "--rates", "0,1,0,1,1,0"),
     "the chain is reducible with these rates; the stationary law is not unique"),
]


@pytest.mark.parametrize("args,message", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_library_refusals_print_the_usage_and_the_library_message(runner, args, message):
    command = args[0]
    assert run(runner, *args, expect=2) == (
        f"Usage: main {command} [OPTIONS]\n"
        f"Try 'main {command} --help' for help.\n\n"
        f"Error: {message}\n")


def test_converge_refuses_sizes_that_are_not_integers(runner):
    assert run(runner, "converge", "--stat", "A2", "--ns", "8,x", expect=2) == (
        "Usage: main converge [OPTIONS]\n"
        "Try 'main converge --help' for help.\n\n"
        "Error: --ns must be comma-separated integers, got '8,x'\n")
