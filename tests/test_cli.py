"""End-to-end command-line checks through real subprocesses, and
in-process runs whose library calls are patched to fail."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

import sigbounds
from sigbounds import bounds, characteristics, cli, oracle
from sigbounds.bounds import BoundError, Side
from sigbounds.catalogue import all_entries, lookup
from sigbounds.oracle import (GF_SUPPORTED, BudgetExceededError, SweepRow,
                              brute_extrema, sharpness_report)
from sigbounds.properties import overlap_class
from sigbounds.series import Aggregator, Domain, Feature

FIGURE = "4,4,0,0,2,4,4,7,4,0,0,2,2,2,2,2,2,0"
# the subprocesses run the same package the tests import
SRC = os.path.dirname(os.path.dirname(sigbounds.__file__))


def run(*args: str):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, full_env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "sigbounds", *args],
        capture_output=True, text=True, env=full_env, timeout=300,
    )


def roundtrips(stdout: str) -> dict:
    """Parse JSON output and check it re-serializes byte-identically."""
    payload = json.loads(stdout)
    assert json.dumps(payload, indent=2, sort_keys=True) == stdout.strip()
    return payload


def md_cells(stdout: str) -> list[int]:
    """The cell count of each line of an md table, an escaped ``\\|``
    being no cell border."""
    return [len(line.replace("\\|", "").split("|")) - 2
            for line in stdout.strip().split("\n")]


class TestTopLevel:
    def test_version(self):
        p = run("--version")
        assert p.returncode == 0
        assert "0.1.0" in p.stdout

    def test_help_lists_subcommands(self):
        p = run("--help")
        assert p.returncode == 0
        for cmd in ("chars", "bound", "eval", "verify", "table"):
            assert cmd in p.stdout


class TestChars:
    def test_human_fields(self):
        p = run("chars", "peak")
        assert p.returncode == 0
        assert "width     : 2" in p.stdout
        assert "height    : 1" in p.stdout
        assert "inducing  : <>" in p.stdout
        assert "overlap   : 1" in p.stdout
        assert "variation : 0" in p.stdout

    def test_json_round_trip(self):
        p = run("chars", "peak", "--format", "json")
        assert p.returncode == 0
        payload = roundtrips(p.stdout)
        assert payload["schema_version"] == 1
        assert payload["width"] == 2
        assert payload["inducing_words"] == ["<>"]

    def test_raw_expression(self):
        p = run("chars", "<>")
        assert p.returncode == 0
        assert "width     : 2" in p.stdout

    def test_md_and_csv_rows(self):
        md = run("chars", "peak", "--format", "md")
        assert md.returncode == 0
        lines = md.stdout.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("| pattern | expr | a | b | domain |")
        assert lines[2] == ("| peak | <(<\\|=)*(>\\|=)*> | 1 | 1 | 0:1 | 3 | 6 "
                            "| 2 | 1 | 1 | 0 | 0 | <> | 1 | 0 |")
        csv_out = run("chars", "peak", "--format", "csv")
        assert csv_out.returncode == 0
        assert csv_out.stdout.strip().split("\n")[1] == \
            "peak,<(<|=)*(>|=)*>,1,1,0:1,3,6,2,1,1,0,0,<>,1,0"

    def test_length_below_two_exits_two(self):
        p = run("chars", "peak", "--n", "1")
        assert p.returncode == 2
        assert p.stderr == "error: series length must be at least 2\n"

    def test_parse_error_exits_two(self):
        p = run("chars", "((")
        assert p.returncode == 2
        assert p.stderr.startswith("error:")
        assert "unbalanced parenthesis (column 3)" in p.stderr

    def test_unknown_pattern_suggests(self):
        p = run("chars", "peeak")
        assert p.returncode == 2
        assert "did you mean" in p.stderr
        assert "peak" in p.stderr

    def test_mistyped_name_with_regex_characters_suggests(self):
        for token in ("peak1", "steady+"):
            p = run("chars", token)
            assert p.returncode == 2, token
            assert "did you mean" in p.stderr, token
            assert "unexpected" not in p.stderr, token
        assert "did you mean: peak" in run("chars", "peak1").stderr

    def test_regex_syntax_alone_is_a_raw_expression(self):
        # "1" is the empty word: parsed, then refused for its language
        p = run("chars", "1")
        assert p.returncode == 2
        assert "no nonempty word in the language" in p.stderr
        assert "unknown pattern" not in p.stderr

    def test_a_branch_without_nonempty_word_adds_nothing(self):
        # the same nonempty words, so the same occurrences and report
        for nullable, plain in (("<?", "<"), ("(<>)?", "<>"),
                                ("=*<|1", "=*<")):
            got = [run("chars", expr, "--format", "json")
                   for expr in (nullable, plain)]
            assert [p.returncode for p in got] == [0, 0], nullable
            a, b = (roundtrips(p.stdout) for p in got)
            for payload in (a, b):
                del payload["pattern"], payload["expr"]
            assert a == b, nullable

    def test_raw_expression_keeps_the_parse_error_column(self):
        p = run("chars", "<x>")
        assert p.returncode == 2
        assert "unexpected 'x' (column 2)" in p.stderr

    def test_cap_below_width_exits_two(self):
        # probes up to 4 letters see no word of width 5 and read overlap 0
        p = run("chars", "bump_on_decreasing_sequence", "--hi", "4",
                "--cap", "2")
        assert p.returncode == 2
        assert "cap 2 is below 3" in p.stderr

    def test_long_series_range_without_template(self):
        p = run("chars", "(<<)*>+", "--n", "1000", "--hi", "3")
        assert p.returncode == 0
        assert "range     : 500" in p.stdout
        # the whole report, byte for byte
        p = run("chars", "(<<)*>+", "--n", "250", "--hi", "3")
        assert p.returncode == 0
        assert p.stdout == (
            "pattern   : (<<)*>+\n"
            "expr      : (<<)*>+  (a=0, b=0)\n"
            "domain    : [0,3]  n=250  cap=4\n"
            "width     : 1\n"
            "height    : 1\n"
            "range     : 125\n"
            "range fit : e=- c=-\n"
            "inducing  : >\n"
            "overlap   : 1\n"
            "variation : 0\n")

    def test_one_sided_pattern_at_a_deep_cap(self):
        # every word holds ``>``, so a pair varying by 0 settles it
        p = run("chars", "(<|=)*>(<|=)*", "--hi", "2", "--cap", "7")
        assert p.returncode == 0
        assert p.stdout == (
            "pattern   : (<|=)*>(<|=)*\n"
            "expr      : (<|=)*>(<|=)*  (a=0, b=0)\n"
            "domain    : [0,2]  n=2  cap=7\n"
            "width     : 1\n"
            "height    : 1\n"
            "range     : 1\n"
            "range fit : e=0 c=0\n"
            "inducing  : >\n"
            "overlap   : unbounded(cap=9)\n"
            "variation : 0\n")


class TestBound:
    def test_human_output(self):
        p = run("bound", "nb", "peak", "--side", "upper", "--n", "6")
        assert p.returncode == 0
        assert "value         : 2" in p.stdout
        assert "sharp         : yes" in p.stdout
        assert "source        : nb-interval-structure" in p.stdout
        assert "m_used        : 6" in p.stdout

    def test_json_round_trip(self):
        p = run("bound", "nb", "peak", "--side", "upper", "--n", "6",
                "--format", "json")
        assert p.returncode == 0
        payload = roundtrips(p.stdout)
        assert payload["value"] == 2
        assert payload["sharp"] is True
        assert payload["m_used"] == 6

    def test_md_and_csv_rows(self):
        row = ("peak", "sum", "one", "upper", "6", "0:1", "2", "true",
               "nb-interval-structure", "6",
               "occurrence-feasible=ok nb-overlap=ok")
        md = run("bound", "nb", "peak", "--side", "upper", "--n", "6",
                 "--format", "md")
        assert md.returncode == 0
        lines = md.stdout.strip().split("\n")
        assert len(lines) == 3
        assert lines[2] == "| " + " | ".join(row) + " |"
        csv_out = run("bound", "nb", "peak", "--side", "upper", "--n", "6",
                      "--format", "csv")
        assert csv_out.returncode == 0
        assert csv_out.stdout.strip().split("\n")[1] == ",".join(row)

    def test_missing_property_exits_three(self):
        p = run("bound", "max_width", "bump", "--side", "upper",
                "--n", "7", "--hi", "2")
        assert p.returncode == 3
        assert "required property missing: width-max" in p.stderr

    def test_no_rule_exits_three(self):
        p = run("bound", "min_width", "dec", "--side", "lower",
                "--n", "5", "--hi", "2")
        assert p.returncode == 3

    def test_bad_length_exits_two(self):
        p = run("bound", "nb", "peak", "--side", "upper", "--n", "1")
        assert p.returncode == 2

    def test_empty_language_exits_two_on_either_side(self):
        # a language with no nonempty word is bad input, not a pattern no
        # rule covers, whichever side is asked for
        for expr in ("1", "0", "()", "0|1"):
            for side in ("lower", "upper"):
                p = run("bound", "nb", expr, "--side", side, "--n", "5",
                        "--hi", "2")
                assert p.returncode == 2, (expr, side)
                assert p.stderr == (
                    f"error: {expr}: no nonempty word in the language\n"), \
                    (expr, side)

    def test_bad_gf_token_exits_two(self):
        p = run("bound", "widest", "peak", "--side", "upper", "--n", "5")
        assert p.returncode == 2
        assert "unknown aggregator/feature token" in p.stderr

    def test_negative_cap_exits_two(self):
        # bounds read the default cap, the one verify certifies: a cap of
        # -1 or -9 would see no word and claim a sharp bound
        for gf, side in [("nb", "upper"), ("nb", "lower"),
                         ("max_width", "upper"), ("sum_width", "upper"),
                         ("min_width", "lower")]:
            p = run("bound", gf, "peak", "--side", side, "--n", "7",
                    "--cap", "-9")
            assert p.returncode == 2, (gf, side)
            assert "No such option '--cap'" in p.stderr, (gf, side)
        p = run("bound", "nb", "peak", "--side", "upper", "--n", "7")
        assert p.returncode == 0
        assert "value         : 3" in p.stdout

    def test_gf_tokens_group_the_rule_table(self):
        grouped = [c for combos in cli._VERIFY_GF.values() for c in combos]
        assert grouped == list(GF_SUPPORTED)
        assert sorted(cli._VERIFY_GF) == [
            "max_width", "min_width", "nb", "sum_width"]
        for token, combos in cli._VERIFY_GF.items():
            assert {c[:2] for c in combos} == {cli._parse_gf(token)}


class TestEval:
    def test_figure_series(self):
        p = run("eval", "min_width", "peak", "--series", FIGURE)
        assert p.returncode == 0
        assert "occurrences : 2" in p.stdout
        assert "(4,9)  trimmed 5..9  width=5" in p.stdout
        assert "(11,17)  trimmed 12..17  width=6" in p.stdout
        assert "min of width = 5" in p.stdout

    def test_sum_of_widths(self):
        p = run("eval", "sum_width", "gorge", "--series", "2,0,1,1,2")
        assert p.returncode == 0
        assert "sum of width = 3" in p.stdout

    def test_json_round_trip(self):
        p = run("eval", "min_width", "peak", "--series", FIGURE,
                "--format", "json")
        assert p.returncode == 0
        payload = roundtrips(p.stdout)
        assert payload["value"] == 5
        assert payload["occurrences"][0] == {
            "i": 4, "j": 9, "trim_lo": 5, "trim_hi": 9, "width": 5}

    def test_md_and_csv_rows(self):
        md = run("eval", "min_width", "peak", "--series", FIGURE,
                 "--format", "md")
        assert md.returncode == 0
        assert md.stdout.split("\n")[2:] == [
            "| 4 | 9 | 5 | 9 | 5 |", "| 11 | 17 | 12 | 17 | 6 |",
            "min of width = 5", ""]
        csv_out = run("eval", "min_width", "peak", "--series", FIGURE,
                      "--format", "csv")
        assert csv_out.returncode == 0
        assert csv_out.stdout.split("\n") == [
            "i,j,trim_lo,trim_hi,width", "4,9,5,9,5", "11,17,12,17,6",
            "min of width = 5", ""]

    def test_malformed_series_exits_two(self):
        p = run("eval", "nb", "peak", "--series", "1,x,3")
        assert p.returncode == 2


class TestVerify:
    def test_single_pattern_passes(self):
        p = run("verify", "peak", "--max-n", "5")
        assert p.returncode == 0
        assert "rows 60" in p.stdout
        assert "failed 0" in p.stdout
        assert p.stdout.rstrip().endswith("PASS")

    def test_raw_expression(self):
        p = run("verify", "<*>>|<")
        assert p.returncode == 0
        assert "failed 0" in p.stdout

    def test_language_without_nonempty_word_is_bad_input(self):
        for expr in ("1", "0", "()", "0|1"):
            p = run("verify", expr, "--max-n", "3")
            assert p.returncode == 2, expr
            assert p.stderr == \
                f"error: {expr}: no nonempty word in the language\n"
            assert "Traceback" not in p.stderr
        # a branch of the empty word alone adds no occurrence: the
        # language's nonempty words answer every row
        p = run("verify", "<|1", "--max-n", "3", "--format", "json")
        assert p.returncode == 0
        rows = roundtrips(p.stdout)["rows"]
        assert not any("nonempty" in (r["skip"] or "") for r in rows)
        assert {r["source"] for r in rows if r["side"] == "lower"
                and r["f"] == "one"} == {"nb-simple-lower"}

    def test_max_n_below_two_exits_two(self):
        p = run("verify", "peak", "--max-n", "1")
        assert p.returncode == 2
        assert p.stderr == "error: --max-n must be at least 2\n"

    def test_failing_rows_print_their_counterexamples(self, monkeypatch):
        # every bound one step too tight; the wrapper keeps the original,
        # since the sweep looks bounds.bound up when it runs
        bound = bounds.bound

        def too_tight(g, f, side, spec, n, d):
            r = bound(g, f, side, spec, n, d)
            step = -1 if side is Side.UPPER else 1
            return dataclasses.replace(r, value=r.value + step)

        monkeypatch.setattr(bounds, "bound", too_tight)
        got = CliRunner().invoke(cli.main, ["verify", "peak", "--max-n", "4"])
        assert got.exit_code == 1
        lines = got.output.strip().split("\n")
        assert lines[-1] == "FAIL"
        failed = int(re.search(r"failed (\d+)", got.output).group(1))
        fails = [line for line in lines[:-1] if line.startswith("FAIL ")]
        assert len(fails) == failed > 0
        line = next(line for line in fails
                    if " max_width upper n=4 d=0:2:" in line)
        witness = brute_extrema(lookup("peak").spec, Feature.WIDTH,
                                Aggregator.MAX, 4, Domain(0, 2)).witness_max
        assert line.endswith(f"counterexample {witness}")

    def test_requires_names_or_all(self):
        p = run("verify")
        assert p.returncode == 2
        assert "give pattern names or --all" in p.stderr

    def test_oversized_request_exits_four_quickly(self):
        p = run("verify", "peak", "--max-n", "30")
        assert p.returncode == 4
        assert "exceed budget" in p.stderr

    def test_small_budget_exits_four(self):
        p = run("verify", "peak", "--max-n", "5", "--budget", "10")
        assert p.returncode == 4

    def test_negative_budget_is_bad_input(self):
        p = run("verify", "peak", "--budget", "-5")
        assert p.returncode == 2
        assert "budget must be nonnegative, got -5" in p.stderr

    def test_json_report(self):
        p = run("verify", "dec", "--max-n", "3", "--domains", "0:2",
                "--format", "json")
        assert p.returncode == 0
        payload = roundtrips(p.stdout)
        assert payload["summary"]["failed"] == 0
        assert len(payload["rows"]) == 10

    def test_csv_rows(self):
        p = run("verify", "dec", "--max-n", "3", "--domains", "0:2",
                "--format", "csv")
        assert p.returncode == 0
        lines = p.stdout.strip().split("\n")
        assert len(lines) == 11
        assert lines[0].startswith("pattern,g,f,side,n,domain,bound")

    def test_md_and_csv_read_each_row_once(self, monkeypatch):
        to_json = SweepRow.to_json
        calls = []

        def counted(row):
            calls.append(row)
            return to_json(row)

        monkeypatch.setattr(SweepRow, "to_json", counted)
        for fmt, head in (("csv", 1), ("md", 2)):
            calls.clear()
            got = CliRunner().invoke(
                cli.main, ["verify", "peak", "--max-n", "4", "--format", fmt])
            assert got.exit_code == 0, fmt
            rows = len(got.output.strip().split("\n")) - head
            assert len(calls) == rows > 0, fmt

    def test_csv_rows_are_the_report_rows_in_order(self):
        got = CliRunner().invoke(
            cli.main, ["verify", "peak", "--max-n", "4", "--format", "csv"])
        assert got.exit_code == 0
        rows = list(csv.reader(got.output.strip().split("\n")))
        rep = sharpness_report([lookup("peak").spec], n_range=range(2, 5))
        assert rows[0] == list(SweepRow._fields)
        assert rows[1:] == [[cli._cell(v) for v in r.to_json().values()]
                            for r in rep.rows]

    def test_gf_restriction(self):
        p = run("verify", "--all", "--gf", "nb", "--max-n", "3",
                "--domains", "0:1")
        assert p.returncode == 0
        assert "rows 88" in p.stdout


class TestTable:
    def test_patterns_row_count(self):
        human = run("table", "patterns")
        assert human.returncode == 0
        assert len(human.stdout.strip().split("\n")) == 23
        csv_out = run("table", "patterns", "--format", "csv")
        assert len(csv_out.stdout.strip().split("\n")) == 23
        md = run("table", "patterns", "--format", "md")
        assert len(md.stdout.strip().split("\n")) == 24

    def test_patterns_json(self):
        p = run("table", "patterns", "--format", "json")
        payload = roundtrips(p.stdout)
        assert len(payload["rows"]) == 22
        assert payload["rows"][0]["name"] == "bump_on_decreasing_sequence"

    def test_characteristics_match_catalogue(self):
        p = run("table", "characteristics", "--diff-golden",
                "--format", "csv")
        assert p.returncode == 0
        rows = list(csv.reader(p.stdout.strip().split("\n")))
        assert rows[0][-1] == "diff"
        assert len(rows) == 23
        assert all(r[-1] == "ok" for r in rows[1:])

    def test_properties_csv_labels_are_the_class_names(self):
        got = CliRunner().invoke(
            cli.main, ["table", "properties", "--format", "csv"])
        assert got.exit_code == 0
        rows = list(csv.reader(got.output.strip().split("\n")))
        specs = {e.name: e.spec for e in all_entries()}
        assert rows[0][:2] == ["name", "class"]
        assert sorted(r[0] for r in rows[1:]) == sorted(specs)
        for name, label, *_ in rows[1:]:
            assert label == overlap_class(specs[name]).title(), name

    def test_properties_grouping(self):
        p = run("table", "properties")
        assert p.returncode == 0
        for label in ("Overlapping:", "Non-Overlapping:", "Mixed:",
                      "Special:"):
            assert label in p.stdout
        assert "  peak  (overlap 1 at height span, 1 two wider)" in p.stdout


def test_md_cells_escape_the_bar():
    # a | inside a cell is written \|, so every md line has the header's
    # cells: 8 catalogue expressions, a raw regex and a skip reason hold one
    for args in (["table", "patterns"], ["chars", "<|>"],
                 ["verify", "<|>", "--max-n", "2", "--domains", "0:1"]):
        p = run(*args, "--format", "md")
        assert p.returncode == 0, args
        cells = md_cells(p.stdout)
        assert cells == [cells[0]] * len(cells), args
    assert "| decreasing_sequence | (>(>\\|=)*)*> | 0 | 0 |" in run(
        "table", "patterns", "--format", "md").stdout


# one library call each command makes, with arguments that reach it
_COMMAND_CALLS = {
    "chars": (characteristics, "report", ["chars", "peak"]),
    "bound": (bounds, "bound",
              ["bound", "nb", "peak", "--side", "upper", "--n", "9"]),
    "eval": (cli, "_maximal_spans",
             ["eval", "nb", "peak", "--series", FIGURE]),
    "verify": (oracle, "sharpness_report", ["verify", "peak", "--max-n", "3"]),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_CALLS))
@pytest.mark.parametrize("error, code", [(BoundError, 3),
                                         (BudgetExceededError, 4),
                                         (ValueError, 2)])
def test_every_command_maps_an_error_to_its_exit_code(monkeypatch, command,
                                                      error, code):
    # one boundary maps the errors of every command alike, wherever in
    # the library they are raised
    module, name, args = _COMMAND_CALLS[command]

    def refuse(*_args, **_kwargs):
        raise error("refused here")

    monkeypatch.setattr(module, name, refuse)
    got = CliRunner().invoke(cli.main, args)
    assert (got.exit_code, got.stdout, got.stderr) == \
        (code, "", "error: refused here\n")
