"""Command line contract tests.

Subprocess tests pin the external behavior (exit codes, output bytes,
schema); in-process tests cover row assembly and serialization rules
that are awkward to reach through argv.
"""

import csv
import dataclasses
import inspect
import io
import json
import math
import subprocess
import sys

import pytest

import frachh.cli
import frachh.inequalities
import frachh.numerics
from frachh.cli import (CSV_COLUMNS, RunConfig, UsageError, _config_from,
                        _fmt_float, _render_csv, _render_json, _sort_key,
                        _worst_status, build_parser, main, run_rows)
from frachh.fracops import FracSetting
from frachh.functions import (ConvexityKind, FunctionSpec, WeightSpec,
                              builtin_weight_corpus)
from frachh.inequalities import Report

SEED = "271828"  # matches the default corpus seed used in library tests


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "frachh", *args],
                          capture_output=True, text=True)


class TestExitCodes:
    def test_holds_is_zero(self):
        proc = run_cli("verify", "--thm", "hh-classical", "--f", "sq")
        assert proc.returncode == 0, proc.stderr

    def test_violated_is_one(self):
        # printed power-mean bound genuinely fails on a width-2 interval
        proc = run_cli("verify", "--thm", "bound-2-5", "--f", "quad-rand",
                       "--g", "one", "--a", "1", "--b", "3",
                       "--alpha", "0.5", "--q", "1.5", "--seed", SEED)
        assert proc.returncode == 1
        assert '"status": "Violated"' in proc.stdout

    def test_unknown_theorem_is_three(self):
        proc = run_cli("verify", "--thm", "no-such-thing", "--f", "sq")
        assert proc.returncode == 3
        assert "error:" in proc.stderr

    def test_bad_grid_is_three(self):
        proc = run_cli("corpus", "--alpha-grid=-1,2")
        assert proc.returncode == 3
        assert "positive" in proc.stderr

    def test_empty_grid_is_three(self):
        proc = run_cli("corpus", "--alpha-grid", ",")
        assert proc.returncode == 3

    def test_restricted_alpha_is_three(self):
        proc = run_cli("verify", "--thm", "bound-2-7", "--f", "sq",
                       "--g", "one", "--alpha", "1.5", "--q", "2")
        assert proc.returncode == 3
        assert "restricted to 0 < alpha <= 1" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["sweep", "--thm", "bound-2-7", "--f", "sq", "--g", "one",
         "--alpha-grid", "2"],
        ["corpus", "--theorems", "lemma-1-6", "--alpha-grid", "2"],
        ["corpus", "--theorems", "hh-classical,lemma-1-6", "--alpha-grid",
         "2,3"],
    ])
    def test_named_grid_above_max_alpha_is_three(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 3, proc.stdout
        assert "restricted to 0 < alpha <= 1, got 2.0" in proc.stderr
        assert proc.stdout == ""

    def test_grid_partly_above_max_alpha_skips(self):
        proc = run_cli("sweep", "--thm", "bound-2-7", "--f", "sq", "--g",
                       "one", "--alpha-grid", "0.5,2", "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert {row["alpha"] for row in rows} == {"0.5"}
        proc = run_cli("corpus", "--theorems", "all", "--alpha-grid", "2",
                       "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        theorems = {row["theorem"]
                    for row in csv.DictReader(io.StringIO(proc.stdout))}
        assert "bound-2-4" in theorems
        assert not {"bound-2-7", "lemma-1-6"} & theorems

    def test_missing_weight_is_three(self):
        proc = run_cli("verify", "--thm", "fejer-classical", "--f", "sq")
        assert proc.returncode == 3
        assert "needs --g" in proc.stderr

    @pytest.mark.parametrize("argv,flag", [
        (["hh-classical", "--f", "sq", "--alpha", "0.5"], "alpha"),
        (["hh-fractional", "--f", "sq", "--g", "one", "--alpha", "0.5"], "g"),
        (["bound-2-4", "--f", "sq", "--g", "one", "--alpha", "0.5",
          "--q", "3"], "q"),
        (["lemma-2-1", "--g", "one", "--alpha", "0.5", "--q", "2"], "q"),
        (["bound-1-5", "--f", "sq", "--g", "one", "--alpha", "0.5"], "g"),
    ])
    def test_unread_argument_is_three(self, argv, flag, capsys):
        # the statement would run without it, so the user would get a
        # different check than the one asked for
        assert main(["verify", "--thm", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {argv[0]} takes no --{flag}\n"

    @pytest.mark.parametrize("argv,flag", [
        (["lemma-2-1", "--f", "sq", "--g", "one"], "f"),
        (["hh-fractional", "--f", "sq", "--g", "one", "--alpha-grid", "0.5"],
         "g"),
        (["hh-classical", "--f", "sq", "--alpha-grid", "0.5"], "alpha-grid"),
        (["hh-fractional", "--f", "sq", "--q-grid", "3", "--alpha-grid",
          "0.5"], "q-grid"),
    ])
    def test_sweep_unread_argument_is_three(self, argv, flag, capsys):
        # sweep would run without it, printing an empty column or the
        # statement's one cell in place of a grid
        assert main(["sweep", "--thm", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {argv[0]} takes no --{flag}\n"

    @pytest.mark.parametrize("value", ["-1e-3", "-2E3"])
    def test_negative_endpoint_with_exponent(self, value, capsys):
        # argparse alone reads -1e-3 as an unknown option
        assert main(["verify", "--thm", "hh-classical", "--f", "sq",
                     "--a", value, "--b", "1"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["a"] == float(value)

    def test_unknown_label_lists_alternatives(self):
        proc = run_cli("verify", "--thm", "hh-classical", "--f", "cube")
        assert proc.returncode == 3
        assert "unknown function 'cube'" in proc.stderr
        assert "sq" in proc.stderr

    def test_bad_tolerance_is_three(self):
        proc = run_cli("verify", "--thm", "hh-classical", "--f", "sq",
                       "--tol", "2.0")
        assert proc.returncode == 3

    @pytest.mark.parametrize("argv", [
        # |exp'|^2 near 709 exceeds the double range in the power-mean bound
        ["--thm", "bound-2-6", "--f", "exp", "--g", "one", "--alpha", "0.5",
         "--q", "2", "--a", "709", "--b", "709.7"],
        ["--thm", "hh-fractional", "--f", "sq", "--alpha", "200"],
        ["--thm", "aux-integrals", "--alpha", "0.5", "--a", "1e308",
         "--b", "1.7e308"],
    ], ids=["power-mean", "gamma", "float-power"])
    def test_overflow_is_three(self, argv, capsys):
        assert main(["verify", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: overflow")
        # one line, with the message and not an (errno, message) tuple
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert "(34," not in err

    @pytest.mark.parametrize("argv", [
        # a graded mesh keeps a first panel 9 ulps wide, whose rounded
        # centre took a node below a
        *(["verify", "--thm", "identity-2-3", "--f", "sq", "--g", "one",
           "--alpha", alpha, "--a", "1", "--b", "1.000000001"]
          for alpha in ("0.5", "1.25", "1.5", "2.0", "2.5")),
        ["sweep", "--thm", "identity-2-3", "--f", "exp-neg", "--g",
         "parabolic", "--a", "1", "--b", "1.0000000002610487"],
        # |f'|^q under- or overflows at large q
        *(["verify", "--thm", "bound-2-6", "--f", f, "--g", "one", "--alpha",
           "0.5", "--q", "1100"] for f in ("quart", "sq", "exp")),
        ["verify", "--thm", "aux-integrals", "--alpha", "0.5", "--a",
         "1e308", "--b", "1.7e308"],
    ])
    def test_edge_input_exits_without_traceback(self, argv, capsys):
        code = main(argv + ["--format", "text"])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        if code == 3:
            assert err.count("error:") == 1 and err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.parametrize("q", ["1100", "1e17"])
    @pytest.mark.parametrize("f", ["quart", "sq", "exp"])
    @pytest.mark.parametrize("ident", ["bound-2-5", "bound-2-6", "bound-2-7"])
    def test_power_mean_at_large_q_holds(self, ident, f, q, capsys):
        # 0.5^1100 underflows to 0 and 2^1100 overflows: the power mean
        # is scaled by the larger |f'| there, not read as 0 or inf
        assert main(["verify", "--thm", ident, "--f", f, "--g", "one",
                     "--alpha", "0.5", "--q", q]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "Holds"
        assert 0.0 < row["bound"] < math.inf

    def test_overflowing_corpus_entry_spares_the_others(self, capsys):
        # exp overflows on [700, 800]; sq is finite there
        argv = ["--thm", "hh-classical", "--a", "700", "--b", "800",
                "--format", "text"]
        assert main(["verify", "--f", "sq", *argv]) == 0
        assert capsys.readouterr().out.startswith("Holds")
        assert main(["verify", "--f", "exp", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown function 'exp'; available: abs, exp-neg" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("argv", [
        ["--thm", "bound-1-5", "--f", "exp", "--alpha", "0.5",
         "--a", "709", "--b", "709.7"],
        ["--thm", "hh-classical", "--f", "sq", "--a", "1e140", "--b", "1e141"],
        ["--thm", "hh-classical", "--f", "abs", "--a", "1e200",
         "--b", "1e201"],
    ], ids=["nan-observed", "inf-mean", "inf-mean-far"])
    def test_non_finite_report_is_three(self, argv, fmt, capsys):
        # a nan or inf value must not read as Holds (nor as Violated)
        assert main(["verify", *argv, "--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: overflow")

    def test_underflow_is_three(self, capsys):
        # (b-a)^alpha underflows to 0 and divides the fractional mean
        assert main(["corpus", "--a", "0", "--b", "1e-300",
                     "--theorems", "hh-fractional"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: underflow")

    def test_unwritable_out_is_three(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["verify", "--thm", "hh-classical", "--f", "sq",
                     "--out", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {str(path)!r}")

    def test_empty_theorem_list_is_three(self, capsys):
        assert main(["corpus", "--theorems", ","]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "no theorem ids" in err

    @pytest.mark.parametrize("argv,code", [
        (["lemma-1-6", "--alpha", "0.5", "--a", "0", "--b", "1.7e308"], 0),
        (["hh-classical", "--f", "sq", "--a", "1e308", "--b", "1.7e308"], 3),
        (["aux-integrals", "--alpha", "0.5", "--a", "1e308",
          "--b", "1.7e308"], 3),
    ], ids=["lemma-1-6", "hh-classical", "aux-integrals"])
    def test_math_domain_error_in_a_corpus_entry_drops_it(self, argv, code,
                                                          capsys):
        # cos-arch calls math.cos of an overflowed argument there, which
        # raises ValueError; the entry is left out as an overflow would be
        assert main(["verify", "--thm", *argv]) == code
        assert capsys.readouterr().err.count("error:") == (code == 3)

    def test_weightless_statement_ignores_unusable_weights(self, capsys):
        # parabolic overflows on [1e200, 1e201]; lemma-1-6 reads no weight
        assert main(["verify", "--thm", "lemma-1-6", "--a", "1e200",
                     "--b", "1e201", "--alpha", "0.5"]) == 0
        assert '"status": "Holds"' in capsys.readouterr().out

    def test_tiny_interval_without_bump(self, capsys):
        # (b-a)^2 underflows to 0 there, which bump divides by
        code = main(["verify", "--thm", "hh-fractional", "--f", "sq",
                     "--alpha", "0.5", "--a", "0", "--b", "1e-300"])
        assert code in (0, 2)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv,says", [
        *(([*cmd, "--a", "-1e308", "--b", "1e308"], "overflows") for cmd in (
            ["verify", "--thm", "hh-classical", "--f", "sq"],
            ["sweep", "--thm", "hh-classical", "--f", "sq"], ["corpus"])),
        *(([*cmd, "--q-grid", q], "q grid") for q in ("0.5", "1", "inf")
          for cmd in (["corpus", "--theorems", "bound-2-6"],
                      ["corpus", "--theorems", "all"],
                      ["sweep", "--thm", "bound-2-6", "--f", "sq", "--g",
                       "one"])),
        (["verify", "--thm", "bound-2-6", "--f", "sq", "--g", "one",
          "--alpha", "0.5", "--q", "inf"], "need finite q > 1"),
        (["verify", "--thm", "bound-2-6", "--f", "sq", "--g", "one",
          "--alpha", "0.5", "--p", "inf", "--q", "1.0000000000000002"],
         "unrecognized arguments: --p inf"),
        *((argv, "alpha grid") for argv in (
            ["corpus", "--theorems", "hh-classical", "--alpha-grid", "inf"],
            ["corpus", "--alpha-grid", "1e-4,inf"],
            ["sweep", "--thm", "hh-fractional", "--f", "sq", "--alpha-grid",
             "0.5,inf"])),
    ])
    def test_refused_input_is_three(self, argv, says, capsys):
        # refused before any row is run: an overflowing width, an
        # exponent that is not finite and > 1, which a corpus once
        # skipped cell by cell, an order that is not finite, which a
        # sweep once refused after its first cell, and --p: q is the
        # whole Holder pair
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert says in err and "Traceback" not in err

    def test_huge_q_holds(self):
        # the conjugate of q = 1e17 rounds to 1.0 unless nudged above it
        proc = run_cli("verify", "--thm", "bound-2-6", "--f", "exp-neg",
                       "--g", "one", "--alpha", "0.5", "--q", "1e17")
        assert proc.returncode == 0, proc.stderr
        assert '"status": "Holds"' in proc.stdout


class TestOutputFormats:
    def test_json_shape(self):
        proc = run_cli("verify", "--thm", "hh-fractional", "--f", "exp",
                       "--alpha", "0.5")
        data = json.loads(proc.stdout)
        assert set(data) == {"config", "rows"}
        assert data["config"]["seed"] == 42
        assert data["config"]["tol"] == 1e-9
        (row,) = data["rows"]
        assert set(row) == set(CSV_COLUMNS) | {"notes"}
        assert row["status"] == "Holds"
        assert row["theorem"] == "hh-fractional"
        assert isinstance(row["notes"], list)

    def test_report_value_fields_are_the_value_columns(self):
        # rows copy these columns from the Report field of the same name,
        # so a renamed field would leave its column empty
        shared = {"status", "error_budget", "evaluations", "notes", "part"}
        labels = {"theorem", "f", "g", "a", "b", "alpha", "p", "q", "seed"}
        fields = {f.name for f in dataclasses.fields(Report)} - shared
        assert fields == set(CSV_COLUMNS) - labels - shared

    def test_json_floats_survive_round_trip(self):
        proc = run_cli("verify", "--thm", "fejer-fractional", "--f", "sq",
                       "--g", "parabolic", "--alpha", "0.5", "--seed", SEED)
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["lhs"] == pytest.approx(0.075225277806367505, rel=1e-12)
        assert row["mid"] == pytest.approx(0.093136058236455006, rel=1e-12)
        assert row["rhs"] == pytest.approx(0.15045055561273501, rel=1e-12)

    def test_csv_schema(self):
        proc = run_cli("verify", "--thm", "bound-1-5", "--f", "sq",
                       "--alpha", "0.5", "--format", "csv")
        reader = csv.reader(io.StringIO(proc.stdout))
        header = next(reader)
        assert tuple(header) == CSV_COLUMNS
        (record,) = list(reader)
        row = dict(zip(header, record))
        assert row["status"] == "Holds"
        assert row["mid"] == ""  # bounds carry no sandwich fields
        assert float(row["observed"]) == pytest.approx(2.0 / 15.0, rel=1e-9)

    def test_text_format(self):
        proc = run_cli("verify", "--thm", "hh-classical", "--f", "exp",
                       "--format", "text")
        assert proc.stdout.startswith("Holds")
        assert proc.stdout.strip().endswith(
            "rows=1 holds=1 violated=0 inconclusive=0")

    @pytest.mark.parametrize("argv,tag", [
        (["fejer-classical", "--f", "sq", "--g", "cos-arch", "--a", "1000",
          "--b", "1000.0019893438712"], "[1000, 1000.0019893438712]"),
        (["bound-2-6", "--f", "sq", "--g", "one", "--alpha", "0.5", "--q",
          "1.0000000000000002"],
         "q=1.0000000000000002 p=4503599627370497 [0, 1]"),
    ])
    def test_text_tags_name_their_cell(self, argv, tag, capsys):
        # six digits printed both cells as [1000, 1000] and q=1
        main(["verify", "--thm", *argv, "--format", "text"])
        assert tag in capsys.readouterr().out

    def test_out_file(self, tmp_path):
        path = tmp_path / "rows.json"
        proc = run_cli("verify", "--thm", "hh-classical", "--f", "sq",
                       "--out", str(path))
        assert proc.returncode == 0
        assert proc.stdout == ""
        data = json.loads(path.read_text())
        assert data["rows"][0]["theorem"] == "hh-classical"

    def test_theorem_flag_alias(self):
        short = run_cli("verify", "--thm", "hh-classical", "--f", "sq")
        long = run_cli("verify", "--theorem", "hh-classical", "--f", "sq")
        assert short.stdout == long.stdout


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_repeat_runs_are_identical(self, fmt):
        args = ("corpus", "--theorems", "hh-fractional,bound-1-5,lemma-1-6",
                "--alpha-grid", "0.5,1.0", "--format", fmt)
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("argv,cells", [
        (["corpus", "--theorems", "hh-fractional", "--alpha-grid",
          "0.5,0.50"], 8),
        (["sweep", "--thm", "bound-2-6", "--f", "exp", "--g", "one",
          "--alpha-grid", "0.5", "--q-grid", "2,2.0"], 1),
    ])
    def test_repeated_grid_value_runs_once(self, argv, cells, capsys):
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == cells
        assert len({_sort_key(row) for row in rows}) == cells

    def test_one_parser_serves_every_call(self, capsys):
        # main builds its parser on the first call only; a parse, a failed
        # one included, leaves nothing behind for the next call
        argvs = [["verify", "--thm", "hh-classical", "--f", "sq", "--a",
                  "-1e-3", "--seed", "7", "--format", "csv"],
                 ["sweep", "--thm", "hh-fractional", "--f", "sq",
                  "--alpha-grid", "0.5,2"],
                 ["verify", "--thm", "no-such-thing"],
                 ["corpus", "--theorems", "lemma-1-6"],
                 ["verify", "--thm", "hh-classical", "--f", "sq"]]
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append((main(argv), *capsys.readouterr()))
        build_parser.cache_clear()
        assert [(main(argv), *capsys.readouterr()) for argv in argvs] == fresh
        assert build_parser.cache_info().misses == 1

    def test_rows_are_sorted(self):
        proc = run_cli("corpus", "--theorems", "hh-fractional",
                       "--alpha-grid", "1.0,0.25")
        rows = json.loads(proc.stdout)["rows"]
        keys = [(r["theorem"], r["f"], r["alpha"]) for r in rows]
        assert keys == sorted(keys)


class TestTolerance:
    def test_flag_sets_tolerance(self):
        proc = run_cli("verify", "--thm", "hh-classical", "--f", "sq",
                       "--tol", "1e-7")
        assert json.loads(proc.stdout)["config"]["tol"] == 1e-7

    def test_aux_integrals_run_at_the_tolerance(self, monkeypatch, capsys):
        # the end rule meets both parts on one panel at its rounding
        # plateau, in the same 25 evaluations at 1e-6 as at 1e-9, so the
        # tolerance is checked where it reaches the quadrature
        tols = []
        integrate = frachh.inequalities.integrate_odd

        def recording(*args):
            tols.append(args[-1])
            return integrate(*args)

        monkeypatch.setattr(frachh.inequalities, "integrate_odd", recording)
        for tol in ("1e-9", "1e-6"):
            assert main(["verify", "--thm", "aux-integrals", "--alpha", "0.5",
                         "--tol", tol]) == 0
            capsys.readouterr()
        assert tols == [1e-9, 1e-9, 1e-6, 1e-6]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the absolute "
                       "tolerance of J on [0, 1e-6], scaled by 1/(b-a)^alpha, "
                       "gives a budget 1e8 times the values")
    def test_tiny_interval_identity_is_not_vacuous(self, capsys):
        # a Holds must mean the sides agree; today lhs 4.28e-8 and rhs
        # 7.94e-14 Hold under a budget of 8.96e-6
        main(["verify", "--thm", "identity-1-4", "--f", "exp", "--alpha",
              "2.5", "--a", "0", "--b", "1e-6"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert (row["status"] != "Holds" or abs(row["lhs"] - row["rhs"])
                <= 1e-6 * max(abs(row["lhs"]), abs(row["rhs"])))

    def _shifted_narrow_fejer(self, capsys):
        main(["verify", "--thm", "fejer-classical", "--f", "sq", "--g",
              "cos-arch", "--a", "1000", "--b", "1000.0019893438712"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        return row

    def test_shifted_narrow_fejer_is_not_violated(self, capsys):
        # mid 1266.45816185 sits ~4.3e-8 below lhs 1266.4581619, within its
        # budget of 4.66e-8; a pass at tol/100 read it ~5.0e-8 below, past
        # a budget of 4.58e-8, and called the row Violated
        assert self._shifted_narrow_fejer(capsys)["status"] != "Violated"

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: W reads g at "
                       "abscissae rounded to ulp(1000), 5.7e-11 of the "
                       "width, so the margins read -4.3e-8 and 4.4e-8 "
                       "where they are 2.4e-10 and 1.0e-9; the same width "
                       "on [0, 0.0019893438712] Holds")
    def test_shifted_narrow_fejer_holds(self, capsys):
        assert self._shifted_narrow_fejer(capsys)["status"] == "Holds"

    def _wide_large_order_identity(self, capsys):
        main(["verify", "--thm", "identity-1-4", "--f", "exp", "--a", "0",
              "--b", "100", "--alpha", "100"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        return row

    def test_wide_large_order_identity_stops_early(self, capsys):
        # the defect's panels at their rounding floor are set aside: 4,307
        # evaluations on the end rule (5,737 when integer orders took
        # G7/K15 on the product), where without the floor J(f) bisected
        # ~96,000 nodes a side, 195,937 in all
        assert self._wide_large_order_identity(capsys)["evaluations"] <= 20_000

    def test_wide_large_order_identity_holds(self, capsys):
        # the defect's loop stopped on a running sum of its open panels'
        # estimates that had rounded below tol, while their exact sum was
        # far above it: "quadrature tolerance not met".  Re-summed exactly
        # before it stops, the row Holds in 4,307 evaluations
        assert self._wide_large_order_identity(capsys)["status"] == "Holds"

    def test_four_ulp_interval_is_not_violated(self, capsys):
        # G7/K15 on the product (b-t)^0.5 t^2 read a mean of 0.98331 here,
        # Violated under a budget of 0.0132; the end rule integrates the
        # kernel exactly
        main(["verify", "--thm", "hh-fractional", "--f", "sq", "--alpha",
              "1.5", "--a", "1", "--b", "1.0000000000000009"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] != "Violated"
        assert abs(row["mid"] - row["lhs"]) <= row["error_budget"]

    @pytest.mark.parametrize("alpha", [169.5, 170.0])
    def test_large_order_mean_is_within_its_budget(self, alpha, capsys):
        # the fractional mean of t^2 on [0, 1] at order alpha is
        # 1/((alpha+1)(alpha+2)) + alpha/(2(alpha+2)); the product rule
        # accepted one panel of (1-t)^168.5 t^2 and read 0.50142 under a
        # budget of 0.434, and at the integer 170 G7/K15 on the product
        # read 0.50147, Inconclusive; the end rule reads both within 4e-16
        main(["verify", "--thm", "hh-fractional", "--f", "sq", "--alpha",
              repr(alpha)])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        exact = (1.0 / ((alpha + 1.0) * (alpha + 2.0))
                 + alpha / (2.0 * (alpha + 2.0)))
        assert row["status"] == "Holds"
        assert abs(row["mid"] - exact) <= row["error_budget"]

    def test_wide_small_order_identity_holds_cheaply(self, capsys):
        # in abscissae the kernel's panels next to b read (b-t)^(alpha-1)
        # from t rounded to 5.7e-14, and bisected 6.56M calls without
        # meeting the tolerance; in offsets they mirror the panels at a
        assert main(["verify", "--thm", "identity-2-3", "--f", "sq", "--g",
                     "vee", "--alpha", "0.007173896463311801", "--a", "0.5",
                     "--b", "389.73614587210216"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "Holds" and row["notes"] == []
        assert row["evaluations"] <= 20_000

    @pytest.mark.parametrize("argv, most", [
        (["identity-1-4", "--f", "exp", "--a", "0", "--b", "20"], 1_000),
        (["fejer-fractional", "--f", "sq", "--g", "cos-arch", "--a", "1000",
          "--b", "1001"], 2_000),
        (["identity-2-3", "--f", "sq", "--g", "vee", "--a", "0.5", "--b",
          "389.73614587210216"], 1_000),
    ], ids=["identity-1-4", "fejer-fractional", "identity-2-3"])
    def test_order_three_quarters_holds_cheaply(self, argv, most, capsys):
        # the substitution u = (b-t)^alpha left h(b - u^(4/3)), and G7/K15
        # bisected toward u = 0: identity-1-4 was Inconclusive after 5.89M
        # evaluations and fejer-fractional took 7.86M.  The end rule alone
        # fixes fejer-fractional, but with the kernel factor read at a
        # rounded b - t the identities stay Inconclusive after 3.92M and
        # 7.86M; read at each node's distance from the end, they Hold.
        # With f' read on K's leaves (on [a, m] alone for identity-1-4)
        # the identities take 801 and 421, where they took 5,654 and 8,677
        assert main(["verify", "--thm", *argv, "--alpha", "0.75"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "Holds" and row["notes"] == []
        assert row["evaluations"] <= most

    @pytest.mark.parametrize("argv", [
        ["identity-1-4", "--f", "sq", "--alpha", "0.25"],
        ["identity-1-4", "--f", "sq", "--alpha", "0.5"],
        ["identity-2-3", "--f", "sq", "--g", "one", "--alpha", "0.25"],
        ["identity-2-3", "--f", "xlogx", "--g", "one", "--alpha", "0.25"],
    ], ids=["1-4-sq-0.25", "1-4-sq-0.5", "2-3-sq-0.25", "2-3-xlogx-0.25"])
    def test_shifted_defect_budget_covers_its_rounding(self, argv, capsys):
        # on [1000, 1001] avg W and J(f g) are up to ~2.2e6, one ulp of
        # which is 4.7e-10: their difference read the lhs of identity-2-3
        # sq/one 4.1e-10 off the rhs, past the quadrature estimates.  As
        # one integral of (avg - f) g the defect rounds with itself: 2.1e-12
        # off the exact 0.19613558245703773, with a budget of 1.47e-10
        assert main(["verify", "--thm", *argv, "--a", "1000",
                     "--b", "1001"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "Holds" and row["notes"] == []
        assert row["error_budget"] <= 1e-9

    @pytest.mark.parametrize("tol", ["1e-3", "1e-6", "1e-12"])
    def test_default_grid_holds_at_every_tolerance(self, tol, capsys):
        # at 1e-6 identity-2-3 of cosh and vee at alpha 0.5 read lhs
        # 0.03605875207978293 against rhs 0.03603016752957395, past its
        # budget of 2.8e-6, while the defect was avg W - J(f g) read in
        # the substituted band (ROADMAP item 2); as one integral of
        # (avg - f) g it Holds on its only pass, residual 9e-17
        main(["corpus", "--tol", tol])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows
        assert [(row["theorem"], row["f"], row["g"], row["alpha"])
                for row in rows if row["status"] != "Holds"] == []

    @pytest.mark.parametrize("seed", ["99", "1000"])
    def test_tiny_grid_has_no_violated_row(self, seed, capsys):
        # on [0, 1e-6] a pass at tol/100 turned 8 Inconclusive rows at
        # each of these seeds Violated; one pass leaves them Inconclusive
        main(["corpus", "--a", "0", "--b", "1e-6", "--seed", seed])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows
        assert [(row["theorem"], row["f"], row["g"], row["alpha"])
                for row in rows if row["status"] == "Violated"] == []

    def test_tiny_order_weighted_identity_is_not_violated(self, capsys):
        # the substitution u = (b-t)^alpha mapped its nodes onto the ends at
        # alpha 1e-8, and lhs read 0; the end rule reads the exact value
        # (mpmath, the kernel's singular term subtracted) within its budget
        main(["verify", "--thm", "identity-2-3", "--f", "exp", "--g", "bump",
              "--alpha", "1e-8"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "Holds"
        scale = max(abs(row["lhs"]), abs(row["rhs"]), 1.0)
        assert (abs(row["lhs"] - 5.054563470587979e-9)
                <= row["error_budget"] * scale)

    def test_small_order_grid_has_no_violated_or_inconclusive_row(self,
                                                                  capsys):
        # below order 1/4 the substitution read lhs 8.9e-16 for exp/one at
        # alpha 1e-4 (rhs 8.47e-5): 42 Violated and 56 Inconclusive rows.
        # At 1e-8 the fejer-fractional margins of vee come within 1e-9, so
        # a panel estimate that stops at tol, not below it, leaves rows
        # Inconclusive: 1,532 rows
        main(["corpus", "--alpha-grid", "1e-8,1e-6,1e-4,1e-2"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows
        assert [(row["theorem"], row["f"], row["g"], row["alpha"])
                for row in rows if row["status"] != "Holds"] == []


class TestSubcommands:
    def test_identity_grid(self):
        proc = run_cli("sweep", "--thm", "identity-1-4", "--f", "exp",
                       "--alpha-grid", "0.5,1.0")
        rows = json.loads(proc.stdout)["rows"]
        assert [r["theorem"] for r in rows] == ["identity-1-4"] * 2
        assert [r["alpha"] for r in rows] == [0.5, 1.0]

    def test_identity_weighted_when_g_given(self):
        proc = run_cli("sweep", "--thm", "identity-2-3", "--f", "exp",
                       "--g", "parabolic", "--alpha-grid", "0.5")
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["theorem"] == "identity-2-3"

    def test_identity_subcommand_is_gone(self, capsys):
        # sweep --thm identity-1-4 (or identity-2-3) does its job
        assert main(["identity", "--f", "exp"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "invalid choice: 'identity'" in err

    def test_sweep_skips_restricted_orders(self):
        proc = run_cli("sweep", "--thm", "bound-2-7", "--f", "sq",
                       "--g", "one", "--alpha-grid", "0.5,1.0,2.0",
                       "--q-grid", "2.0")
        rows = json.loads(proc.stdout)["rows"]
        assert [r["alpha"] for r in rows] == [0.5, 1.0]

    def test_sweep_alpha_free_theorem_emits_one_row(self):
        proc = run_cli("sweep", "--thm", "hh-classical", "--f", "sq")
        assert len(json.loads(proc.stdout)["rows"]) == 1

    def test_corpus_rejects_unknown_theorems(self):
        proc = run_cli("corpus", "--theorems", "hh-classical,flux")
        assert proc.returncode == 3
        assert "flux" in proc.stderr

    def test_aux_rows_come_in_pairs(self):
        proc = run_cli("verify", "--thm", "aux-integrals", "--alpha", "0.5")
        rows = json.loads(proc.stdout)["rows"]
        assert [r["f"] for r in rows] == ["e-part", "f-part"]
        assert rows[0]["lhs"] == pytest.approx(0.16429773960448416, rel=1e-12)

    def test_aux_rows_charge_their_own_part(self, monkeypatch, capsys):
        # the two rows share a verdict but not a cost: their evaluations
        # sum to the integrand calls actually made
        calls = [0]
        integrate = frachh.inequalities.integrate_odd

        def counting(h, *args):
            def counted(x):
                calls[0] += 1
                return h(x)
            return integrate(counted, *args)

        monkeypatch.setattr(frachh.inequalities, "integrate_odd", counting)
        assert main(["verify", "--thm", "aux-integrals", "--alpha", "0.5",
                     "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["f"] for r in rows] == ["e-part", "f-part"]
        assert all(int(r["evaluations"]) > 0 for r in rows)
        assert sum(int(r["evaluations"]) for r in rows) == calls[0]

    @pytest.mark.parametrize("grid", [
        [], ["--a", "1", "--b", "3", "--alpha-grid", "0.1,0.75,1.25,1.5,2.5,5"],
        ["--a", "0", "--b", "1e-6"]], ids=["default", "hard", "tiny"])
    def test_aux_rows_meet_their_closed_forms(self, grid, capsys):
        # each part is identity 1.4's kernel against a line, which the end
        # rule integrates to rounding on one panel of 25 nodes; the absolute
        # budget of 1e-12 would hide a miss on [0, 1e-6], where the parts
        # are ~1e-15 in size
        assert main(["corpus", "--theorems", "aux-integrals", *grid,
                     "--seed", "42"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) >= 8
        for row in rows:
            assert abs(row["lhs"] - row["rhs"]) <= 1e-14 * abs(row["lhs"]), row
            assert row["evaluations"] <= 50, row

    def test_lemma_2_1_row(self):
        proc = run_cli("verify", "--thm", "lemma-2-1", "--g", "parabolic",
                       "--alpha", "0.5", "--seed", SEED)
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["status"] == "Holds"
        assert row["lhs"] == pytest.approx(0.15045055561273502, rel=1e-10)
        assert row["lhs"] == pytest.approx(row["rhs"], rel=1e-9)

    def test_lemma_1_6_uses_interval_arguments(self):
        proc = run_cli("verify", "--thm", "lemma-1-6", "--a", "0.25",
                       "--b", "1", "--alpha", "0.5")
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["observed"] == pytest.approx(0.5, rel=1e-12)
        assert row["bound"] == pytest.approx(0.8660254037844386, rel=1e-12)

    def test_strict_paper_rejects_negative_left_endpoint(self):
        proc = run_cli("verify", "--thm", "hh-fractional", "--f", "sq",
                       "--a", "-1", "--b", "1", "--alpha", "0.5",
                       "--strict-paper")
        assert proc.returncode == 3
        assert "strict mode" in proc.stderr

    @pytest.mark.parametrize("ident,args", [
        pytest.param("hh-classical", (), id="hh-classical"),
        pytest.param("fejer-classical", ("--g", "one"), id="fejer-classical"),
        pytest.param("hh-fractional", ("--alpha", "0.5"), id="hh-fractional"),
    ])
    def test_strict_paper_applies_to_every_statement(self, ident, args,
                                                     capsys):
        argv = ["verify", "--thm", ident, "--f", "sq", *args,
                "--a", "-1", "--b", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--strict-paper"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "strict mode requires a >= 0, got a = -1.0" in err

    def test_repeated_theorem_ids_run_once(self, capsys):
        assert main(["corpus", "--theorems", "hh-classical",
                     "--format", "csv"]) == 0
        once = capsys.readouterr().out
        assert main(["corpus", "--theorems", "hh-classical,hh-classical",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == once


def count_corpus_calls(monkeypatch, counts) -> list:
    """Wrap f, f' and g of the corpus entries the CLI builds in counters;
    a call adds 1 to the returned [total] when counts() is true."""
    calls = [0]

    def counted(fn):
        def wrapper(x):
            if counts():
                calls[0] += 1
            return fn(x)
        return wrapper

    def counting(build, fields):
        def counted_build(*args, **kwargs):
            return [dataclasses.replace(spec, **{
                        name: counted(getattr(spec, name))
                        for name in fields
                        if getattr(spec, name) is not None})
                    for spec in build(*args, **kwargs)]
        return counted_build

    for name, fields in (("builtin_function_corpus", ("fn", "deriv")),
                         ("builtin_weight_corpus", ("fn",))):
        monkeypatch.setattr(frachh.cli, name,
                            counting(getattr(frachh.cli, name), fields))
    return calls


# the code of the quadratures whose integrand calls a row is charged for
_QUADRATURE_CODE = frozenset(fn.__code__ for fn in (
    frachh.numerics.integrate_smooth, frachh.numerics.integrate_odd,
    frachh.numerics.integrate_singular,
    frachh.numerics.CumulativeKernel.__init__,
    frachh.numerics.CumulativeKernel.__call__))

# the statements whose verify row reads a corpus entry, on [0, 1] and
# [0, 1e-6] at order 0.5, and on [0, 1] at 1.5 where the statement reads
# and allows it: a non-integer order above 1 runs the end rule
_CHARGED = sorted(set(frachh.cli.THEOREMS) - {"aux-integrals", "lemma-1-6"})
_CHARGE_CASES = [
    *(pytest.param(ident, interval, "0.5", id=f"{ident}-{name}")
      for ident in _CHARGED
      for name, interval in (("unit", ("0", "1")), ("tiny", ("0", "1e-6")))),
    *(pytest.param(ident, ("0", "1"), "1.5", id=f"{ident}-order-1.5")
      for ident in _CHARGED if "alpha" in frachh.cli.THEOREMS[ident].reads
      and frachh.cli.THEOREMS[ident].max_alpha >= 1.5)]


def _in_quadrature() -> bool:
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code in _QUADRATURE_CODE:
            return True
        frame = frame.f_back
    return False


class TestEvaluations:
    """A row is charged exactly the integrand calls its quadratures made.

    Point reads (f(a), f(b), f(m), f' at the ends, which Cell.dsup
    reads too, ||g||_inf at sup_at) are made outside any
    quadrature and are not charged; aux-integrals and lemma-1-6 read no
    corpus entry.
    """

    @pytest.mark.parametrize("ident,interval,alpha", _CHARGE_CASES)
    def test_verify_row_is_charged_its_quadrature_calls(
            self, ident, interval, alpha, monkeypatch, capsys):
        # exp is f and f' at once; the tiny interval ends rows Inconclusive
        values = {"f": "exp", "g": "bump", "alpha": alpha, "q": "2"}
        argv = ["verify", "--thm", ident, "--a", interval[0],
                "--b", interval[1]]
        for name in frachh.cli.THEOREMS[ident].reads:
            if name in values:
                argv += [f"--{name}", values[name]]
        calls = count_corpus_calls(monkeypatch, _in_quadrature)
        assert main(argv) in (0, 2)
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert calls[0] > 0
        assert row["evaluations"] == calls[0]

    @pytest.mark.parametrize("ident", ["identity-1-4", "identity-2-3"])
    def test_derivative_is_read_at_the_ends_only(self, ident, monkeypatch,
                                                 capsys):
        # outside a quadrature f' is read only by dsup, at a and b once
        # per f' and interval in the run's memo; the exact unit K of
        # identity-1-4 needs no sup |f'|
        reads = {}

        def recorded(spec):
            def deriv(x):
                if not _in_quadrature():
                    reads.setdefault(spec.label, []).append(x)
                return spec.deriv(x)
            return deriv

        build = frachh.cli.builtin_function_corpus
        monkeypatch.setattr(frachh.cli, "builtin_function_corpus", lambda
                            *args: [dataclasses.replace(f, deriv=recorded(f))
                                    if f.deriv else f for f in build(*args)])
        assert main(["corpus", "--theorems", ident]) == 0
        capsys.readouterr()
        if ident == "identity-1-4":
            assert reads == {}
        else:
            derivs = {f.label for f in build(0.0, 1.0) if f.deriv}
            assert reads == dict.fromkeys(derivs, [0.0, 1.0])

    def test_corpus_column_sums_to_the_quadrature_calls(self, monkeypatch,
                                                        capsys):
        calls = count_corpus_calls(monkeypatch, _in_quadrature)
        assert main(["corpus"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert sum(row["evaluations"] for row in rows
                   if row["theorem"] != "aux-integrals") == calls[0]

    def test_hard_grid_tables_stay_small(self, monkeypatch, capsys):
        # one memo serves the run, and its value tables hold the nodes of
        # the quadratures and kernel builds: 38,595 abscissae on this grid
        # at seed 42, and none of them fills up
        memos = {}
        init = frachh.inequalities.Cell.__init__

        def recording(cell, *args, **kwargs):
            init(cell, *args, **kwargs)
            memos[id(cell.memo)] = cell.memo

        monkeypatch.setattr(frachh.inequalities.Cell, "__init__", recording)
        assert main(["corpus", "--a", "1", "--b", "3", "--alpha-grid",
                     "0.1,0.75,1.25,1.5,2.5,5"]) == 0
        capsys.readouterr()
        (memo,) = memos.values()
        sizes = [len(read.table) for read in memo["integrands"].values()]
        assert sum(sizes) <= 84_000
        assert max(sizes) < frachh.numerics.TABLE_CAP


class TestSharing:
    """Statements share derived quantities in a corpus run, never results."""

    SHARED = ("bound-2-5", "identity-2-3", "lemma-2-1")

    @staticmethod
    def corpus(tmp_path, theorems):
        path = tmp_path / f"{theorems}.json"
        code = main(["corpus", "--theorems", theorems, "--alpha-grid", "0.5,2",
                     "--out", str(path)])
        assert code == 0
        return json.loads(path.read_text())["rows"]

    def test_rows_do_not_depend_on_the_other_statements(self, tmp_path,
                                                         monkeypatch):
        calls = count_corpus_calls(monkeypatch, lambda: True)
        everything = self.corpus(tmp_path, "all")
        assert calls[0] > 0
        # a shared quantity is charged once, so the column never exceeds
        # the calls actually made
        assert sum(row["evaluations"] for row in everything) <= calls[0]

        def strip(rows):
            return [{k: v for k, v in row.items() if k != "evaluations"}
                    for row in rows]

        for ident in self.SHARED:
            alone = self.corpus(tmp_path, ident)
            assert alone
            mixed = [row for row in everything if row["theorem"] == ident]
            assert strip(mixed) == strip(alone), ident

    def test_warm_kernel_gives_the_values_of_a_cold_one(self, capsys):
        # corpus rows read kernel values another row already computed;
        # verify builds a fresh kernel for the one cell
        assert main(["corpus", "--theorems", "identity-2-3",
                     "--alpha-grid", "0.5,1.25"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len({(r["g"], r["alpha"]) for r in rows}) < len(rows)
        fields = ("lhs", "rhs", "error_budget", "status", "notes")
        for row in rows:
            cell = ["--f", row["f"], "--g", row["g"],
                    "--alpha", repr(row["alpha"])]
            assert main(["verify", "--thm", "identity-2-3", *cell]) in (0, 2)
            (cold,) = json.loads(capsys.readouterr().out)["rows"]
            assert [cold[k] for k in fields] == [row[k] for k in fields], cell


class TestRowAssembly:
    def test_theorem_args_are_what_the_verifier_takes(self):
        # run_rows supplies every parameter a verifier needs, and passes
        # each entry's args, its verifier's parameters it supplies
        supplied = {"ident", "f", "g", "s", "a", "b", "alpha", "pair", "tol",
                    "force", "memo"}
        for ident, info in frachh.cli.THEOREMS.items():
            params = inspect.signature(info.verify).parameters
            assert {name for name, p in params.items()
                    if p.default is p.empty} <= supplied, ident
            assert info.args == tuple(name for name in params
                                      if name in supplied), ident

    def test_worst_status_precedence(self):
        holds = {"status": "Holds"}
        inc = {"status": "Inconclusive"}
        bad = {"status": "Violated"}
        assert _worst_status([holds, holds]) == 0
        assert _worst_status([holds, inc]) == 2
        assert _worst_status([holds, inc, bad]) == 1
        assert _worst_status([]) == 0

    def test_forced_asymmetric_weight_yields_violated_row(self):
        # x >= 0 on [0, 1]; x and 1 - x differ, so not symmetric
        ramp = WeightSpec("ramp", lambda x: x, 0.0, 1.0, nonnegative=True)
        cfg = RunConfig(force=True)
        rows = run_rows("fejer-fractional", cfg,
                        f=FunctionSpec("exp", math.exp, math.exp,
                                       ConvexityKind.ANALYTIC_DERIV_CONVEX,
                                       0.0, 1.0),
                        g=ramp, alpha=1.0)
        assert _worst_status(rows) == 1
        assert any("hypotheses unmet" in n for n in rows[0]["notes"])

    def test_affine_function_yields_inconclusive_row(self):
        affine = FunctionSpec("affine", lambda x: x, lambda x: 1.0,
                              ConvexityKind.ANALYTIC_DERIV_CONVEX, 0.0, 1.0)
        rows = run_rows("hh-fractional", RunConfig(), f=affine, alpha=0.5)
        assert _worst_status(rows) == 2
        assert list(rows[0]["notes"]) == []  # one pass, nothing to note

    def test_missing_requirements_raise_usage_errors(self):
        with pytest.raises(UsageError):
            run_rows("hh-classical", RunConfig())
        with pytest.raises(UsageError):
            run_rows("bound-2-5", RunConfig(),
                     f=FunctionSpec("sq", lambda x: x * x, lambda x: 2.0 * x,
                                    ConvexityKind.ANALYTIC_DERIV_CONVEX,
                                    0.0, 1.0),
                     g=builtin_weight_corpus(0.0, 1.0)[0], alpha=0.5)

    def test_strict_setting_propagates(self, capsys):
        # every subcommand refuses a < 0 under --strict-paper, before
        # any output
        for argv in (["verify", "--thm", "lemma-2-1", "--g", "one",
                      "--alpha", "0.5"],
                     ["corpus", "--theorems", "aux-integrals"],
                     ["sweep", "--thm", "hh-classical", "--f", "sq"]):
            argv += ["--a", "-1", "--b", "1", "--strict-paper"]
            assert main(argv) == 3, argv
            out, err = capsys.readouterr()
            assert out == "" and "strict mode" in err, argv

    def test_strict_mode_requires_nonnegative_left_endpoint(self):
        parser = build_parser()
        base = ["verify", "--thm", "hh-classical", "--a", "-1", "--b", "2"]
        assert _config_from(parser.parse_args(base)).a == -1.0
        with pytest.raises(UsageError, match="strict mode requires a >= 0"):
            _config_from(parser.parse_args([*base, "--strict-paper"]))
        # the setting itself only needs a < b
        assert FracSetting(-1.0, 2.0, 0.5).a == -1.0


class TestSerialization:
    def test_float_format_round_trips(self):
        for x in (0.1, 1.0 / 3.0, 2.0 ** -52, 123456.789, -0.0):
            assert float(_fmt_float(x)) == x

    def test_float_format_rejects_non_finite(self):
        with pytest.raises(ValueError):
            _fmt_float(math.inf)
        with pytest.raises(ValueError):
            _fmt_float(math.nan)

    # a hand-built row: a label with a quote, a backslash, a newline and
    # non-ASCII text; None, int, -0.0 and subnormal values; two notes.  Its
    # evaluations 1 and seed 0 are equal as keys to the config's true and
    # false, so a cache of quoted values that ignores type would mix them
    ROW = {**dict.fromkeys(CSV_COLUMNS),
           "theorem": 'say "hi"\\ to\n\u2131-\u03bb, ok', "f": "exp",
           "a": -0.0, "b": 5e-324, "alpha": 2, "q": 3.0, "lhs": 1.0 / 3.0,
           "observed": -2.5e-310, "error_budget": 1e-12, "status": "Holds",
           "evaluations": 1, "seed": 0,
           "notes": ("hypotheses unmet: |f'|^1 is not \"convex\"",
                     "\u00fcn\u00efcode \u2713")}
    CFG = RunConfig(a=-0.0, b=5e-324, force=True)
    # its bytes, pinned (tests/test_golden.py pins whole runs)
    ROW_JSON = (
        '{\n  "config": {"a": -0, "b": 4.9406564584124654e-324, '
        '"tol": 1.0000000000000001e-09, "seed": 42, "force": true, '
        '"strict_paper": false},\n  "rows": [\n    {"theorem": '
        '"say \\"hi\\"\\\\ to\\n\\u2131-\\u03bb, ok", "f": "exp", '
        '"g": null, "a": -0, "b": 4.9406564584124654e-324, "alpha": 2, '
        '"p": null, "q": 3, "lhs": 0.33333333333333331, "mid": null, '
        '"rhs": null, "observed": -2.5000000000000171e-310, "bound": null, '
        '"margin_lower": null, "margin_upper": null, "slack": null, '
        '"error_budget": 9.9999999999999998e-13, "status": "Holds", '
        '"evaluations": 1, "seed": 0, "notes": ["hypotheses unmet: '
        '|f\'|^1 is not \\"convex\\"", "\\u00fcn\\u00efcode \\u2713"]}'
        '\n  ]\n}\n')
    ROW_CSV = (
        "theorem,f,g,a,b,alpha,p,q,lhs,mid,rhs,observed,bound,margin_lower,"
        "margin_upper,slack,error_budget,status,evaluations,seed\n"
        '"say ""hi""\\ to\n\u2131-\u03bb, ok",exp,,-0,'
        "4.9406564584124654e-324,2,,3,0.33333333333333331,,,"
        "-2.5000000000000171e-310,,,,,9.9999999999999998e-13,Holds,1,0\n")

    def test_json_reads_back_as_the_row(self):
        data = json.loads(_render_json([self.ROW], self.CFG))
        assert data["config"] == dataclasses.asdict(self.CFG)
        (row,) = data["rows"]
        assert row == {**self.ROW, "notes": list(self.ROW["notes"])}
        assert type(row["evaluations"]) is type(row["seed"]) is int

    def test_json_bytes_are_pinned(self):
        assert _render_json([self.ROW], self.CFG) == self.ROW_JSON
        assert _render_json([], RunConfig()) == (
            '{\n  "config": {"a": 0, "b": 1, "tol": 1.0000000000000001e-09, '
            '"seed": 42, "force": false, "strict_paper": false},\n'
            '  "rows": [\n\n  ]\n}\n')

    def test_csv_bytes_are_pinned(self):
        assert _render_csv([self.ROW]) == self.ROW_CSV
        assert _render_csv([]) == self.ROW_CSV.partition("\n")[0] + "\n"

    def test_sort_key_places_missing_fields_first(self):
        with_f = {"theorem": "t", "f": "sq", "g": None, "a": 0.0, "b": 1.0,
                  "alpha": 0.5, "q": None, "p": None}
        without_f = dict(with_f, f=None)
        assert _sort_key(without_f) < _sort_key(with_f)

    def test_main_returns_three_on_usage_error(self, capsys):
        assert main(["verify", "--thm", "hh-classical"]) == 3
        assert "error:" in capsys.readouterr().err
