import ast
import csv
import dataclasses
import json
import math
import runpy
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nclp import cli, core, rbound
from nclp import funcalc as fc
from nclp.hvnorms import KhintchineReport, TensorExtendReport
from nclp.models import freegroup, schur
from nclp.optim import SolveResult

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv, tmp_path, fmt="csv", name="out"):
    path = tmp_path / f"{name}.{fmt}"
    code = cli.main(argv + ["--out", str(path), "--format", fmt])
    text = path.read_text() if path.exists() else ""
    return code, text


def data_rows(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


class TestArtifacts:
    def test_rowcol_gap_golden(self, tmp_path):
        code, text = run(["rowcol-gap", "--p", "4", "--n", "4", "8", "16"], tmp_path)
        assert code == 0
        rows = data_rows(text)
        assert rows[0].startswith("experiment,")
        assert len(rows) == 4
        assert rows[0].split(",")[-5:] == ["value_col", "value_row", "value_rad",
                                           "row_closed_form", "ratio"]
        for r, n in zip(csv.DictReader(rows), (4, 8, 16)):
            assert float(r["value_col"]) == pytest.approx(math.sqrt(n / 2.0), abs=1e-9)
            assert float(r["row_closed_form"]) == pytest.approx(float(r["value_row"]), rel=1e-6)
            assert float(r["ratio"]) == float(r["value_col"]) / float(r["value_row"])

    def test_khintchine_lower_ok(self, tmp_path):
        code, text = run(
            ["khintchine", "--p", "4", "--dim", "3", "--family", "4", "--seed", "7"],
            tmp_path,
        )
        assert code == 0
        for line in data_rows(text)[1:]:
            assert ",True," in line

    @pytest.mark.parametrize("p", ["1", "4"])
    def test_khintchine_interval_column(self, tmp_path, p):
        # below p = 2 the sum norm is an infimum, reported with its certified
        # lower end; at p >= 2 it is the intersection norm and the column is empty
        code, text = run(["khintchine", "--p", p, "--dim", "2", "--family", "3",
                          "--seed", "11", "--samples", "2"], tmp_path)
        assert code == 0
        rows = [r.split(",") for r in data_rows(text)]
        lo, hi = rows[0].index("radnorm_lower"), rows[0].index("radnorm")
        for row in rows[1:]:
            if p == "4":
                assert row[lo] == ""
            else:
                assert float(row[lo]) <= float(row[hi]) <= float(row[lo]) * (1 + 1e-6)

    @pytest.mark.parametrize("spec,exact", [("leftdiag:1,2", "True"), ("rightdiag:1,3", "True"),
                                            ("adiag:1,2|-1,-3", "False")])
    def test_sector_profile_exact_column(self, tmp_path, spec, exact):
        # exact norms at p = 4 only for the multiplication kinds
        code, text = run(["sector-profile", "--A", spec, "--p", "4"], tmp_path)
        assert code == 0
        rows = [r.split(",") for r in data_rows(text)]
        col = rows[0].index("exact")
        assert len(rows) > 1 and all(row[col] == exact for row in rows[1:])

    def test_calculus_check_tolerance(self, tmp_path):
        code, text = run(
            ["calculus-check", "--fn", "g,zexp,sqrtzexp,zis:0.5", "--A", "leftdiag:1,4"],
            tmp_path,
        )
        assert code == 0
        for line in data_rows(text)[1:]:
            assert float(line.rsplit(",", 2)[1]) <= 1e-6
            assert ',"leftdiag:1,4",' in line  # the op column echoes the spec

    def test_calculus_check_of_a_zero_result(self, tmp_path):
        # f(A) = 0 on the zero operator (f(0) = 0): the error is absolute where
        # the oracle is identically 0, not divided by a floor of 1e-300
        code, text = run(["calculus-check", "--fn", "g,zexp,zis:0.5", "--A", "leftdiag:0,0"],
                         tmp_path)
        assert code == 0
        rows = list(csv.DictReader(data_rows(text)))
        assert [r["fn"] for r in rows] == ["g", "zexp", "zis:0.5"]
        assert all(float(r["max_rel_err"]) <= 1e-15 and r["ok"] == "True" for r in rows)

    @pytest.mark.parametrize("shift", [0.0, 1e-10])
    def test_selftest_target_is_the_tolerance_applied(self, tmp_path, monkeypatch, shift):
        # the psd_sqrt row's tolerance scales with ||s||, and its target says so:
        # a root off by 2 shift ||root|| passes exactly when it is below target
        root = cli.psd_sqrt
        monkeypatch.setattr(cli, "psd_sqrt", lambda s: root(s) + shift * np.eye(len(s)))
        code, text = run(["schatten-selftest", "--dim", "3"], tmp_path)
        assert code == 0
        row = next(r for r in csv.DictReader(data_rows(text))
                   if r["check"] == "psd_sqrt_reconstruct")
        assert float(row["target"]) > 1e-10
        assert row["ok"] == str(float(row["value"]) <= float(row["target"]))

    def test_byte_identical_data_rows(self, tmp_path):
        argv = ["khintchine", "--p", "1", "--dim", "2", "--family", "3", "--seed", "11",
                "--samples", "3"]
        _, a = run(argv, tmp_path, name="a")
        _, b = run(argv, tmp_path, name="b")
        assert data_rows(a) == data_rows(b)

    def test_json_format(self, tmp_path):
        code, text = run(
            ["identities", "group-average", "--diag", "1,2"], tmp_path, fmt="json"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["meta"]["tool"] == "nclp"
        assert all(row["ok"] for row in payload["rows"])

    def test_subordination_identity(self, tmp_path):
        code, text = run(
            ["identities", "subordination", "--diag", "1,3", "--t", "0.9"], tmp_path
        )
        assert code == 0
        rows = data_rows(text)[1:]
        assert all(line.endswith("True") for line in rows)


class TestSubcommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["schatten-selftest", "--dim", "3"],
            ["tensor-extend", "--dim", "2", "--family", "3", "--seed", "4", "--samples", "3"],
            ["sector-profile", "--A", "leftdiag:1,2"],
            ["schur", "--points", "4", "--t", "0.5"],
            ["freegroup", "norms"],
            ["freegroup", "poisson", "--seed", "5", "--samples", "5"],
            ["freegroup", "dyadic", "--seed", "3", "--samples", "2", "--shells", "2"],
            ["qfock", "gram", "--q", "-0.5", "--d", "2", "--levels", "3"],
            ["qfock", "moments", "--q", "0.7", "--d", "2"],
            ["qfock", "ou", "--q", "0.3", "--d", "2", "--levels", "3", "--t", "0.4"],
            ["clifford", "semigroup", "--n", "3", "--t", "0.4"],
            ["clifford", "multiplier", "--n", "2", "--fn", "zis:0.5", "--seed", "1"],
            ["martingale", "stein", "--n-factors", "2", "--seed", "2"],
            ["martingale", "cesaro", "--n-factors", "2", "--seed", "2", "--m-count", "12"],
            ["rowcol-gap", "--n", "4"],  # the default --p 4
        ],
    )
    def test_runs_clean(self, tmp_path, argv):
        code, text = run(argv, tmp_path)
        assert code == 0
        assert len(data_rows(text)) >= 2

    def test_sqfn_equiv_columns(self, tmp_path):
        code, text = run(
            ["sqfn-equiv", "--A", "leftdiag:0.5,1,2", "--fn", "sqrtzexp", "--p", "2",
             "--seed", "3", "--samples", "5", "--variant", "col"],
            tmp_path,
        )
        assert code == 0
        header = data_rows(text)[0].split(",")
        assert header == ["experiment", "p", "F", "n_grid", "t_min", "t_max", "value_col",
                          "value_row", "value_rad", "value_bracket", "K1", "K2", "seed"]
        row = data_rows(text)[1].split(",")
        k1 = float(row[header.index("K1")])
        assert k1 == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    def test_sqfn_equiv_rad_closes_at_the_start(self, tmp_path):
        """Every split solve of this run is trivially optimal: the start
        certificate closes it, and the data rows keep the bits of the
        stage-by-stage solve."""
        code, text = run(["sqfn-equiv", "--A", "leftdiag:0.5,1,2", "--fn", "sqrtzexp",
                          "--p", "1.5", "--seed", "3", "--variant", "rad"], tmp_path)
        assert code == 0
        assert data_rows(text)[1] == (
            "sqfn-equiv:rad,1.5,sqrtzexp,512,5e-13,2000000.0,4.231709309037907,"
            "4.285383753324461,4.231709309037907,4.231709309037907,0.7071067811860815,"
            "0.7071067811862445,3"
        )
        header = dict(ln[2:].split(" = ", 1) for ln in text.splitlines() if ln.startswith("# "))
        assert header["solver_status"] == "converged"
        assert float(header["solver_gap_max"]) <= 1e-12

    @pytest.mark.parametrize("grid,truncated", [([], "False"), (["--grid", "0.5,2,64"], "True")])
    def test_sqfn_equiv_header_reports_grid_truncation(self, tmp_path, grid, truncated):
        code, text = run(["sqfn-equiv", "--p", "4", "--seed", "3", "--samples", "2"] + grid,
                         tmp_path)
        assert code == 0
        assert f"# grid_truncated = {truncated}" in text.splitlines()
        code, text = run(["sqfn-equiv", "--p", "4", "--seed", "3", "--samples", "2"] + grid,
                         tmp_path, fmt="json")
        assert json.loads(text)["meta"]["grid_truncated"] is (truncated == "True")

    def test_python_dash_m(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["nclp", "schatten-selftest", "--seed", "1"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("nclp", run_name="__main__")
        assert exc.value.code == 0
        assert "hoelder_2_2_1" in capsys.readouterr().out

    def test_help_lists_every_subcommand(self, capsys):
        assert cli.main(["--help"]) == 0
        listing = capsys.readouterr().out
        assert all(name in listing for name in cli.SUBCOMMANDS)
        assert cli.main(["no-such-command"]) == cli.EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
    def test_subcommand_help(self, capsys, name):
        # the parser fills in only the arguments of the subcommand argv names
        assert cli.main([name, "--help"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: nclp {name}")
        reads = cli.SUBCOMMANDS[name].reads
        shown = ["{" + ",".join(reads) + "}"] if isinstance(reads, dict) else [*reads, "--out"]
        assert all(flag in text for flag in shown)

    def test_rbound_writes_witness_files(self, tmp_path):
        path = tmp_path / "rb.csv"
        code = cli.main(
            ["rbound", "--A", "leftdiag:0.5,1,2", "--p", "2", "--theta", "0.9",
             "--seed", "1", "--restarts", "4", "--iters", "10", "--points", "8",
             "--out", str(path)]
        )
        assert code == 0
        text = path.read_text()
        witness_files = [
            ln.rsplit(",", 1)[-1] for ln in data_rows(text)[1:]
        ]
        assert all(wf and (tmp_path / wf.split("/")[-1]).exists() for wf in witness_files)

    def test_rbound_witness_files_reproduce_their_estimates(self, tmp_path):
        # every witness file loads back, and its objective under the selection
        # of its "#" line is its row's estimate, bit for bit; the family is
        # the one the defaults (--A leftdiag:0.5,1,2 --theta 0.8 --points 12) name
        path = tmp_path / "rb.csv"
        assert cli.main(["rbound", "--p", "4", "--seed", "1", "--out", str(path)]) == 0
        fam = fc.ray_resolvent_family(cli.parse_operator("leftdiag:0.5,1,2"), 0.8, 12)
        rows = list(csv.DictReader(data_rows(path.read_text())))
        assert [r["notion"] for r in rows] == ["col", "row", "rad"]
        for r in rows:
            head = Path(r["witness_file"]).read_text().splitlines()[0]
            assert head.startswith("# selection = ")
            sel = ast.literal_eval(head.split(" = ", 1)[1])
            xs = core.load_family(r["witness_file"])
            assert len(xs) == len(sel)
            assert rbound.objective(r["notion"], fam, sel, xs, 4.0) == float(r["estimate"])

    def test_sector_profile_of_a_spaced_schur_generator(self, tmp_path):
        code, text = run(["sector-profile", "--A", "schurlin:4:0.5", "--p", "2"], tmp_path)
        assert code == 0
        sym = schur.collinear_symbol(4, 0.5)
        assert np.array_equal(cli.parse_operator("schurlin:4:0.5").m, sym.distances())
        prof = fc.sector_type(schur.schur_generator(sym), p=2)
        rows = list(csv.DictReader(data_rows(text)))
        assert [(float(r["theta"]), float(r["k_theta"])) for r in rows] == prof.constants
        assert all(float(r["omega_hat"]) == prof.omega_hat and r["exact"] == "True" for r in rows)

    @pytest.mark.parametrize("budget,started", [(1, 3), (4, 3), (9, 6)])
    def test_rbound_reports_starts_run(self, tmp_path, budget, started):
        # each of the four selection lengths 1, 2, 4, 8 gets
        # max(budget // 4, 1) starts.  At p = 2 col and row stop at their
        # certified upper bound and run none; rad runs all but length 1's,
        # whose constant is exact
        code, text = run(["rbound", "--seed", "1", "--restarts", str(budget),
                          "--iters", "2", "--points", "4"], tmp_path)
        assert code == 0
        rows = data_rows(text)
        col = rows[0].split(",").index("restarts")
        runs = {r.split(",")[0]: int(r.split(",")[col]) for r in rows[1:]}
        assert runs == {"col": 0, "row": 0, "rad": started}

    def test_rbound_header_names_the_estimates_at_their_upper_bound(self, tmp_path):
        argv = ["rbound", "--A", "leftdiag:0.5,1,2", "--theta", "0.9", "--seed", "1",
                "--restarts", "4", "--iters", "4", "--points", "8"]
        fam = fc.ray_resolvent_family(fc.LeftMult(np.diag([0.5, 1.0, 2.0])), 0.9, 8)
        header = {}
        for p, stopped in (("2", {"col", "row"}), ("4", {"col"}), ("1.5", {"col"})):
            code, text = run(argv + ["--p", p], tmp_path)
            assert code == 0
            header = dict(ln[2:].split(" = ", 1) for ln in text.splitlines()
                          if ln.startswith("# at_upper."))
            top = max(m.norm_bounds(float(p)).lower for m in fam)
            assert header == {f"at_upper.{n}.theta0.900": repr(top) for n in stopped}
            rows = data_rows(text)
            assert rows[0] == "notion,p,theta,estimate,restarts,seed,witness_file"
            for r in rows[1:]:
                notion, *_, estimate, restarts, _, _ = r.split(",")
                assert (int(restarts) == 0) == (notion in stopped)


class TestErrorPaths:
    def test_usage_error(self):
        assert cli.main(["khintchine", "--p"]) == cli.EXIT_USAGE

    def test_missing_seed_is_usage_error(self, tmp_path):
        assert cli.main(["khintchine", "--p", "4"]) == cli.EXIT_USAGE

    def test_numeric_failure_exit(self, tmp_path):
        # well-formed flags, but the spectrum a_i - b_j of this derivation
        # reaches the negative axis, outside the sector of z e^-z
        code = cli.main(["calculus-check", "--A", "adiag:1,2|0.5,3", "--fn", "zexp"])
        assert code == cli.EXIT_NUMERIC

    def test_sqfn_checks_the_function_sector(self, capsys):
        # the spectrum a_i - b_j of this derivation reaches the negative axis
        spec = ["--A", "adiag:1,2|0.5,3", "--fn", "zexp"]
        expected = cli.main(["calculus-check"] + spec)
        calculus_err = capsys.readouterr().err
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            code = cli.main(["sqfn-equiv", "--p", "1.5", "--seed", "1", "--samples", "1"] + spec)
        err = capsys.readouterr().err
        message = "operator type angle 3.142 is not below the function sector 1.400"
        assert message in calculus_err and message in err
        assert "RuntimeWarning" not in err
        assert not [w for w in rec if issubclass(w.category, RuntimeWarning)]
        assert code == expected

    def test_unknown_operator_spec(self):
        code = cli.main(["calculus-check", "--A", "bogus:1"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["sector-profile", "--p", "0.5"],
            ["khintchine", "--p", "0.5", "--seed", "1"],
            ["tensor-extend", "--p", "nan", "--seed", "1"],
            ["rbound", "--points", "11", "--seed", "1"],
            ["rbound", "--points", "1", "--seed", "1"],
            ["rbound", "--theta", "3.5", "--seed", "1"],
            ["rbound", "--theta", "0.9", "0", "--seed", "1"],
            ["rbound", "--restarts", "0", "--seed", "1"],
            ["martingale", "stein", "--restarts", "0", "--seed", "1"],
            ["qfock", "gram", "--q", "1.0"],
            ["clifford", "semigroup", "--n", "8"],
            ["freegroup", "dyadic", "--shells", "4", "--seed", "1"],
            ["khintchine", "--iters", "0", "--seed", "1"],
            ["rbound", "--iters", "0", "--seed", "1"],
            ["martingale", "stein", "--iters", "0", "--seed", "1"],
            ["schur", "--points", "0"],
            ["calculus-check", "--A", "foo:1"],
            ["calculus-check", "--A", "schurgen:4"],
            ["calculus-check", "--fn", "bogus"],
            ["calculus-check", "--fn", "g,gn:0"],
            ["sector-profile", "--A", "leftdiag:1,x"],
            ["sqfn-equiv", "--seed", "1", "--grid", "1,2"],
            ["clifford", "multiplier", "--fn", "bogus"],
            ["schatten-selftest", "--dim", "0"],
            ["khintchine", "--dim", "0", "--seed", "1"],
            ["tensor-extend", "--dim", "0", "--seed", "1"],
            ["khintchine", "--family", "0", "--seed", "1"],
            ["tensor-extend", "--family", "0", "--seed", "1"],
            ["martingale", "cesaro", "--n-factors", "0", "--seed", "1"],
            ["martingale", "cesaro", "--m-count", "0", "--seed", "1"],
            ["identities", "group-average", "--nodes", "0"],
            ["rowcol-gap", "--n", "4", "0"],
            ["rowcol-gap", "--p", "2"],
            ["qfock", "gram", "--levels", "7"],
            ["qfock", "gram", "--d", "0"],
            ["khintchine", "--samples", "0", "--seed", "1"],
            ["tensor-extend", "--samples", "-1", "--seed", "1"],
            ["identities", "group-average", "--diag", "1,x"],
            ["identities", "subordination", "--diag", "1,inf"],
            ["identities", "subordination", "--t", "nan"],
            ["identities", "subordination", "--t", "-1"],
            ["calculus-check", "--tol", "nan"],
            ["calculus-check", "--tol", "-1"],
            ["calculus-check", "--tol", "0"],
            ["schur", "--t", "-1"],
            ["clifford", "semigroup", "--t", "-1"],
            ["qfock", "ou", "--t", "nan"],
            ["qfock", "ou", "--t", "inf"],
            ["qfock", "gram", "--t", "nan"],
            ["schur", "--spacing", "nan"],
            ["schur", "--spacing", "inf"],
            ["freegroup", "dyadic", "--seed", "-1"],
            ["khintchine", "--seed", "-1"],
            ["rbound", "--seed", "-1"],
            ["sqfn-equiv", "--seed", "-1"],
            ["martingale", "cesaro", "--seed", "-1"],
            ["schatten-selftest", "--seed", "-1"],
        ],
        ids=["sector-p-below-1", "khintchine-p-below-1", "tensor-p-nan",
             "rbound-odd-points", "rbound-one-point", "rbound-theta-above-pi",
             "rbound-theta-zero", "rbound-no-restarts", "stein-no-restarts",
             "qfock-q-one", "clifford-n-above-frame-cap", "dyadic-shells-above-pools",
             "khintchine-no-iters", "rbound-no-iters",
             "stein-no-iters", "schur-no-points",
             "calculus-bad-operator", "calculus-removed-alias", "calculus-bad-fn", "calculus-bad-fn-parameter",
             "sector-bad-operator", "sqfn-grid-two-fields", "clifford-bad-fn",
             "selftest-no-dim", "khintchine-no-dim", "tensor-no-dim", "khintchine-no-family",
             "tensor-no-family", "cesaro-no-factors", "cesaro-no-increments",
             "identities-no-nodes", "rowcol-gap-zero-n", "rowcol-gap-p-not-above-2",
             "qfock-levels-above-cap",
             "qfock-no-d", "khintchine-no-samples", "tensor-negative-samples",
             "identities-diag-not-a-number", "identities-diag-infinite", "identities-t-nan",
             "identities-t-negative", "calculus-tol-nan", "calculus-tol-negative",
             "calculus-tol-zero", "schur-t-negative", "clifford-t-negative", "qfock-t-nan",
             "qfock-t-infinite", "qfock-gram-t-nan", "schur-spacing-nan",
             "schur-spacing-infinite", "dyadic-negative-seed", "khintchine-negative-seed",
             "rbound-negative-seed", "sqfn-negative-seed", "cesaro-negative-seed",
             "selftest-negative-seed"],
    )
    def test_out_of_domain_flag_is_usage_error(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "Traceback" not in err and "numeric failure" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["schatten-selftest", "--p", "3"],
            ["khintchine", "--seed", "1", "--grid", "1,2,3"],
            ["tensor-extend", "--seed", "1", "--strict"],
            ["calculus-check", "--grid", "1,2,3"],
            ["calculus-check", "--grid", "1,2,3", "--samples", "9", "--strict", "--seed", "4",
             "--p", "3"],
            ["identities", "group-average", "--seed", "1"],
            ["sector-profile", "--strict"],
            ["rbound", "--seed", "1", "--samples", "2"],
            ["rowcol-gap", "--seed", "1"],
            ["schur", "--samples", "2"],
            ["schur", "--amplification", "2"],  # deleted: it checked the base norm again
            ["freegroup", "norms", "--p", "4"],
            ["qfock", "gram", "--seed", "1"],
            ["clifford", "semigroup", "--samples", "2"],
            ["martingale", "stein", "--seed", "1", "--strict"],
            # a mode's flags exist only on the modes that read them
            *(pytest.param(argv, id="-".join(argv[:2] + [t[2:] for t in argv if t.startswith("--")]))
              for argv in [
                ["qfock", "gram", "--t", "5"],
                ["qfock", "moments", "--t", "5"],
                ["qfock", "moments", "--levels", "2"],
                ["clifford", "multiplier", "--t", "1"],
                ["clifford", "semigroup", "--fn", "g"],
                ["clifford", "semigroup", "--seed", "1"],
                ["identities", "group-average", "--t", "5"],
                ["identities", "subordination", "--nodes", "3"],
                ["freegroup", "norms", "--seed", "1"],
                ["freegroup", "norms", "--samples", "3"],
                ["freegroup", "norms", "--shells", "2"],
                ["freegroup", "poisson", "--seed", "1", "--shells", "2"],
                ["martingale", "stein", "--seed", "1", "--m-count", "3"],
                ["martingale", "cesaro", "--seed", "1", "--restarts", "2"],
                ["martingale", "cesaro", "--seed", "1", "--iters", "2"],
            ]),
        ],
        ids=lambda argv: "-".join([argv[0]] + [t[2:] for t in argv if t.startswith("--")]),
    )
    def test_unread_shared_flag_is_usage_error(self, tmp_path, capsys, argv):
        # sqfn-equiv reads every shared flag, so it has no case here
        code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv,prog,extra", [
        (["schur", "--amplification", "2"], "nclp schur", "--amplification 2"),
        (["freegroup", "dyadic", "--bogus", "1"], "nclp freegroup dyadic", "--bogus 1"),
        (["rbound", "--p", "4", "stray"], "nclp rbound", "stray"),
    ], ids=["schur", "mode", "positional"])
    def test_unrecognized_argument_shows_the_subcommand_usage(self, capsys, argv, prog, extra):
        # the top parser's usage lists only the subcommand names
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} [-h]")
        assert f"{prog}: error: unrecognized arguments: {extra}\n" in err

    def test_sector_profile_without_test_angle_is_numeric_failure(self, tmp_path, capsys):
        # the type angle of leftdiag:-1,1 is pi, so no test angle lies below pi
        code, _ = run(["sector-profile", "--A", "leftdiag:-1,1"], tmp_path)
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERIC
        assert "operator type angle 3.142 leaves no test angle below pi" in err
        assert not (tmp_path / "out.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"p": 4.0, "dim": 2, "family": 3, "seed": 9, "samples": 2}))
        out = tmp_path / "o.csv"
        code = cli.main(
            ["khintchine", "--config", str(conf), "--samples", "1", "--out", str(out)]
        )
        assert code == 0
        rows = data_rows(out.read_text())
        assert len(rows) == 2  # header + one trial: the flag beat the config
        assert ",4.0," in rows[1]

    def test_config_file_reaches_a_mode(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"levels": 2, "q": 0.3}))
        code, text = run(["qfock", "gram", "--config", str(conf), "--levels", "1"], tmp_path)
        assert code == 0
        assert len(data_rows(text)) == 3  # header + levels 0 and 1: the flag beat the config

    @pytest.mark.parametrize(
        "argv,conf",
        [
            (["freegroup", "norms"], {"even_p": 5}),  # the flag --even-p 5 exits 2 too
            (["schatten-selftest"], {"bogus": 1}),
            (["calculus-check"], {"seed": 4}),  # a flag calculus-check does not read
            (["qfock", "gram"], {"t": 1}),  # a flag only the ou mode reads
        ],
        ids=["bad-choice", "unknown-key", "unread-flag", "unread-mode-flag"],
    )
    def test_config_values_go_through_argparse(self, tmp_path, capsys, argv, conf):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        code = cli.main(argv + ["--config", str(path), "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "Traceback" not in err and "numeric failure" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "content,message",
        [
            (None, "cannot read config"),
            ("{not json", "cannot read config"),
            ("[1, 2]", "config file must hold a flat JSON object"),
        ],
        ids=["missing", "malformed", "not-an-object"],
    )
    def test_bad_config_is_usage_error(self, tmp_path, capsys, content, message):
        conf = tmp_path / "conf.json"
        if content is not None:
            conf.write_text(content)
        code = cli.main(["schatten-selftest", "--config", str(conf)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: ") and message in err
        assert "Traceback" not in err


class TestSolverExitCodes:
    def _patch_budget_exhausted(self, monkeypatch, lower_ok=True):
        def fake_report(fam, p, cfg=None, **kw):
            solve = SolveResult(1.0, 2.0, minimizer=np.zeros((2, 2, 2)), iters=1, tol=1e-6)
            return KhintchineReport(1.0, 2.0, lower_ok, 0.5, "sum", solve=solve)

        monkeypatch.setattr(cli.hvnorms, "khintchine_report", fake_report)

    def test_soft_failure_is_exit_4(self, tmp_path, monkeypatch):
        self._patch_budget_exhausted(monkeypatch)
        out = tmp_path / "soft.csv"
        code = cli.main(
            ["khintchine", "--p", "1", "--dim", "2", "--family", "2", "--seed", "1",
             "--samples", "1", "--out", str(out)]
        )
        assert code == cli.EXIT_SOLVER
        assert out.exists()  # artifact still written on soft failure

    def test_strict_hardens_to_3(self, tmp_path, monkeypatch):
        self._patch_budget_exhausted(monkeypatch)
        code = cli.main(
            ["khintchine", "--p", "1", "--dim", "2", "--family", "2", "--seed", "1",
             "--samples", "1", "--strict", "--out", str(tmp_path / "s.csv")]
        )
        assert code == cli.EXIT_NUMERIC

    def test_false_check_outranks_solver_warning(self, tmp_path, monkeypatch):
        self._patch_budget_exhausted(monkeypatch, lower_ok=False)
        code, text = run(["khintchine", "--p", "1", "--dim", "2", "--family", "2",
                          "--seed", "1", "--samples", "1"], tmp_path)
        assert code == cli.EXIT_NUMERIC
        assert data_rows(text)[1].endswith(",False,0.5,budget-exhausted")

    @pytest.mark.parametrize(
        "status,strict,expected",
        [("converged", False, cli.EXIT_OK), ("budget-exhausted", False, cli.EXIT_SOLVER),
         ("budget-exhausted", True, cli.EXIT_NUMERIC)],
    )
    def test_sqfn_equiv_reports_solver_status(self, tmp_path, monkeypatch, status,
                                              strict, expected):
        gap = 0.0 if status == "converged" else 0.5

        def fake_solve(fwd1, adj1, fwd2, adj2, v0, p, cfg=None):
            return SolveResult(1.0 - gap, 1.0, minimizer=np.zeros_like(v0), iters=1, tol=1e-6)

        # the symmetric square function solves through hvnorms, the bracket in sqfn
        monkeypatch.setattr(cli.hvnorms, "minimize_split_schatten", fake_solve)
        monkeypatch.setattr(cli.sqfn, "minimize_split_schatten", fake_solve)
        argv = ["sqfn-equiv", "--A", "leftdiag:0.5,1,2", "--fn", "sqrtzexp", "--p", "1.5",
                "--seed", "3", "--samples", "2", "--variant", "rad",
                "--out", str(tmp_path / "sq.csv")]
        assert cli.main(argv + ["--strict"] * strict) == expected
        header = (tmp_path / "sq.csv").read_text().splitlines()
        assert f"# solver_gap_max = {gap!r}" in header
        assert f"# solver_status = {status}" in header

    @pytest.mark.parametrize("exhausted", [False, True])
    def test_martingale_cesaro_reports_solver_status(self, tmp_path, monkeypatch, exhausted):
        # the Cesaro increments' Rademacher norm below p = 2 is a split-norm
        # solve: its status reaches the header and the exit code (no --strict)
        solve = cli.hvnorms.minimize_split_schatten

        def marked(*args):
            res = solve(*args)
            return dataclasses.replace(res, lower=0.5 * res.upper) if exhausted else res

        monkeypatch.setattr(cli.hvnorms, "minimize_split_schatten", marked)
        code, text = run(["martingale", "cesaro", "--p", "1.5", "--seed", "1"], tmp_path)
        assert code == (cli.EXIT_SOLVER if exhausted else cli.EXIT_OK)
        header = text.splitlines()
        status = "budget-exhausted" if exhausted else "converged"
        assert f"# solver_status = {status}" in header
        gap = next(ln for ln in header if ln.startswith("# solver_gap_max = "))
        assert float(gap.split("= ")[1]) == (0.5 if exhausted else pytest.approx(0.0, abs=1e-6))
        assert data_rows(text)[1].endswith(",True")


class TestFailingChecks:
    def test_support_overflow_is_numeric_failure(self, capsys, monkeypatch):
        def overflow(shells, p):
            raise freegroup.SupportOverflowError("product support exceeded the cap")

        monkeypatch.setattr(cli.freegroup, "dyadic_unconditionality", overflow)
        code = cli.main(["freegroup", "dyadic", "--even-p", "6", "--seed", "1",
                         "--samples", "1"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERIC
        assert err.startswith("numeric failure: ") and "Traceback" not in err

    def test_tensor_false_col_ok_exits_3(self, tmp_path, monkeypatch):
        def fake_extend(t, xs, p):
            return TensorExtendReport(1.0, 2.0, 3.0, 2.0, 1.0, False, True)

        monkeypatch.setattr(cli.hvnorms, "tensor_extend", fake_extend)
        code, text = run(["tensor-extend", "--seed", "1", "--samples", "1"], tmp_path)
        assert code == cli.EXIT_NUMERIC
        assert data_rows(text)[1].endswith(",False,True")

    def test_selftest_false_row_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "psd_sqrt", lambda s: 0.0 * s)
        code, text = run(["schatten-selftest", "--dim", "3"], tmp_path)
        assert code == cli.EXIT_NUMERIC
        assert any(r.startswith("psd_sqrt_reconstruct,") and r.endswith(",False")
                   for r in data_rows(text))


class TestFreegroupNorms:
    @pytest.mark.parametrize("p", [None, 6, 8])  # None: the default --even-p 4
    def test_even_p_golden(self, tmp_path, p):
        argv = ["freegroup", "norms"] + ([] if p is None else ["--even-p", str(p)])
        p = p or 4
        code, text = run(argv, tmp_path)
        assert code == 0
        rows = [r.split(",") for r in data_rows(text)[1:]]
        assert [r[0] for r in rows] == [f"norm{p}_a_plus_ainv", f"norm{p}_group_element"]
        assert float(rows[0][2]) == math.comb(p, p // 2) ** (1 / p)
        assert float(rows[0][1]) == pytest.approx(float(rows[0][2]), abs=1e-12)
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)
        assert all(r[3] == "True" for r in rows)
        if p == 4:  # the default rows keep their bytes
            assert rows[0][2] == repr(6.0**0.25)

    def test_dyadic_p6_runs(self, tmp_path):
        code, text = run(["freegroup", "dyadic", "--even-p", "6", "--seed", "1",
                          "--samples", "1"], tmp_path)
        assert code == 0
        rows = [r.split(",") for r in data_rows(text)]
        assert rows[0] == ["trial", "constant", "ok"]
        assert [r[2] for r in rows[1:]] == ["True"]

    def test_unsupported_even_p_is_usage_error(self):
        assert cli.main(["freegroup", "norms", "--even-p", "5"]) == cli.EXIT_USAGE


def readme_commands():
    """The ``nclp`` command lines of the README's CLI example block."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [cmd for line in block.splitlines() for cmd in line.split(" ; ")
            if cmd.startswith("nclp ")]


def test_readme_commands_exit_0(tmp_path):
    commands = readme_commands()
    assert len(commands) == 19
    for i, cmd in enumerate(commands):
        argv = shlex.split(cmd)[1:]
        out = str(tmp_path / f"{i}.csv")
        if "--out" in argv:
            argv[argv.index("--out") + 1] = out
        else:
            argv += ["--out", out]
        assert cli.main(argv) == 0, cmd


def test_import_leaves_scipy_out():
    """Nothing in nclp needs scipy: importing the package and the CLI must
    not load scipy.linalg (about 0.24 s and 27 MB on every run)."""
    code = "\n".join([
        "import sys",
        "import nclp, nclp.cli",
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
