import json
import math

import numpy as np
import pytest

from nclp import cli
from nclp.models import freegroup


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
        for line, n in zip(rows[1:], (4, 8, 16)):
            parts = line.split(",")
            fc_val = float(parts[6])
            assert fc_val == pytest.approx(math.sqrt(n / 2.0), abs=1e-9)

    def test_khintchine_lower_ok(self, tmp_path):
        code, text = run(
            ["khintchine", "--p", "4", "--dim", "3", "--family", "4", "--seed", "7"],
            tmp_path,
        )
        assert code == 0
        for line in data_rows(text)[1:]:
            assert ",True," in line

    def test_calculus_check_tolerance(self, tmp_path):
        code, text = run(
            ["calculus-check", "--fn", "g,zexp,sqrtzexp,zis:0.5", "--A", "leftdiag:1,4"],
            tmp_path,
        )
        assert code == 0
        for line in data_rows(text)[1:]:
            assert float(line.rsplit(",", 2)[1]) <= 1e-6
            assert ',"leftdiag:1,4",' in line  # the op column echoes the spec

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
            ["schur", "--points", "4", "--t", "0.5", "--amplification", "2"],
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
        assert header == cli.SQFN_COLS
        row = data_rows(text)[1].split(",")
        k1 = float(row[header.index("K1")])
        assert k1 == pytest.approx(1 / math.sqrt(2), abs=1e-4)

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

    @pytest.mark.parametrize("budget,started", [(1, 4), (4, 4), (9, 8)])
    def test_rbound_reports_starts_run(self, tmp_path, budget, started):
        # each of the four selection lengths 1, 2, 4, 8 gets
        # max(budget // 4, 1) starts
        code, text = run(["rbound", "--seed", "1", "--restarts", str(budget),
                          "--iters", "2", "--points", "4"], tmp_path)
        assert code == 0
        rows = data_rows(text)
        col = rows[0].split(",").index("restarts")
        assert {int(r.split(",")[col]) for r in rows[1:]} == {started}


class TestErrorPaths:
    def test_usage_error(self):
        assert cli.main(["khintchine", "--p"]) == cli.EXIT_USAGE

    def test_missing_seed_is_usage_error(self, tmp_path):
        assert cli.main(["khintchine", "--p", "4"]) == cli.EXIT_USAGE

    def test_numeric_failure_exit(self, tmp_path):
        # negative time is a domain error -> numeric failure exit code
        code = cli.main(["schur", "--points", "3", "--t", "-1.0"])
        assert code == cli.EXIT_NUMERIC

    def test_unknown_operator_spec(self):
        code = cli.main(["calculus-check", "--A", "bogus:1"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["sector-profile", "--p", "0.5"],
            ["khintchine", "--p", "0.5", "--seed", "1"],
            ["schatten-selftest", "--p", "nan"],
            ["rbound", "--points", "11", "--seed", "1"],
            ["rbound", "--points", "1", "--seed", "1"],
            ["rbound", "--theta", "3.5", "--seed", "1"],
            ["rbound", "--theta", "0.9", "0", "--seed", "1"],
            ["rbound", "--restarts", "0", "--seed", "1"],
            ["martingale", "stein", "--restarts", "0", "--seed", "1"],
            ["qfock", "gram", "--q", "1.0"],
            ["clifford", "semigroup", "--n", "8"],
            ["freegroup", "dyadic", "--shells", "4", "--seed", "1"],
            ["khintchine", "--restarts", "0", "--seed", "1"],
            ["khintchine", "--iters", "0", "--seed", "1"],
            ["rbound", "--iters", "0", "--seed", "1"],
            ["martingale", "stein", "--iters", "0", "--seed", "1"],
            ["schur", "--amplification", "0"],
            ["schur", "--points", "0"],
            ["calculus-check", "--A", "foo:1"],
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
            ["qfock", "gram", "--levels", "7"],
            ["qfock", "gram", "--d", "0"],
        ],
        ids=["sector-p-below-1", "khintchine-p-below-1", "selftest-p-nan",
             "rbound-odd-points", "rbound-one-point", "rbound-theta-above-pi",
             "rbound-theta-zero", "rbound-no-restarts", "stein-no-restarts",
             "qfock-q-one", "clifford-n-above-frame-cap", "dyadic-shells-above-pools",
             "khintchine-no-restarts", "khintchine-no-iters", "rbound-no-iters",
             "stein-no-iters", "schur-no-amplification", "schur-no-points",
             "calculus-bad-operator", "calculus-bad-fn", "calculus-bad-fn-parameter",
             "sector-bad-operator", "sqfn-grid-two-fields", "clifford-bad-fn",
             "selftest-no-dim", "khintchine-no-dim", "tensor-no-dim", "khintchine-no-family",
             "tensor-no-family", "cesaro-no-factors", "cesaro-no-increments",
             "identities-no-nodes", "rowcol-gap-zero-n", "qfock-levels-above-cap",
             "qfock-no-d"],
    )
    def test_out_of_domain_flag_is_usage_error(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "Traceback" not in err and "numeric failure" not in err
        assert not (tmp_path / "o.csv").exists()

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

    @pytest.mark.parametrize(
        "argv,conf",
        [
            (["freegroup", "norms"], {"even_p": 5}),  # the flag --even-p 5 exits 2 too
            (["schatten-selftest"], {"bogus": 1}),
        ],
        ids=["bad-choice", "unknown-key"],
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
    def _patch_budget_exhausted(self, monkeypatch):
        from nclp.hvnorms import KhintchineReport

        def fake_report(fam, p, cfg=None, **kw):
            return KhintchineReport(
                p, 1.0, 2.0, True, 0.5, "sum", solver_status="budget-exhausted"
            )

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


    @pytest.mark.parametrize(
        "status,strict,expected",
        [("converged", False, cli.EXIT_OK), ("budget-exhausted", False, cli.EXIT_SOLVER),
         ("budget-exhausted", True, cli.EXIT_NUMERIC)],
    )
    def test_sqfn_equiv_reports_solver_status(self, tmp_path, monkeypatch, status,
                                              strict, expected):
        from nclp.optim import SolveResult

        def fake_solve(fwd1, adj1, fwd2, adj2, v0, p, cfg=None):
            return SolveResult(value=1.0, minimizer=np.zeros_like(v0), status=status)

        # the symmetric square function solves through hvnorms, the bracket in sqfn
        monkeypatch.setattr(cli.hvnorms, "minimize_split_schatten", fake_solve)
        monkeypatch.setattr(cli.sqfn, "minimize_split_schatten", fake_solve)
        argv = ["sqfn-equiv", "--A", "leftdiag:0.5,1,2", "--fn", "sqrtzexp", "--p", "1.5",
                "--seed", "3", "--samples", "2", "--variant", "rad",
                "--out", str(tmp_path / "sq.csv")]
        assert cli.main(argv + ["--strict"] * strict) == expected


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
