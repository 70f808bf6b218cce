import argparse

import pytest

from kbfdr.cli import (
    EXIT_CONFLICT,
    EXIT_OK,
    EXIT_PARSE,
    _resolve_run_test,
    main,
    read_evidence_csv,
)
from kbfdr.engine import MAX_BRUTE_FORCE_CAP, Mode
from kbfdr.local_tests import TestId


@pytest.fixture
def p_file(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("index,p_value\n1,0.002\n2,0.01\n3,0.9\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def e_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("index,e_value\n1,50\n2,25\n3,0.1\n", encoding="utf-8")
    return str(path)


class TestRun:
    def test_domino_bruteforce(self, p_file, tmp_path, capsys):
        out = tmp_path / "rej.csv"
        code = main([
            "run", p_file, "--proc", "domino", "--k", "1", "--alpha", "0.05",
            "--test", "bonferroni", "--mode", "brute", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "index,evidence,rejected,marginal_rank"
        assert lines[1] == "1,0.002,1,"
        assert lines[2] == "2,0.01,1,1"
        assert lines[3] == "3,0.9,0,"
        assert "rejections=2 boundary=0.01" in capsys.readouterr().out

    def test_bh(self, p_file, tmp_path):
        out = tmp_path / "rej.csv"
        code = main(["run", p_file, "--proc", "bh", "--alpha", "0.05",
                     "--out", str(out)])
        assert code == EXIT_OK
        rejected = [line.split(",")[2] for line in
                    out.read_text().splitlines()[1:]]
        assert rejected == ["1", "1", "0"]

    def test_domino_e(self, e_file, tmp_path):
        out = tmp_path / "rej.csv"
        code = main(["run", e_file, "--proc", "domino-e", "--k", "1",
                     "--alpha", "0.05", "--out", str(out)])
        assert code == EXIT_OK
        rejected = [line.split(",")[2] for line in
                    out.read_text().splitlines()[1:]]
        assert rejected == ["1", "0", "0"]

    def test_byte_identical_outputs(self, p_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["run", p_file, "--proc", "holm", "--alpha", "0.05",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rejection_csv_bytes(self, tmp_path):
        # Blank and whitespace-only rows are skipped; with k=2 both
        # rejections are marginal, the least significant one at rank 1.
        path = tmp_path / "p.csv"
        path.write_text("index,p_value\n1,0.001\n\n2,0.002\n , \n3,0.50\n",
                        encoding="utf-8")
        out = tmp_path / "rej.csv"
        code = main(["run", str(path), "--proc", "holm", "--k", "2",
                     "--alpha", "0.05", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == (
            b"index,evidence,rejected,marginal_rank\n"
            b"1,0.001,1,2\n2,0.002,1,1\n3,0.5,0,\n"
        )

    def test_empty_file_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,p_value\n", encoding="utf-8")
        assert main(["run", str(path), "--proc", "bh", "--alpha", "0.05"]) == EXIT_PARSE

    def test_missing_file_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert main(["run", missing, "--proc", "bh", "--alpha", "0.05"]) == EXIT_PARSE

    def test_kind_conflict_exits_3(self, p_file, e_file):
        assert main(["run", p_file, "--proc", "domino-e", "--k", "1",
                     "--alpha", "0.05"]) == EXIT_CONFLICT
        assert main(["run", e_file, "--proc", "bh", "--alpha", "0.05"]) == EXIT_CONFLICT
        assert main(["run", p_file, "--proc", "domino", "--alpha", "0.05",
                     "--test", "eavg"]) == EXIT_CONFLICT

    @pytest.mark.parametrize("proc", ["bh", "holm"])
    def test_mode_with_baseline_exits_3(self, p_file, proc):
        assert main(["run", p_file, "--proc", proc, "--alpha", "0.05",
                     "--mode", "fast"]) == EXIT_CONFLICT

    @pytest.mark.parametrize("proc", ["bh", "holm"])
    @pytest.mark.parametrize("flags", [
        ["--k", "0", "--alpha", "0.05"],
        ["--alpha", "2"],
        ["--alpha", "-1"],
        ["--alpha", "nan"],
    ])
    def test_baseline_bad_order_or_level_exits_3(self, p_file, proc, flags, capsys):
        assert main(["run", p_file, "--proc", proc, *flags]) == EXIT_CONFLICT
        assert capsys.readouterr().err.startswith("configuration conflict: ")

    def test_brute_eclosure_past_twelve_values(self, tmp_path, capsys):
        path = tmp_path / "e13.csv"
        rows = "".join(f"{i},50\n" for i in range(1, 14))
        path.write_text("index,e_value\n" + rows, encoding="utf-8")
        assert main(["run", str(path), "--proc", "domino-e", "--k", "2",
                     "--alpha", "0.05", "--mode", "brute",
                     "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert capsys.readouterr().out == "rejections=13 boundary=50.0\n"

    def test_choices_are_the_enum_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        usage = capsys.readouterr().out
        tests = ",".join(sorted(t.value for t in TestId))
        modes = ",".join(sorted(m.value for m in Mode))
        assert tests == "bonferroni,eavg,eclosure,harmonic,simes"
        assert modes == "brute,exact,fast"
        assert f"--test {{{tests}}}" in usage
        assert f"--mode {{{modes}}}" in usage

    def test_order_conflict_exits_3(self, p_file):
        # simes is order-1 only
        assert main(["run", p_file, "--proc", "domino", "--k", "2",
                     "--alpha", "0.05", "--test", "simes"]) == EXIT_CONFLICT

    def test_brute_cap_env_override(self, p_file, monkeypatch):
        monkeypatch.setenv("DOMINO_BRUTE_CAP", "2")
        assert main(["run", p_file, "--proc", "domino", "--k", "1",
                     "--alpha", "0.05", "--test", "bonferroni",
                     "--mode", "brute"]) == EXIT_CONFLICT

    def test_brute_cap_above_ceiling_exits_2(self, p_file, monkeypatch, capsys):
        for raw in (str(MAX_BRUTE_FORCE_CAP + 1), "60", "0"):
            monkeypatch.setenv("DOMINO_BRUTE_CAP", raw)
            assert main(["run", p_file, "--proc", "domino", "--alpha", "0.05",
                         "--test", "bonferroni", "--mode", "brute"]) == EXIT_PARSE
            assert "DOMINO_BRUTE_CAP must lie in" in capsys.readouterr().err
        monkeypatch.setenv("DOMINO_BRUTE_CAP", str(MAX_BRUTE_FORCE_CAP))
        assert main(["run", p_file, "--proc", "domino", "--alpha", "0.05",
                     "--test", "bonferroni", "--mode", "brute"]) == EXIT_OK

    def test_fast_bonferroni_warns_on_stderr(self, p_file, tmp_path, capsys):
        outs = {}
        for mode in ("fast", "exact"):
            out = tmp_path / f"{mode}.csv"
            assert main(["run", p_file, "--proc", "domino", "--alpha", "0.05",
                         "--test", "bonferroni", "--mode", mode,
                         "--out", str(out)]) == EXIT_OK
            captured = capsys.readouterr()
            outs[mode] = (captured.out, captured.err, out.read_bytes())
        fast_out, fast_err, fast_csv = outs["fast"]
        exact_out, exact_err, exact_csv = outs["exact"]
        assert fast_out == exact_out == "rejections=2 boundary=0.01\n"
        assert fast_csv == exact_csv
        assert exact_err == ""
        assert len(fast_err.splitlines()) == 1
        assert "more liberal than the closure" in fast_err

    def test_malformed_rows_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,p_value\n1,0.1\n3,0.2\n", encoding="utf-8")
        assert main(["run", str(bad), "--proc", "bh", "--alpha", "0.05"]) == EXIT_PARSE
        bad.write_text("p,q\n1,0.1\n", encoding="utf-8")
        assert main(["run", str(bad), "--proc", "bh", "--alpha", "0.05"]) == EXIT_PARSE
        bad.write_text("index,p_value\n1,1.7\n", encoding="utf-8")
        assert main(["run", str(bad), "--proc", "bh", "--alpha", "0.05"]) == EXIT_PARSE


class TestDependenceDefaults:
    def _args(self, **kw):
        base = dict(proc="domino", k=1, test=None, dependence="independent")
        base.update(kw)
        return argparse.Namespace(**base)

    def test_independent_and_prds_default_to_simes(self):
        for dep in ("independent", "prds"):
            assert _resolve_run_test(self._args(dependence=dep)) is TestId.SIMES

    def test_arbitrary_defaults_to_harmonic(self):
        args = self._args(dependence="arbitrary")
        assert _resolve_run_test(args) is TestId.HARMONIC_MEAN

    def test_higher_order_defaults_to_bonferroni(self):
        args = self._args(k=2, dependence="independent")
        assert _resolve_run_test(args) is TestId.BONFERRONI_K

    def test_domino_e_defaults_to_eclosure(self):
        args = self._args(proc="domino-e")
        assert _resolve_run_test(args) is TestId.E_CLOSURE_K

    def test_explicit_test_wins(self):
        args = self._args(test="harmonic")
        assert _resolve_run_test(args) is TestId.HARMONIC_MEAN


CONFIG = """\
# toy grid
m = 20
pi1 = 0.2
mu_c = 3.0
sigma = 1.0
rho = 0.0
alpha = 0.1
k = 1
reps = 5
seed = 3
procedures = bh, bonferroni:1, eavg:1
"""


class TestSimulate:
    def test_runs_config(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG, encoding="utf-8")
        out = tmp_path / "metrics.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4  # header + 3 procedures
        assert lines[0].startswith("scenario_id,procedure,k,alpha")

    def test_byte_stable(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG, encoding="utf-8")
        blobs = []
        for name in ("m1.csv", "m2.csv"):
            out = tmp_path / name
            main(["simulate", "--config", str(cfg), "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG, encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg), "--out", str(a)])
        main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_key_exits_2(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG.replace("alpha = 0.1\n", ""), encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE

    def test_rho_out_of_range_exits_2(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG.replace("rho = 0.0", "rho = 1.5"), encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG + "extra = 1\n", encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE

    def test_scenario_expansion(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            CONFIG.replace("rho = 0.0", "rho = 0.0, 0.25")
            .replace("alpha = 0.1", "alpha = 0.05, 0.1"),
            encoding="utf-8",
        )
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 * 3  # 2 rho x 2 alpha x 3 procedures

    @pytest.mark.parametrize("token", ["bh:0", "holm:0", "simes:0", "bonferroni:200"])
    def test_bad_procedure_token_exits_2_before_any_replication(
        self, tmp_path, monkeypatch, token
    ):
        def no_grid(*args):
            raise AssertionError("replications ran")

        monkeypatch.setattr("kbfdr.cli.run_grid", no_grid)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG.replace("bh, bonferroni:1, eavg:1", token),
                       encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        assert not out.exists()

    def test_baselines_run_past_m(self, tmp_path):
        # bh and generalized Holm are defined for k > m; Domino is not.
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG.replace("bh, bonferroni:1, eavg:1", "bh:30, holm:30"),
                       encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3

    def test_bundled_config_resolves(self):
        from kbfdr.cli import _load_config

        entries = _load_config("table1.cfg")
        assert entries["m"] == "100"
        assert "simes:1" in entries["procedures"]

    def test_missing_config_exits_2(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(out)]) == EXIT_PARSE


class TestValidate:
    def test_divergence_suite_passes(self, capsys):
        assert main(["validate", "--suite", "fastpath-divergence"]) == EXIT_OK
        assert "fastpath-divergence: PASS" in capsys.readouterr().out

    def test_default_vs_brute_suite_passes(self, capsys):
        assert main(["validate", "--suite", "default-vs-brute"]) == EXIT_OK
        assert "default-vs-brute: PASS" in capsys.readouterr().out

    def test_unknown_suite_exits_2(self):
        assert main(["validate", "--suite", "not-a-suite"]) == EXIT_PARSE

    def test_all_suites_pass(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out


class TestReadEvidence:
    def test_reads_e_values_with_inf(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("index,e_value\n1,inf\n2,1.0\n", encoding="utf-8")
        ev = read_evidence_csv(str(path))
        assert ev.values[0] == float("inf")
