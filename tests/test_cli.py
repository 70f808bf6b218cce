import argparse
import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbfdr import (
    DominoConfig,
    EvidenceKind,
    EvidenceVector,
    bh,
    domino_e,
    holm_k,
    local_test,
)
from kbfdr import cli
from kbfdr.cli import (
    EXIT_CONFLICT,
    EXIT_OK,
    EXIT_PARSE,
    ParseFailure,
    _resolve_run_test,
    main,
    read_evidence_csv,
)
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
        # The rejections brute-force enumeration finds on this file.
        out = tmp_path / "rej.csv"
        code = main([
            "run", p_file, "--proc", "domino", "--k", "1", "--alpha", "0.05",
            "--test", "bonferroni", "--out", str(out),
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
        # Every value reaches 1/alpha = 20, and the closure e-test has no
        # size cap, so all 13 are rejected.
        path = tmp_path / "e13.csv"
        rows = "".join(f"{i},50\n" for i in range(1, 14))
        path.write_text("index,e_value\n" + rows, encoding="utf-8")
        assert main(["run", str(path), "--proc", "domino-e", "--k", "2",
                     "--alpha", "0.05",
                     "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert capsys.readouterr().out == "rejections=13 boundary=50.0\n"

    def test_choices_are_the_enum_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        usage = capsys.readouterr().out
        tests = ",".join(sorted(t.value for t in TestId))
        assert tests == "bonferroni,eavg,eclosure,harmonic,simes"
        assert f"--test {{{tests}}}" in usage

    def test_mode_flag_is_gone(self, p_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", p_file, "--proc", "domino", "--alpha", "0.05",
                  "--mode", "brute"])
        assert exit_info.value.code == EXIT_PARSE
        assert "unrecognized arguments: --mode brute" in capsys.readouterr().err

    def test_order_conflict_exits_3(self, p_file):
        # simes is order-1 only
        assert main(["run", p_file, "--proc", "domino", "--k", "2",
                     "--alpha", "0.05", "--test", "simes"]) == EXIT_CONFLICT

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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("mu_c = 3.0", "mu_c = inf", "mu_c must be finite, got inf"),
            ("mu_c = 3.0", "mu_c = -inf", "mu_c must be finite, got -inf"),
            ("mu_c = 3.0", "mu_c = nan", "mu_c must be finite, got nan"),
            ("sigma = 1.0", "sigma = inf", "sigma must be finite and > 0, got inf"),
            ("sigma = 1.0", "sigma = nan", "sigma must be finite and > 0, got nan"),
            ("rho = 0.0", "rho = nan", "rho must lie in [-0.0526316, 1), got nan"),
        ],
        ids=["mu_c-inf", "mu_c-minus-inf", "mu_c-nan", "sigma-inf", "sigma-nan",
             "rho-nan"],
    )
    def test_non_finite_scenario_value_exits_2(self, tmp_path, capsys, old, new, message):
        # Rejected while parsing, before a non-finite value reaches the evidence.
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG.replace(old, new), encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("mu_c = 3.0", "mu_c = -50",
             "bad scenario value: mu_c = -50.0 with sigma = 1.0 draws too few "
             "positive signal means"),
            ("mu_c = 3.0", "mu_c = 1e200", "mu_c must have a finite square, got 1e+200"),
            ("sigma = 1.0", "sigma = 1e200",
             "sigma must have a finite square, got 1e+200"),
            # The square underflows to 0, and the e-values divide by it.
            pytest.param("sigma = 1.0", "sigma = 1e-200",
                         "sigma must have a nonzero square, got 1e-200",
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        ],
        ids=["mu_c-minus-50", "mu_c-1e200", "sigma-1e200", "sigma-1e-200"],
    )
    def test_extreme_finite_scenario_value_exits_2(self, tmp_path, capsys, old, new,
                                                   message):
        # Finite, but the generator cannot draw from it: no traceback.
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG.replace(old, new), encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
    def test_pointwise_indicators_suite_passes(self, capsys):
        assert main(["validate", "--suite", "pointwise-indicators"]) == EXIT_OK
        assert "pointwise-indicators: PASS" in capsys.readouterr().out

    def test_default_vs_brute_suite_passes(self, capsys):
        assert main(["validate", "--suite", "default-vs-brute"]) == EXIT_OK
        assert "default-vs-brute: PASS" in capsys.readouterr().out

    def test_unknown_suite_exits_2(self):
        assert main(["validate", "--suite", "not-a-suite"]) == EXIT_PARSE

    def test_all_suites_pass(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out


class TestReadEvidence:
    def test_reads_e_values_with_inf(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("index,e_value\n1,inf\n2,1.0\n", encoding="utf-8")
        ev = read_evidence_csv(str(path))
        assert ev.values[0] == float("inf")


_LIMIT = 131_072  # csv.field_size_limit() unless a caller changed it

# (name, file bytes, whether the plain-shape reader takes the file, None if
# the file never reaches it). Files it refuses go through csv.reader; either
# way the outcome must be the same.
EVIDENCE_CORPUS = [
    ("plain", b"index,p_value\n1,0.002\n2,0.01\n3,0.9\n", True),
    ("plain e-values", b"index,e_value\n1,50\n2,25\n3,0.1\n", True),
    ("quoted cells", b'index,p_value\n"1","0.01"\n2,0.5\n', False),
    ("quoted comma", b'"index","p_value"\n1,"0,5"\n', False),
    ("blank rows", b"index,p_value\n1,0.001\n\n2,0.002\n , \n3,0.50\n", False),
    ("whitespace row", b"index,p_value\n1,0.1\n   \n2,0.2\n", False),
    ("blank line first", b"\nindex,p_value\n1,0.1\n", False),
    ("trailing blank lines", b"index,p_value\n1,0.1\n\n\n", False),
    ("crlf", b"index,p_value\r\n1,0.1\r\n2,0.2\r\n", False),
    ("lone cr", b"index,p_value\r1,0.1\r2,0.2\r", False),
    ("cr mid-file", b"index,p_value\n1,0.1\r2,0.2\n", False),
    ("inf", b"index,e_value\n1,inf\n2,1.0\n3,Infinity\n", True),
    ("nan", b"index,p_value\n1,nan\n2,0.5\n", True),
    ("subnormals", b"index,p_value\n1,5e-324\n2,2.2250738585072014e-308\n"
     b"3,1e-310\n4,4.9e-324\n", True),
    ("underscore index", b"index,p_value\n" + "".join(
        f"{i},0.5\n" for i in range(1, 10)).encode() + b"1_0,0.5\n", False),
    ("plus index", b"index,p_value\n+1,0.1\n+2,0.2\n", True),
    ("spaced cells", b"index,p_value\n 1,0.1\n 2, 0.2 \n", True),
    ("non-ascii digit", "index,p_value\n١,0.1\n".encode(), False),
    # numpy strips these as whitespace; int and float reject them.
    ("separator in index", b"index,p_value\n\x1c1,0.1\n", False),
    ("separator in value", b"index,p_value\n1,0.1\x1f\n", False),
    ("nul in value", b"index,p_value\n1,0.1\x00\n", False),
    ("nul in header", b"index\x00,p_value\n1,0.1\n", False),
    ("no final newline", b"index,p_value\n1,0.1\n2,0.2", True),
    ("header case and space", b" Index , P_VALUE \n1,0.1\n", True),
    ("bad header", b"p,q\n1,0.1\n", False),
    ("byte order mark", "﻿index,p_value\n1,0.1\n".encode(), True),
    ("extra column", b"index,p_value\n1,0.1,x\n", False),
    ("extra header column", b"index,p_value,x\n1,0.1\n", False),
    ("empty value", b"index,p_value\n1,\n", False),
    ("out of order", b"index,p_value\n2,0.1\n1,0.2\n", False),
    ("missing index", b"index,p_value\n1,0.1\n3,0.2\n", False),
    ("zero-based", b"index,p_value\n0,0.1\n1,0.2\n", False),
    ("huge index", b"index,p_value\n99999999999999999999999,0.1\n", False),
    ("misaligned commas", b"index,p_value\n1,0.5,2\n0.3\n", False),
    ("p above one", b"index,p_value\n1,1.7\n", True),
    ("header only", b"index,p_value\n", False),
    ("empty", b"", False),
    ("only blank lines", b"\n \n\n", False),
    ("field at the limit",
     b"index,p_value\n1,0." + b"0" * (_LIMIT - 3) + b"1\n", True),
    ("field over the limit",
     b"index,p_value\n1,0." + b"0" * (_LIMIT - 2) + b"1\n", False),
    ("header over the limit",
     b" " * _LIMIT + b"index,p_value\n1,0.1\n", False),
    ("not utf-8", b"index,p_value\n1,0.0\xe91\n", None),
]


def _read_outcome(path):
    try:
        ev = read_evidence_csv(path)
    except ParseFailure as exc:
        return "error", str(exc)
    return ev.kind, ev.values.tobytes()


class TestReadEvidenceCorpus:
    @pytest.mark.parametrize("name,data,plain",
                             EVIDENCE_CORPUS, ids=[c[0] for c in EVIDENCE_CORPUS])
    def test_plain_reader_agrees_with_csv_reader(self, tmp_path, monkeypatch,
                                                  name, data, plain):
        assert csv.field_size_limit() == _LIMIT
        path = tmp_path / "ev.csv"
        path.write_bytes(data)
        taken = []
        real_read_plain = cli._read_plain

        def spy(text):
            parsed = real_read_plain(text)
            taken.append(parsed is not None)
            return parsed

        monkeypatch.setattr(cli, "_read_plain", spy)
        fast = _read_outcome(str(path))
        assert taken == ([] if plain is None else [plain]), name
        monkeypatch.setattr(cli, "_read_plain", lambda text: None)
        assert _read_outcome(str(path)) == fast, name

    def test_plain_shape_never_reaches_csv_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        path.write_text("index,p_value\n" + "".join(
            f"{i},{i / 2000!r}\n" for i in range(1, 1001)), encoding="utf-8")
        out = tmp_path / "rej.csv"
        argv = ["run", str(path), "--proc", "bh", "--alpha", "0.05",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        expected = out.read_bytes()

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader ran on a plain file")

        monkeypatch.setattr(cli.csv, "reader", refuse)
        out.unlink()
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == expected

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"index,p_value\n1,0.0\xe91\n")
        assert main(["run", str(path), "--proc", "bh", "--alpha", "0.05"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text: ")

    def test_over_long_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("index,p_value\n1,0.1\n2,0." + "0" * _LIMIT + "1\n",
                        encoding="utf-8")
        assert main(["run", str(path), "--proc", "bh", "--alpha", "0.05"]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {path}:3: field larger than field limit ({_LIMIT})\n"
        )

    @pytest.mark.parametrize("data,where", [
        ("index,p_value\n1,0.1\n3,0.2\n",
         ":3: indices must be 1-based and contiguous"),
        ("index,p_value\n\n1,0.1\n3,0.2\n",
         ":4: indices must be 1-based and contiguous"),
        ("index,p_value\n1,0.1\n\n , \n2,0.2,x\n", ":5: expected 2 fields"),
        ('index,p_value\n1,"0.1\n"\n2,x\n',
         ":4: could not convert string to float: 'x'"),
    ], ids=["no blank rows", "blank row", "blank rows", "quoted newline"])
    def test_bad_row_is_named_by_its_line(self, tmp_path, capsys, data, where):
        path = tmp_path / "rows.csv"
        path.write_text(data, encoding="utf-8")
        assert main(["run", str(path), "--proc", "bh", "--alpha", "0.05"]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {path}{where}\n"


# Characters on which a fast parser may disagree with int, float and
# csv.reader: ASCII separators, Unicode spaces and digits, signs,
# underscores, quotes, CR, NUL and line breaks that only str.splitlines knows.
_HOSTILE = "\x1c\x1d\x1e\x1f\xa0\u2000\u0661\u0662_+-.\"\r\x00\x0b\x0c\x85\u2028 \t"


@st.composite
def _evidence_texts(draw):
    """Text close to the plain shape: rows of 0-3 commas whose cells are a
    valid index or value, a hostile token, or either padded with hostile
    characters; now and then a blank or whitespace-only row."""
    header = draw(st.sampled_from(["index,p_value", "index,e_value", " Index , E_VALUE "]))
    pad = st.text(alphabet=_HOSTILE, max_size=2)
    lines = [header]
    for i in range(1, draw(st.integers(1, 5)) + 1):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.text(alphabet=" \t", max_size=2)))
            continue
        cores = [str(i), draw(st.sampled_from(["0.5", "1e-3", "5e-324", "inf", "nan", "1"]))]
        cores += draw(st.lists(st.sampled_from(["", "1_0", "1.0", "\u0661", "0_5"]),
                               max_size=2))
        cells = [draw(pad) + core + draw(pad)
                 for core in cores[:draw(st.integers(1, len(cores)))]]
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _rows_outcome(text):
    try:
        kind, values = cli._read_rows("ev.csv", text)
    except ParseFailure:
        return None
    return kind, np.asarray(values, dtype=float).tobytes()


class TestByteOrderMark:
    """Spreadsheet "CSV UTF-8" exports start with a byte-order mark; a file
    with one gives the output bytes of the same file without it."""

    BOM = "\ufeff".encode()

    @pytest.mark.parametrize("body, plain", [
        ("index,p_value\n1,0.001\n2,0.5\n3,0.02\n", True),
        ('index,p_value\n1,"0.001"\n2,0.5\n3,0.02\n', False),
    ], ids=["plain", "quoted"])
    def test_evidence_file(self, tmp_path, monkeypatch, body, plain):
        taken = []
        real_read_plain = cli._read_plain

        def spy(text):
            parsed = real_read_plain(text)
            taken.append(parsed is not None)
            return parsed

        monkeypatch.setattr(cli, "_read_plain", spy)
        outputs = []
        for name, prefix in (("no_bom", b""), ("bom", self.BOM)):
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_rej.csv"
            path.write_bytes(prefix + body.encode())
            argv = ["run", str(path), "--proc", "holm", "--alpha", "0.05", "--out", str(out)]
            assert main(argv) == EXIT_OK
            outputs.append(out.read_bytes())
        assert taken == [plain, plain]
        assert outputs[0] == outputs[1]
        assert outputs[1].count(b",1,") == 2

    def test_config_file(self, tmp_path):
        outputs = []
        for name, prefix in (("no_bom", b""), ("bom", self.BOM)):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_bytes(prefix + CONFIG.encode())
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestPlainReaderDifferential:
    @settings(max_examples=400, deadline=None)
    @given(_evidence_texts())
    @example("index,p_value\n\x1c1,0.5\n")
    @example("index,e_value\n1,50\x1f\n2,0.1\x1d\n")
    def test_plain_reader_is_none_or_the_csv_reader_result(self, text):
        plain = cli._read_plain(text)
        if plain is not None:
            kind, values = plain
            assert _rows_outcome(text) == (kind, np.asarray(values, dtype=float).tobytes())


def _old_rejection_bytes(ev, rejection, marginal):
    # The per-row formula the rejection CSV has always followed.
    ranks = {j: rank for rank, j in enumerate(marginal, start=1)}
    rejected = set(rejection.ranked.tolist())
    rows = (f"{j + 1},{v!r},{int(j in rejected)},{ranks.get(j, '')}\n"
            for j, v in enumerate(ev.values.tolist()))
    return ("index,evidence,rejected,marginal_rank\n" + "".join(rows)).encode()


class TestWriteRejections:
    @pytest.mark.parametrize("kind", ["p", "e"])
    def test_matches_the_per_row_formula(self, tmp_path, kind):
        rng = np.random.default_rng(7)
        if kind == "p":
            values = rng.random(10_000) ** 6
            values[:6] = [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310, 0.0]
            ev = EvidenceVector(EvidenceKind.P_VALUE, values)
            cases = [(bh(ev, 0.05), 1), (holm_k(ev, 2, 0.05), 2)]
        else:
            values = 1.0 / rng.random(10_000)
            values[:6] = [np.inf, 1e308, 0.0, 1.0, 5e-324, 1e308]
            ev = EvidenceVector(EvidenceKind.E_VALUE, values)
            cases = [(domino_e(ev, DominoConfig(local_test("eclosure", 2), 0.05)), 2)]
        for rejection, k in cases:
            assert rejection.size >= k
            marginal = rejection.marginal_indices(k)
            out = tmp_path / "rej.csv"
            cli._write_rejections(str(out), ev, rejection, marginal)
            assert out.read_bytes() == _old_rejection_bytes(ev, rejection, marginal)


class TestOrderBelowOne:
    @pytest.mark.parametrize("proc", ["domino", "domino-e"])
    def test_run_exits_3(self, p_file, e_file, proc, capsys):
        path = p_file if proc == "domino" else e_file
        assert main(["run", path, "--proc", proc, "--k", "0", "--alpha", "0.05"]) \
            == EXIT_CONFLICT
        assert capsys.readouterr().err == "configuration conflict: k must be >= 1, got 0\n"

    def test_simulate_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CONFIG.replace("k = 1", "k = 0"), encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: need 1 <= k <= m, got k=0\n"
