"""Command-line front end.

Three subcommands:

* ``run``       apply a procedure to an evidence CSV and write rejections
* ``simulate``  execute a scenario grid from a config file, emit metrics CSV
* ``validate``  run the built-in self-check suites

Exit codes: 0 success, 1 validation-suite failure, 2 input/parse error,
3 configuration conflict.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from importlib import resources

from .baselines import bh, holm_k
from .core import EvidenceKind, EvidenceVector, RejectionSet
from .engine import (
    DEFAULT_BRUTE_FORCE_CAP,
    MAX_BRUTE_FORCE_CAP,
    DominoConfig,
    Mode,
    domino_e,
    domino_p,
)
from .local_tests import TestId, local_test
from .simulate import SimScenario, emit_table, make_procedure, run_grid
from .validation import SUITES, run_suites

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_CONFLICT = 3

class ParseFailure(Exception):
    pass


class ConfigConflict(Exception):
    pass


def _brute_cap() -> int:
    raw = os.environ.get("DOMINO_BRUTE_CAP")
    if raw is None:
        return DEFAULT_BRUTE_FORCE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ParseFailure(f"DOMINO_BRUTE_CAP is not an integer: {raw!r}") from exc
    if not 1 <= cap <= MAX_BRUTE_FORCE_CAP:
        raise ParseFailure(
            f"DOMINO_BRUTE_CAP must lie in [1, {MAX_BRUTE_FORCE_CAP}], got {cap} "
            f"(brute force enumerates up to 2^(m-k) supersets per rank)"
        )
    return cap


def read_evidence_csv(path: str) -> EvidenceVector:
    """Read `index,p_value` or `index,e_value` rows; indices 1-based contiguous."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    # A row whose cells are all blank is skipped, like an empty line.
    rows = [row for row in rows if "".join(row).strip()]
    if not rows:
        raise ParseFailure(f"{path}: empty evidence file")
    header = [cell.strip().lower() for cell in rows[0]]
    if header == ["index", "p_value"]:
        kind = EvidenceKind.P_VALUE
    elif header == ["index", "e_value"]:
        kind = EvidenceKind.E_VALUE
    else:
        raise ParseFailure(
            f"{path}: header must be 'index,p_value' or 'index,e_value', "
            f"got {','.join(header)!r}"
        )
    if len(rows) == 1:
        raise ParseFailure(f"{path}: no evidence rows")
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseFailure(f"{path}:{lineno}: expected 2 fields")
        try:
            idx = int(row[0])
            val = float(row[1])
        except ValueError as exc:
            raise ParseFailure(f"{path}:{lineno}: {exc}") from exc
        if idx != lineno - 1:
            raise ParseFailure(
                f"{path}:{lineno}: indices must be 1-based and contiguous"
            )
        values.append(val)
    try:
        return EvidenceVector(kind, values)
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def _resolve_run_test(args) -> TestId:
    if args.test is not None:
        return TestId(args.test)
    if args.proc == "domino":
        # Dependence-driven defaults for order 1; the generalized Bonferroni
        # test is the only built-in of higher order.
        if args.k == 1:
            if args.dependence in ("independent", "prds"):
                return TestId.SIMES
            return TestId.HARMONIC_MEAN
        return TestId.BONFERRONI_K
    if args.proc == "domino-e":
        return TestId.E_CLOSURE_K
    raise ConfigConflict(f"--test is meaningless for --proc {args.proc}")


def _apply_procedure(args, ev: EvidenceVector) -> RejectionSet:
    mode = Mode(args.mode) if args.mode else None
    if args.proc in ("bh", "holm"):
        if ev.kind is not EvidenceKind.P_VALUE:
            raise ConfigConflict(f"{args.proc} requires a p-value file")
        if args.test is not None:
            raise ConfigConflict(f"--test does not apply to {args.proc}")
        if mode is not None:
            raise ConfigConflict(f"--mode does not apply to {args.proc}")
    else:
        test_id = _resolve_run_test(args)
        if mode is Mode.FAST and test_id is TestId.BONFERRONI_K:
            print(
                "warning: --mode fast runs the Bonferroni chain scan, which is "
                "more liberal than the closure and does not control k-bFDR",
                file=sys.stderr,
            )
    try:
        if args.proc == "bh":
            return bh(ev, args.alpha, k=args.k)
        if args.proc == "holm":
            return holm_k(ev, args.k, args.alpha)
        test = local_test(test_id, args.k)
        cfg = DominoConfig(test, args.alpha, mode=mode, brute_force_cap=_brute_cap())
        decide = domino_p if args.proc == "domino" else domino_e
        return decide(ev, cfg)
    except ValueError as exc:
        raise ConfigConflict(str(exc)) from exc


def _write_rejections(path, ev: EvidenceVector, rejection: RejectionSet) -> None:
    # Built column by column so that the per-row work is C-level joins.
    rejected = ["0"] * ev.m
    for j in rejection.ranked.tolist():
        rejected[j] = "1"
    marginal_rank = [""] * ev.m
    for rank, j in enumerate(rejection.marginal_indices, start=1):
        marginal_rank[j] = str(rank)
    rows = map(",".join, zip(
        map(str, range(1, ev.m + 1)),
        map(repr, ev.values.tolist()),
        rejected,
        marginal_rank,
    ))
    payload = "\n".join(["index,evidence,rejected,marginal_rank", *rows, ""])
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)


def cmd_run(args) -> int:
    ev = read_evidence_csv(args.input)
    rejection = _apply_procedure(args, ev)
    _write_rejections(args.out, ev, rejection)
    if rejection.marginal_indices:
        boundary = repr(float(ev.values[rejection.marginal_indices[0]]))
    else:
        boundary = "NA"
    print(f"rejections={rejection.size} boundary={boundary}")
    return EXIT_OK


def _parse_config_text(text: str, path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseFailure(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in entries:
            raise ParseFailure(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def _load_config(path: str) -> dict[str, str]:
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            return _parse_config_text(handle.read(), path)
    bundled = resources.files("kbfdr.configs").joinpath(path)
    if bundled.is_file():
        return _parse_config_text(bundled.read_text(encoding="utf-8"), path)
    raise ParseFailure(f"no config file at {path} and no bundled config by that name")


_DOMINO_NAMES = frozenset(t.value for t in TestId)
_REQUIRED_SCENARIO_KEYS = (
    "m", "pi1", "mu_c", "sigma", "rho", "alpha", "k", "reps", "seed", "procedures",
)


def _build_scenarios(entries: dict[str, str], seed_override) -> tuple[list[SimScenario], list]:
    missing = [key for key in _REQUIRED_SCENARIO_KEYS if key not in entries]
    if missing:
        raise ParseFailure(f"config is missing required keys: {', '.join(missing)}")
    unknown = set(entries) - set(_REQUIRED_SCENARIO_KEYS)
    if unknown:
        raise ParseFailure(f"config has unknown keys: {', '.join(sorted(unknown))}")
    try:
        m = int(entries["m"])
        pi1 = float(entries["pi1"])
        mu_c = float(entries["mu_c"])
        sigma = float(entries["sigma"])
        rhos = [float(tok) for tok in entries["rho"].split(",")]
        alphas = [float(tok) for tok in entries["alpha"].split(",")]
        k = int(entries["k"])
        reps = int(entries["reps"])
        seed = int(entries["seed"])
    except ValueError as exc:
        raise ParseFailure(f"bad scenario value: {exc}") from exc
    if seed_override is not None:
        seed = seed_override
    try:
        tokens = [tok for tok in entries["procedures"].split(",") if tok.strip()]
        if not tokens:
            raise ValueError("no procedures given")
        procedures = [make_procedure(tok) for tok in tokens]
        for tok, proc in zip(tokens, procedures):
            # Domino needs k <= m; bh and holm are defined for any k.
            if tok.split(":")[0].strip().lower() in _DOMINO_NAMES and proc.k > m:
                raise ValueError(f"procedure {tok.strip()!r}: k={proc.k} exceeds m={m}")
        scenarios = [
            SimScenario(m=m, pi1=pi1, mu_c=mu_c, sigma=sigma, rho=rho,
                        alpha=alpha, k=k, reps=reps, seed=seed)
            for rho in rhos
            for alpha in alphas
        ]
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    return scenarios, procedures


def cmd_simulate(args) -> int:
    entries = _load_config(args.config)
    scenarios, procedures = _build_scenarios(entries, args.seed)
    reports = run_grid(scenarios, procedures)
    emit_table(reports, args.out)
    print(f"wrote {len(reports)} report rows to {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    names = args.suite if args.suite else None
    if names:
        unknown = [name for name in names if name not in SUITES]
        if unknown:
            print(f"unknown suite(s): {', '.join(unknown)}", file=sys.stderr)
            return EXIT_PARSE
    results = run_suites(names)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status} ({result.detail})")
        all_passed = all_passed and result.passed
    return EXIT_OK if all_passed else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbfdr",
        description="Boundary-FDR control: Domino procedures, baselines, "
        "and a reproducible simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="apply a procedure to an evidence CSV")
    run_p.add_argument("input", help="evidence CSV (index,p_value or index,e_value)")
    run_p.add_argument("--proc", required=True,
                       choices=["domino", "domino-e", "bh", "holm"])
    run_p.add_argument("--k", type=int, default=1, help="boundary order")
    run_p.add_argument("--alpha", type=float, required=True, help="target level")
    run_p.add_argument("--test", choices=sorted(t.value for t in TestId),
                       help="local test (default: resolved from --dependence)")
    run_p.add_argument("--mode", choices=sorted(m.value for m in Mode),
                       help="condition-check backend (default: the closure-exact "
                       "scan; fast selects the liberal chain scan for bonferroni)")
    run_p.add_argument("--dependence", default="independent",
                       choices=["independent", "prds", "arbitrary"],
                       help="declared dependence among null p-values")
    run_p.add_argument("--out", help="rejection CSV path (default: stdout)")
    run_p.set_defaults(func=cmd_run)

    sim_p = sub.add_parser("simulate", help="run a scenario grid from a config file")
    sim_p.add_argument("--config", required=True,
                       help="scenario config path, or the name of a bundled config "
                       "such as table1.cfg")
    sim_p.add_argument("--out", required=True, help="metrics CSV path")
    sim_p.add_argument("--seed", type=int, help="override the config seed")
    sim_p.set_defaults(func=cmd_simulate)

    val_p = sub.add_parser("validate", help="run built-in self-check suites")
    val_p.add_argument("--suite", action="append",
                       help=f"suite name (repeatable); one of: {', '.join(SUITES)}")
    val_p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigConflict as exc:
        print(f"configuration conflict: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
